"""The named batch of Frobenius specs used by the survey runs."""

import json
from pathlib import Path

import numpy as np
import pytest

from pfscheme.catalog import (
    KERNEL_CAP,
    batch_specs,
    cyclic_unit_spec,
    double_prime_spec,
    field_cube_spec,
    mixed_spec,
    negation_spec,
)
from pfscheme.frobenius import FrobeniusError, invariant_lattice
from pfscheme.scheme import frobenius_scheme

DATA = Path(__file__).parent / "data"


def test_batch_shape_and_names():
    batch = batch_specs()
    assert len(batch) == 64
    names = [name for name, _ in batch]
    assert len(set(names)) == 64
    for name, spec in batch:
        assert spec.kernel_order <= KERNEL_CAP
        assert spec.complement_order >= 2


def test_batch_families_present():
    names = [name for name, _ in batch_specs()]
    assert sum(1 for n in names if n.startswith("neg-")) == 32
    assert sum(1 for n in names if n.startswith("cyc-")) == 6
    assert sum(1 for n in names if n.startswith("scalar-")) == 13
    assert sum(1 for n in names if n.startswith("cube-")) == 7
    assert sum(1 for n in names if n.startswith("double-")) == 4
    assert sum(1 for n in names if n.startswith("mixed-")) == 2


def test_spot_validation_across_families():
    for spec in (negation_spec(9), cyclic_unit_spec(91, 16),
                 field_cube_spec(3, 2), double_prime_spec(3, 5, 2),
                 mixed_spec(7, 2, 4)):
        table = spec.validate()
        n = spec.kernel_order
        assert table.shape == (spec.complement_order, n)
        assert (table[0] == np.arange(n)).all()
        assert (np.sort(table, axis=1) == np.arange(n)).all()   # bijections
        assert len({row.tobytes() for row in table}) == spec.complement_order


def test_small_members_are_imprimitive():
    for name, spec in batch_specs():
        if spec.kernel_order > 130:
            continue
        lat = invariant_lattice(spec)
        assert lat.d >= 2, name


def test_constructor_guards():
    with pytest.raises(FrobeniusError):
        negation_spec(8).validate()   # even modulus: -1 fixes m/2
    with pytest.raises(ValueError):
        cyclic_unit_spec(9, 3)     # not a unit
    with pytest.raises(ValueError):
        mixed_spec(7, 3, 4)        # ord(3) mod 7 = 6 != q - 1


def test_the_scalar_factor_specs_are_the_frozen_ones():
    # the spec and the orbital scheme's fingerprint of every catalog entry
    # with an elementary abelian factor (scalar, cube, double and mixed),
    # recorded before their four builders came to share one helper
    frozen = json.loads((DATA / "catalog_specs.json").read_text())
    specs = dict(batch_specs())
    assert len(frozen) == 26
    assert sorted(frozen) == sorted(name for name in specs
                                    if not name.startswith(("neg-", "cyc-")))
    for name, want in frozen.items():
        assert specs[name].to_json_dict() == want["spec"], name
        assert frobenius_scheme(specs[name]).fingerprint() == want["fingerprint"], name
