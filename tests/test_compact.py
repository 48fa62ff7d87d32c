"""Colours in one byte per pair: every kernel against an int64 twin.

`Scheme.colors` is held in the least unsigned dtype that holds the rank
(uint8 up to rank 256, uint16 above), and each kernel widens before it
multiplies a colour.  The twin of a scheme is the same scheme with its
colours forced to int64, so it runs the arithmetic that cannot wrap; each
kernel must give the twin's result on it, or raise the twin's error.
"""

import numpy as np
import pytest

from pfscheme import cli
from pfscheme.algiso import (
    RelationBijection,
    base_triple_counts,
    find_algebraic_isomorphisms,
    induced_isomorphism,
    schurity_via_base_triples,
)
from pfscheme.arith import difference_table
from pfscheme.autgrp import frobenius_certificate
from pfscheme.parabolic import enumerate_parabolics, separability_verdict
from pfscheme.scheme import NotCoherentError, Scheme, color_dtype
from pfscheme.tcond import check_t_condition
import corpus

# corpus names: the catalog up to n = 200, the spreads with q = 9 and 16,
# two schemes without a certificate, thin schemes at both colour widths,
# and an incoherent one
SCHEMES = (corpus.names("catalog", max_n=200)
           + ["desarguesian9", "hall9", "desarguesian16", "hall16", "hall9-permuted",
              "latin8-rigid", "thin255", "thin256", "thin257", "thin300", "hall9-incoherent"])


def int64_twin(s):
    twin = Scheme(s.colors)
    twin.colors = s.colors.astype(np.int64)
    twin.colors.setflags(write=False)
    twin.radices = s.radices
    return twin


def _tensor(s):
    return s.tensor().ref.tobytes()


def _schurity(s):
    r = schurity_via_base_triples(s)
    return cli._plain(r), r.automorphisms.tobytes()


def _induced(s):
    found = induced_isomorphism(s, s, RelationBijection(s, s, tuple(range(s.rank))))
    return None if found is None else cli._plain(found)


def _algebraic(s):
    isos, truncated = find_algebraic_isomorphisms(s, s, limit=1)
    return [f.mapping for f in isos], truncated


def _base_triple_counts(s):
    e = next(p for p in enumerate_parabolics(s) if not p.is_trivial() and not p.is_full())
    return [(mu, nus.tolist(), rhos.tolist(), counts.tolist())
            for mu, nus, rhos, counts in base_triple_counts(s, e)]


KERNELS = {
    "tensor": _tensor,
    "tcond3": lambda s: cli._plain(check_t_condition(s, 3)),
    "tcond4": lambda s: cli._plain(check_t_condition(s, 4)),
    "parabolics": enumerate_parabolics,
    "separability": lambda s: cli._plain(separability_verdict(s)),
    "schurity": _schurity,
    "algebraic": _algebraic,
    "induced": _induced,
    "base_triple_counts": _base_triple_counts,
    "frobenius_certificate": frobenius_certificate,
    "fingerprint": Scheme.fingerprint,
}

# A t = 4 scan of a thin scheme sorts n^2 codes for each of its n colours
# (about 1 s at n = 256), and `check schurity` runs one first.  Only thin300
# runs both, for the uint16 path; the uint8 one runs them on the catalog.
SLOW = {("thin%d" % n, kernel) for n in (255, 256, 257) for kernel in ("tcond4", "schurity")}


def outcome(kernel, s):
    """The kernel's result, or the type and message of what it raises."""
    try:
        return "ok", kernel(s)
    except NotCoherentError as exc:
        return "NotCoherentError", exc.args, exc.pair1, exc.pair2, exc.count1, exc.count2
    except Exception as exc:            # noqa: BLE001 - the twin must raise the same
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", SCHEMES)
def test_every_kernel_gives_the_int64_twins_result(name):
    s = corpus.scheme(name)
    twin = int64_twin(s)
    assert s.colors.dtype == color_dtype(s.rank) and not s.colors.flags.writeable
    assert np.array_equal(s.colors, twin.colors) and twin.colors.dtype == np.int64
    for kernel, fn in KERNELS.items():
        if (name, kernel) not in SLOW:
            assert outcome(fn, s) == outcome(fn, twin), (name, kernel)


def test_the_corpus_covers_both_widths_and_both_paths():
    built = {name: corpus.scheme(name) for name in SCHEMES}
    dtypes = {s.colors.dtype for s in built.values()}
    assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16)}
    assert built["thin256"].colors.dtype == np.uint8 and built["thin257"].colors.dtype == np.uint16
    assert built["hall9-permuted"].radices is None
    assert built["latin8-rigid"].radices is None
    assert built["hall16"].radices is not None
    with pytest.raises(NotCoherentError):
        built["hall9-incoherent"].tensor()


def test_color_dtype_at_the_boundaries():
    assert [color_dtype(r) for r in (1, 2, 256, 257, 65536, 65537)] == [
        np.uint8, np.uint8, np.uint8, np.uint16, np.uint16, np.uint32]


def test_a_read_only_compact_array_is_kept_and_any_other_input_copied():
    M = difference_table([7]).astype(np.uint8)
    writable = Scheme(M)
    assert writable.colors is not M and not writable.colors.flags.writeable
    M.setflags(write=False)
    assert Scheme(M).colors is M
    wide = Scheme(M.astype(np.int64))
    assert wide.colors.dtype == np.uint8 and wide == Scheme(M)
