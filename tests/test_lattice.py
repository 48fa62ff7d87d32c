"""The shared join-closure engine behind invariant subgroups and parabolics."""

import json
from pathlib import Path

import numpy as np

from pfscheme.catalog import batch_specs
from pfscheme.frobenius import build_frobenius, invariant_lattice
from pfscheme.lattice import bits_of, indices_of, join_closure
from pfscheme.parabolic import _parabolic_lattice, separability_verdict
from pfscheme.scheme import from_orbitals

DATA = Path(__file__).parent / "data"


def test_bitset_round_trip():
    mask = np.zeros(200, dtype=bool)
    mask[[0, 7, 8, 63, 64, 199]] = True
    bits = bits_of(mask)
    assert bits == sum(1 << i for i in (0, 7, 8, 63, 64, 199))
    assert indices_of(bits).tolist() == [0, 7, 8, 63, 64, 199]


def test_engine_on_subspaces_of_f2_cubed_joins_each_pair_once():
    # subgroups of (Z_2)^3: elements are 3-bit vectors, the join is the span
    def span(bits):
        vecs = {0}
        for v in indices_of(bits).tolist():
            vecs |= {v ^ w for w in vecs}
        return sum(1 << v for v in vecs), len(vecs)

    asked = []

    def join(a, b):
        asked.append(frozenset((a, b)))
        return span(a | b)

    seeds = [(1, 1)] + [span(1 | 1 << v) for v in range(1, 8)]
    lat = join_closure(seeds, ((1 << 8) - 1, 8), join)
    assert sorted(lat.sizes) == [1] + [2] * 7 + [4] * 7 + [8]
    assert lat.longest == lat.shortest == 3
    assert asked and len(asked) == len(set(asked))
    # strict inclusion of bitsets, in the engine's (size, bits) order
    for i, a in enumerate(lat.members):
        for j, b in enumerate(lat.members):
            assert lat.inclusion[i, j] == (a != b and a & ~b == 0)


def test_invariant_lattice_matches_parabolics_of_the_orbital_scheme():
    # The parabolics of a Frobenius group's orbital scheme are the cosets of
    # its invariant subgroups: the class of point 0 is the subgroup.
    checked = 0
    for name, spec in batch_specs():
        if spec.kernel_order > 100:
            continue
        lat = invariant_lattice(spec)
        scheme = from_orbitals(build_frobenius(spec))
        paras, plat = _parabolic_lattice(scheme)
        blocks = [frozenset(np.flatnonzero(np.isin(scheme.colors[0], list(e.relations))).tolist())
                  for e in paras]
        index = {s.elements: i for i, s in enumerate(lat.subgroups)}
        assert set(blocks) == set(index), name
        perm = [index[b] for b in blocks]
        assert [lat.subgroups[i].order for i in perm] == [e.n_e for e in paras], name
        assert np.array_equal(lat.inclusion[np.ix_(perm, perm)], plat.inclusion), name
        assert lat.d == plat.longest, name
        assert lat.chain_lengths_equal == (plat.longest == plat.shortest), name
        checked += 1
    assert checked >= 30


def test_catalog_verdicts_match_the_recorded_fixture():
    # recorded before the lattice code moved onto the shared engine
    out = {}
    for name, spec in batch_specs():
        lat = invariant_lattice(spec)
        out[name] = {"verdict": separability_verdict(spec).to_json_dict(),
                     "members": len(lat.subgroups),
                     "chain_lengths_equal": lat.chain_lengths_equal}
    text = json.dumps(out, sort_keys=True, indent=2) + "\n"
    assert text.encode() == (DATA / "separability_catalog.json").read_bytes()
