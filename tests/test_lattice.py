"""The shared join-closure engine behind invariant subgroups and parabolics."""

import json
from collections import Counter
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from pfscheme import cli, frobenius, lattice, parabolic
from pfscheme.arith import divisors
from pfscheme.catalog import batch_specs, scalar_spec
from pfscheme.frobenius import invariant_lattice
from pfscheme.lattice import bits_of, indices_of, join_closure
from pfscheme.parabolic import _parabolic_lattice, separability_verdict
import corpus
from oracles import reference_join_closure

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
    specs = dict(batch_specs())
    checked = 0
    for name in corpus.names("catalog", max_n=100):
        lat = invariant_lattice(specs[name])
        scheme = corpus.scheme(name)
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
        out[name] = {"verdict": cli._plain(separability_verdict(spec)),
                     "members": len(lat.subgroups),
                     "chain_lengths_equal": lat.chain_lengths_equal}
    text = json.dumps(out, sort_keys=True, indent=2) + "\n"
    assert text.encode() == (DATA / "separability_catalog.json").read_bytes()


def _compare_with_reference(monkeypatch, module):
    """Route `module.join_closure` through both engines and compare them."""
    compared = []

    def both(seeds, top, join):
        seeds = list(seeds)
        counts = {}
        for name, engine in (("ref", reference_join_closure), ("new", lattice.join_closure)):
            asked = Counter()

            def counted(a, b):
                asked[frozenset((a, b))] += 1
                return join(a, b)

            counts[name] = (engine(seeds, top, counted), asked)
        (ref, ref_asked), (new, new_asked) = counts["ref"], counts["new"]
        assert new.members == ref.members and new.sizes == ref.sizes
        assert np.array_equal(new.inclusion, ref.inclusion)
        assert (new.longest, new.shortest) == (ref.longest, ref.shortest)
        assert sum(new_asked.values()) <= sum(ref_asked.values())
        assert max(new_asked.values(), default=1) == 1
        compared.append(len(new.members))
        return new

    monkeypatch.setattr(module, "join_closure", both)
    return compared


def test_seed_scan_matches_the_pair_scan_on_the_catalog(monkeypatch):
    compared = _compare_with_reference(monkeypatch, frobenius)
    for _, spec in batch_specs():
        invariant_lattice(spec)
    assert len(compared) == len(batch_specs())


@pytest.mark.parametrize("name", corpus.names("spread") + ["cycle105", "cycle243"],
                         ids=lambda name: name.replace("cycle", "C"))
def test_seed_scan_matches_the_pair_scan_on_parabolics(monkeypatch, name):
    s = corpus.scheme(name)
    compared = _compare_with_reference(monkeypatch, parabolic)
    _parabolic_lattice(s)
    assert len(compared) == 1 and compared[0] > 2


def test_invariant_subspaces_of_f3_fourth_are_gaussian_binomials():
    # scalar multiplication fixes every subspace of (Z_3)^4
    lat = invariant_lattice(scalar_spec(3, 4))
    assert Counter(s.order for s in lat.subgroups) == {1: 1, 3: 40, 9: 130, 27: 40, 81: 1}
    assert lat.d == 4 and lat.chain_lengths_equal


@pytest.mark.parametrize("q, dim, members", [(3, 4, 212), (4, 3, 44)], ids=["F3^4", "F4^3"])
def test_seed_scan_matches_the_pair_scan_on_subspace_lattices(monkeypatch, q, dim, members):
    # F_4^3 is a non-prime field: its subspaces are the F_2-subspaces of
    # (Z_2)^6 that the scalars of order 3 fix
    compared = _compare_with_reference(monkeypatch, frobenius)
    invariant_lattice(scalar_spec(q, dim))
    assert compared == [members]


def test_the_member_bound_refuses_a_larger_lattice(monkeypatch):
    assert lattice.MAX_MEMBERS ** 2 == 256 * 2 ** 20     # bytes of the inclusion matrix
    spec = scalar_spec(3, 2)              # 6 invariant subgroups
    monkeypatch.setattr(lattice, "MAX_MEMBERS", 6)
    assert len(invariant_lattice(spec).subgroups) == 6
    monkeypatch.setattr(lattice, "MAX_MEMBERS", 5)
    with pytest.raises(lattice.LatticeTooLarge, match="more than 5 members") as err:
        invariant_lattice(spec)
    assert isinstance(err.value, ValueError)
    with pytest.raises(lattice.LatticeTooLarge):
        _parabolic_lattice(corpus.scheme("scalar-3"))


def _traced_peak(fn, *args):
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lattice_peak_memory_on_cube_13_6_and_scalar_3_5():
    # One seed-in-seed table as an s x s x W broadcast would take
    # 184 * 185 * 280 bytes = 9.5 MB on cube-13-6 alone.
    spec = dict(batch_specs())["cube-13-6"]
    invariant_lattice(spec)                                  # warm: complement, imports
    assert _traced_peak(invariant_lattice, spec) < 4 * 2 ** 20
    big = scalar_spec(3, 5)                                  # 2664 members
    big.validate()
    assert _traced_peak(invariant_lattice, big) <= 1.1 * 24.9 * 2 ** 20
    # the profile reads one chain of the lattice, not the lattice
    assert _traced_peak(frobenius.thm2_profile, big) < 2 ** 20


def test_no_join_is_asked_that_a_known_member_of_floor_size_decides(monkeypatch):
    # the floor of a pair: the least divisor of N that is a common multiple
    # of both sizes and exceeds each
    def checked(seeds, top, join):
        seeds = list(seeds)
        n = top[1]
        known = {bits: size for bits, size in [*seeds, top]}

        def asked(a, b):
            lcm = known[a] * known[b] // gcd(known[a], known[b])
            floor = min(d for d in divisors(n) if d % lcm == 0 and d > max(known[a], known[b]))
            assert not any(size == floor and bits & a == a and bits & b == b
                           for bits, size in known.items()), (a, b)
            bits, size = join(a, b)
            known[bits] = size
            return bits, size

        return lattice.join_closure(seeds, top, asked)

    monkeypatch.setattr(frobenius, "join_closure", checked)
    for name in ("cube-7-6", "double-3-5-2", "mixed-7-4", "scalar-9"):
        invariant_lattice(dict(batch_specs())[name])
    invariant_lattice(scalar_spec(3, 4))
    hall9 = corpus.scheme("hall9")
    monkeypatch.setattr(parabolic, "join_closure", checked)
    _parabolic_lattice(hall9)
