"""Algebraic isomorphisms, base-triple coordinates, induced maps, schurity."""

import itertools
import math

import numpy as np
import pytest

import pfscheme.algiso as algiso
from pfscheme import cli
from pfscheme.algiso import (
    BaseTriple,
    RelationBijection,
    base_coordinates,
    find_algebraic_isomorphisms,
    induced_isomorphism,
    is_base_triple,
    schurity_via_base_triples,
)
from pfscheme.parabolic import enumerate_parabolics, parabolic_closure
from pfscheme.perms import PermGroup, Permutation
from pfscheme.scheme import Scheme, SchemeError, partition_equal
import corpus
from corpus import complete_colors
from oracles import (
    dense_isomorphisms,
    dense_tensor,
    reference_base_triples,
    reference_induced_point_map,
    reference_orbitals,
)


def z9():
    return corpus.scheme("neg-9")


def test_relation_bijection_validates():
    s = z9()
    ident = RelationBijection(s, s, tuple(range(s.rank)))
    assert ident.mapping == tuple(range(s.rank))
    # diagonal must stay fixed
    with pytest.raises(SchemeError):
        RelationBijection(s, s, (1, 0, 2, 3, 4))
    # swapping colors with different tensor behavior is rejected:
    # classes 1 (generator +-1) and 3 (subgroup +-3) are distinguishable
    with pytest.raises(SchemeError):
        RelationBijection(s, s, (0, 3, 2, 1, 4))


def test_algebraic_automorphisms_of_z9():
    s = z9()
    isos, truncated = find_algebraic_isomorphisms(s, s)
    assert not truncated
    # multiplication by units modulo +-1 gives the three tensor symmetries
    assert len(isos) == 3
    maps = {iso.mapping for iso in isos}
    assert tuple(range(s.rank)) in maps
    # x -> 2x sends classes (+-1, +-2, +-3, +-4) to (+-2, +-4, +-3, +-1)
    assert (0, 2, 4, 3, 1) in maps
    # the inverse of each is one of them
    assert {tuple(int(i) for i in np.argsort(m)) for m in maps} == maps
    isos1, truncated1 = find_algebraic_isomorphisms(s, s, limit=1)
    assert len(isos1) == 1 and truncated1


def test_find_algebraic_isomorphisms_rejects_mismatched_shapes():
    a = z9()
    b = corpus.scheme("neg-15")
    isos, truncated = find_algebraic_isomorphisms(a, b)
    assert isos == [] and not truncated


def test_hall_desarguesian_tensors_agree():
    hall, desarg = corpus.scheme("hall9"), corpus.scheme("desarguesian9")
    isos, _ = find_algebraic_isomorphisms(hall, desarg, limit=1)
    assert len(isos) == 1
    assert np.array_equal(dense_tensor(hall.tensor()), dense_tensor(desarg.tensor()))


def test_relation_bijection_names_the_least_differing_triple():
    rng = np.random.default_rng(5)
    thin8, thin12, elem8 = (corpus.scheme(name) for name in ("thin8", "thin12", "thin2-2-2"))
    cases = [(z9(), z9(), (0,) + p) for p in itertools.permutations(range(1, 5))]
    for source, target in ((thin12, thin12), (thin8, elem8), (elem8, thin8)):
        cases += [(source, target, (0,) + tuple(rng.permutation(range(1, source.rank)).tolist()))
                  for _ in range(12)]
    failures = later = 0
    for source, target, mapping in cases:
        # the reference: the first differing cell of the dense tensors
        perm = np.asarray(mapping)
        c1 = dense_tensor(source.tensor())
        c2 = dense_tensor(target.tensor())[np.ix_(perm, perm, perm)]
        bad = np.argwhere(c1 != c2)
        expected = None
        if len(bad):
            r, s, t = (int(v) for v in bad[0])
            expected = ("intersection numbers differ at (%d,%d,%d): %d vs %d"
                        % (r, s, t, c1[r, s, t], c2[r, s, t]))
            failures += 1
            later += t > bad[:, 2].min()    # not the least t whose counts differ
        try:
            RelationBijection(source, target, mapping)
            got = None
        except SchemeError as exc:
            got = str(exc)
        assert got == expected, mapping
    assert failures >= 50 and later > 0


def test_backtracking_matches_the_dense_oracle():
    hall, desarg, cycle, thin, thin26 = (corpus.scheme(name) for name in (
        "hall9", "desarguesian9", "cycle17", "thin12", "thin2-6"))
    cases = [(hall, desarg, 40), (desarg, hall, 1), (z9(), z9(), None), (z9(), z9(), 2),
             (cycle, cycle, None), (thin, thin, None), (thin, thin26, None)]
    for source, target, limit in cases:
        isos, truncated = find_algebraic_isomorphisms(source, target, limit)
        expected = dense_isomorphisms(source, target, limit)
        assert [iso.mapping for iso in isos] == expected
        assert truncated == (len(expected) == limit)
    assert len(dense_isomorphisms(cycle, cycle)) == 8


def test_base_triples_and_predicate():
    s = z9()
    e = parabolic_closure(s, {3})
    triples = list(reference_base_triples(s, e))
    for tr in triples:
        assert is_base_triple(s, e, tr.mu, tr.nu, tr.rho)
    # brute-force count: mu the least point of its class, nu in mu's class,
    # rho outside
    least = [mu for mu in range(9)
             if min(nu for nu in range(9) if int(s.colors[mu, nu]) in e) == mu]
    assert least == [0, 1, 2]
    count = 0
    for mu in least:
        for nu in range(9):
            for rho in range(9):
                if is_base_triple(s, e, mu, nu, rho):
                    count += 1
    assert len(triples) == count == 3 * 2 * 6


def test_the_first_bijective_triple_is_the_first_of_the_reference_order():
    # _first_valid_triple reads base_triple_counts; the reference walks the
    # triples one at a time and tests their n coordinate pairs for repeats.
    # The dihedral closures of even cycles start with triples that are not
    # bijective.
    checked, skipped = 0, 0
    for name in corpus.names(max_n=200):
        s = corpus.scheme(name)
        try:
            parabolics = enumerate_parabolics(s)
        except SchemeError:             # the corpus's incoherent colourings
            continue
        P = s.colors
        for e in parabolics:
            if e.is_trivial() or e.is_full():
                continue
            in_e = algiso._relation_mask(s, e)

            def bijective(tr):
                y = np.where(in_e[P[tr.mu]], P[tr.rho], P[tr.nu])
                return len(set(zip(P[tr.mu].tolist(), y.tolist()))) == s.n

            expect = next((tr for tr in reference_base_triples(s, e) if bijective(tr)), None)
            tau, f1 = algiso._first_valid_triple(s, e)
            assert tau == expect, name
            assert f1 is None if tau is None else f1.bijective, name
            checked += 1
            skipped += tau != next(reference_base_triples(s, e))
    assert checked > 400 and skipped > 0


def test_base_coordinates_bijective_on_frobenius_scheme():
    s = z9()
    e = parabolic_closure(s, {3})
    tr = next(reference_base_triples(s, e))
    f = base_coordinates(s, e, tr)
    assert f.bijective
    assert f.pair_count == 9
    # f^{-1}: nine distinct sorted codes x R + y, each with its point
    assert len(np.unique(f.keys)) == 9 and np.all(f.keys[1:] > f.keys[:-1])
    assert sorted(f.points.tolist()) == list(range(9))
    assert np.array_equal(f.keys, f.x[f.points] * s.rank + f.y[f.points])
    # coordinates are colors: x inside-agnostic, y switches on membership
    in_e = {0, 3}
    for alpha in range(9):
        assert f.x[alpha] == s.colors[tr.mu][alpha]
        expect = s.colors[tr.rho][alpha] if int(f.x[alpha]) in in_e \
            else s.colors[tr.nu][alpha]
        assert f.y[alpha] == expect


def test_base_coordinates_requires_base_triple():
    s = z9()
    e = parabolic_closure(s, {3})
    with pytest.raises(SchemeError):
        base_coordinates(s, e, BaseTriple(0, 0, 1))


def test_induced_isomorphism_identity():
    s = z9()
    ident = RelationBijection(s, s, tuple(range(s.rank)))
    res = induced_isomorphism(s, s, ident)
    assert res is not None
    g = res.g
    assert sorted(g) == list(range(9))
    for x in range(9):
        for y in range(9):
            assert s.colors[g[x]][g[y]] == s.colors[x][y]


def test_induced_isomorphism_nontrivial_color_map():
    s = z9()
    # x -> 2x induces the color map (0, 2, 4, 3, 1)
    psi = RelationBijection(s, s, (0, 2, 4, 3, 1))
    res = induced_isomorphism(s, s, psi)
    assert res is not None
    g = res.g
    for x in range(9):
        for y in range(9):
            assert s.colors[g[x]][g[y]] == psi[s.colors[x][y]]


# corpus name, and whether its second algebraic automorphism is induced
INDUCED_CASES = {
    "z9": ("neg-9", True),
    "f3x3-spread": ("desarguesian3", True),
    "desarguesian-9": ("desarguesian9", False),
}


@pytest.mark.parametrize("name", sorted(INDUCED_CASES))
def test_induced_point_map_matches_the_dict_lookup(name):
    # every transversal base triple of the target parabolic, bijective or
    # not, for the identity and for a second algebraic automorphism
    scheme_name, second_induced = INDUCED_CASES[name]
    s = corpus.scheme(scheme_name)
    psis, _ = find_algebraic_isomorphisms(s, s, limit=2)
    assert [induced_isomorphism(s, s, psi) is not None for psi in psis] == [True, second_induced]
    e = next(p for p in enumerate_parabolics(s) if not p.is_trivial() and not p.is_full())
    _, f1 = algiso._first_valid_triple(s, e)
    seen = set()
    for psi in psis:
        e2 = psi.image_parabolic(e)
        in_e2 = algiso._relation_mask(s, e2)
        counts2 = algiso._pair_counts(s, in_e2)
        for tau2 in reference_base_triples(s, e2):
            f2 = algiso._coordinate_map(s, in_e2, counts2, tau2)
            g = algiso.induced_point_map(psi, f1, f2)
            ref = reference_induced_point_map(psi, f1, f2)
            assert (g is None) == (ref is None)
            assert g is None or np.array_equal(g, ref)
            seen.add((f2.bijective, g is None))
    # both outcomes occur; every base triple of these schemes is bijective
    assert seen == {(True, False), (True, True)}


def test_induced_point_map_keeps_the_last_point_of_a_repeated_pair():
    # three blocks of three points: no base triple is bijective, so pairs
    # repeat, and the lookup must pick the point the dict kept
    P = np.array([[0 if a == b else 1 if a // 3 == b // 3 else 2 for b in range(9)]
                  for a in range(9)])
    s = Scheme(P)
    e = parabolic_closure(s, {1})
    ident = RelationBijection(s, s, (0, 1, 2))
    maps = [base_coordinates(s, e, tr) for tr in reference_base_triples(s, e)]
    assert not any(f.bijective for f in maps)
    found = 0
    for f1 in maps:
        for f2 in maps:
            g = algiso.induced_point_map(ident, f1, f2)
            ref = reference_induced_point_map(ident, f1, f2)
            assert (g is None) == (ref is None)
            if g is not None:
                assert np.array_equal(g, ref)
                found += 1
    assert found


def test_schurity_of_frobenius_schemes():
    res = schurity_via_base_triples(z9())
    assert res.schurian
    assert res.four_condition_passed
    assert res.group_order == 18
    assert all(res.relation_transitive)
    assert res.orbital_scheme_equal
    d = cli._plain(res)
    assert d["schurian"] is True and d["group_order"] == 18

    res65 = schurity_via_base_triples(corpus.scheme("cyc-65-57"))
    assert res65.schurian
    assert res65.group_order == 260


def test_schurity_bails_out_when_4condition_fails():
    res = schurity_via_base_triples(corpus.scheme("hall9"))
    assert not res.schurian
    assert not res.four_condition_passed
    assert res.group_order == 0
    assert "4-condition" in res.reason


def test_schurity_complete_scheme_shortcut():
    # a transposition and an n-cycle generate S_n, reported as n!
    for n in range(1, 8):
        res = schurity_via_base_triples(Scheme(complete_colors(n)))
        assert res.schurian and res.orbital_scheme_equal
        assert res.group_order == math.factorial(n)
        assert PermGroup(map(Permutation, res.automorphisms), n).order() == res.group_order


ORACLE_SCHEMES = {                  # test id -> corpus name
    "z9": "neg-9",
    "z65-u57": "cyc-65-57",
    "scalar7": "scalar-7",
    "f3x3-spread": "desarguesian3",
    "desarguesian-9": "desarguesian9",
}


@pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
def test_schurity_matches_the_group_of_its_maps(name):
    # the verdict is read off the list of maps; the oracle rebuilds the
    # group they generate by Schreier-Sims and its orbitals by pair BFS
    s = corpus.scheme(ORACLE_SCHEMES[name])
    res = schurity_via_base_triples(s)
    assert res.automorphisms.dtype == np.int32
    G = PermGroup(map(Permutation, res.automorphisms), s.n)
    assert res.group_order == len(res.automorphisms) == G.order()
    ref = np.asarray(reference_orbitals(G)).reshape(s.n, s.n)
    assert partition_equal(G.orbitals().reshape(s.n, s.n), ref)
    P = s.colors
    assert res.relation_transitive == tuple(len(np.unique(ref[P == r])) == 1
                                            for r in range(s.rank))
    assert res.orbital_scheme_equal == partition_equal(ref, P)
    assert res.schurian


def test_schurity_of_map_lists_that_generate_a_smaller_group(monkeypatch):
    s = z9()
    identity = RelationBijection(s, s, tuple(range(s.rank)))
    real = list(algiso._verified_maps(s, s, identity, None))
    fixing = [m for m in real if m[3][0] == 0]
    monkeypatch.setattr(algiso, "_verified_maps", lambda *a: iter(fixing))
    res = schurity_via_base_triples(s)
    assert res.group_order == len(fixing) == 2
    assert not res.schurian and not res.orbital_scheme_equal
    assert res.relation_transitive == (False,) * 5
    assert res.reason == "generated group misses some relation"
    # the translations of Z_9 alone: transitive, but the stabilizer of 0
    # is trivial, so only the diagonal is one orbital
    shifts = [m for m in real if np.array_equal(m[3], (np.arange(9) + m[3][0]) % 9)]
    monkeypatch.setattr(algiso, "_verified_maps", lambda *a: iter(shifts))
    res = schurity_via_base_triples(s)
    assert res.group_order == len(shifts) == 9
    assert res.relation_transitive == (True, False, False, False, False)
    assert not res.orbital_scheme_equal and not res.schurian
    # a list that is not a group fails the orbit-stabilizer guard
    monkeypatch.setattr(algiso, "_verified_maps", lambda *a: iter(real[:-1]))
    with pytest.raises(AssertionError, match="orbit-stabilizer"):
        schurity_via_base_triples(s)


def test_batched_pair_counts_match_per_triple_coordinates():
    from pfscheme.algiso import base_triple_counts

    # the dihedral closure of C_12 has non-bijective base triples as well
    c12 = corpus.scheme("cycle12")
    for s in (z9(), corpus.scheme("desarguesian3"), c12):
        seen_bad = False
        for e in enumerate_parabolics(s):
            if e.is_trivial() or e.is_full():
                continue
            batched = []
            for mu, nus, rhos, counts in base_triple_counts(s, e):
                assert counts.shape == (len(nus), len(rhos))
                batched += [(mu, int(nu), int(rho), int(counts[i, j]))
                            for i, nu in enumerate(nus) for j, rho in enumerate(rhos)]
            single = []
            c, st = dense_tensor(s.tensor()), np.asarray(s.star)
            in_e = np.isin(np.arange(s.rank), list(e.relations))
            for tr in reference_base_triples(s, e):
                f = base_coordinates(s, e, tr)
                # the pair set counted directly: colours (x, y) with c[x][y*][t] > 0
                targets = np.where(in_e, f.out_color, f.in_color)
                direct = c[np.arange(s.rank)[:, None], st[None, :], targets[:, None]] > 0
                assert f.pair_count == int(direct.sum())
                assert f.bijective == (f.pair_count == s.n)
                single.append((tr.mu, tr.nu, tr.rho, f.pair_count))
                seen_bad |= not f.bijective
            assert batched == single
        assert seen_bad == (s is c12)


def test_batched_counts_catch_a_count_that_claims_a_colliding_triple(monkeypatch):
    from pfscheme.algiso import base_triple_counts

    # the dihedral closure of C_12 has non-bijective base triples; a pair
    # count that calls every triple bijective must meet their collisions
    s = corpus.scheme("cycle12")
    monkeypatch.setattr(algiso, "_pair_counts",
                        lambda scheme, in_e: np.full((scheme.rank, scheme.rank), scheme.n))
    with pytest.raises(AssertionError, match="coordinates collide"):
        for e in enumerate_parabolics(s):
            if not (e.is_trivial() or e.is_full()):
                list(base_triple_counts(s, e))
