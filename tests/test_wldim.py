"""Exception-set arithmetic, Frobenius certification, and the WL classifier."""

import tracemalloc

import numpy as np
import pytest

from pfscheme import autgrp, wldim
from pfscheme.arith import difference_table
from pfscheme.autgrp import frobenius_certificate
from pfscheme.circulants import CirculantSpec, certificate_unit_groups, circulant_from_connection
from pfscheme.perms import PermGroup, Permutation
from pfscheme.scheme import Scheme, partition_equal, wl_closure
from pfscheme.tcond import check_t_condition
from pfscheme.wldim import (
    SEARCH_LIMIT,
    _construction_certificate,
    _unit_orbit_labels,
    dimwl_verdict,
    exception_check,
    exception_set_crosscheck,
    factorization_string,
    frobenius_screen,
)
import corpus
from corpus import complete_colors
from oracles import reference_solutions


def test_factorization_string():
    assert factorization_string(63) == "3^2*7"
    assert factorization_string(105) == "3*5*7"
    assert factorization_string(7) == "7"
    assert factorization_string(2401) == "7^4"


def test_exception_check_known_values():
    inside = {7: "p", 49: "p^2", 343: "p^3", 15: "p*q", 63: "p^2*q",
              12: "p^2*q", 2: "p", 4: "p^2", 8: "p^3", 6: "p*q"}
    for n, shape in inside.items():
        c = exception_check(n)
        assert c.in_exception_set, n
        assert c.shape == shape
    for n in (105, 81, 2401, 210, 30, 16, 900):
        c = exception_check(n)
        assert not c.in_exception_set, n
        assert c.shape is None
        assert c.omega >= 3 or c.big_omega >= 4
    with pytest.raises(ValueError):
        exception_check(1)


def test_exception_check_agrees_with_brute_force():
    def brute(n):
        fac = {}
        m, p = n, 2
        while m > 1:
            while m % p == 0:
                fac[p] = fac.get(p, 0) + 1
                m //= p
            p += 1
        return not (len(fac) >= 3 or sum(fac.values()) >= 4)
    for n in range(2, 400):
        assert exception_check(n).in_exception_set == brute(n), n


def test_exception_set_crosscheck_small():
    count = exception_set_crosscheck(5000)
    assert count == 2462


@pytest.mark.parametrize("limit", list(range(101)) + [4096, 5000, 10007, 10 ** 4])
def test_exception_set_crosscheck_counts_the_members(limit):
    # small limits have no prime above isqrt(limit); 4096 and 10^4 are squares
    expected = sum(exception_check(n).in_exception_set for n in range(2, limit + 1))
    assert exception_set_crosscheck(limit) == expected


def test_exception_set_crosscheck_detects_a_missing_prime(monkeypatch):
    full = wldim._prime_table

    def without_97(limit):
        primes = full(limit)
        return primes[primes != 97]

    monkeypatch.setattr(wldim, "_prime_table", without_97)
    with pytest.raises(AssertionError, match="formulations disagree at n=97"):
        exception_set_crosscheck(100)


def test_exception_set_crosscheck_peak_memory():
    tracemalloc.start()
    try:
        exception_set_crosscheck(10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.4e6


def test_frobenius_certificate_on_cycle_closures():
    # closure of C_9 is the dihedral scheme; aut = D_9 is Frobenius
    cert = frobenius_certificate(corpus.scheme("cycle9"))
    assert cert.frobenius
    assert cert.transitive
    assert cert.group_order == 18
    assert cert.stabilizer_order == 2


def test_frobenius_certificate_rejects_complete_and_sparse():
    # K_6: the stabilizer of a point fixes more than one point
    cert = frobenius_certificate(Scheme(complete_colors(6)))
    assert cert.frobenius is False
    assert len(cert.witness) > 0
    # C_8 closure: reflection through an edge fixes two opposite points
    cert8 = frobenius_certificate(corpus.scheme("cycle8"))
    assert cert8.frobenius is False


@pytest.mark.parametrize("n", [9, 31])
def test_frobenius_certificate_paths_agree(n):
    # Swapping points 1 and 2 hides the Z_n translations from
    # translation_table, so the relabelled closure takes the search path.
    closure = corpus.scheme("cycle%d" % n)
    assert closure.translations is not None
    perm = list(range(n))
    perm[1], perm[2] = 2, 1
    hidden = Scheme(closure.colors[np.ix_(perm, perm)])
    assert hidden.translations is None
    certified = frobenius_certificate(closure)
    assert certified.frobenius and certified.group_order == 2 * n
    assert frobenius_certificate(hidden) == certified


def test_the_rigid_latin_square_graph():
    # srg(64, 21, 8, 6): coherent without a translation certificate, it
    # passes t = 3 but not t = 4, and its automorphism group has no element
    # that fixes 0 but another point, nor one that maps 0 to 1
    s = corpus.scheme("latin8-rigid")
    assert (s.n, s.valencies()) == (64, (1, 21, 42))
    assert s.translations is None
    assert check_t_condition(s, 3).passed
    assert not check_t_condition(s, 4).passed
    maps, capped = autgrp.automorphism_stabilizer(s)
    assert not capped and len(maps) == 1 and np.array_equal(maps[0], np.arange(64))
    assert list(autgrp._Search(s).solutions({0: 1}, limit=1)) == []


def test_frobenius_certificate_searches_only_the_stabilizer(monkeypatch):
    calls = []
    solutions = autgrp._Search.solutions

    def counted(self, partial, limit=None):
        calls.append(dict(partial))
        return solutions(self, partial, limit)

    monkeypatch.setattr(autgrp._Search, "solutions", counted)
    cert = frobenius_certificate(corpus.scheme("cycle31"))
    assert cert.frobenius
    assert calls == [{0: 0}]


# the circulants of the benchmark's 11 `classify wl` jobs
BENCH_CIRCULANTS = [name for name in corpus.CIRCULANTS if name != "units-91"]


def _same_maps(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_forced_completion_matches_the_point_by_point_search(monkeypatch):
    closures = [corpus.scheme(name) for name in BENCH_CIRCULANTS]
    for s in closures:
        search = autgrp._Search(s)
        assert _same_maps(list(search.solutions({0: 0})),
                          list(reference_solutions(search, {0: 0})))
        assert _same_maps(list(search.solutions({0: 1}, limit=1)),
                          list(reference_solutions(search, {0: 1}, limit=1)))
    # The rook's graph on 4 x 4 points (stabilizer of order 72) and K_6
    # branch below the root of the search.
    others = [corpus.scheme(name) for name in ("hall9", "desarguesian9", "neg-9", "rook4x4")]
    others.append(Scheme(complete_colors(6)))
    levels = []
    for s in others:
        maps, capped = autgrp.automorphism_stabilizer(s)
        assert not capped
        assert _same_maps(maps, list(reference_solutions(autgrp._Search(s), {0: 0},
                                                         levels=levels)))
    assert max(levels) >= 2
    # On random graphs some forced completions do not carry every pair;
    # the point-by-point search reaches an empty candidate set there.
    refused = []
    carries = autgrp._carries

    def counted(g, colors, image):
        ok = carries(g, colors, image)
        refused.append(not ok)
        return ok

    monkeypatch.setattr(autgrp, "_carries", counted)
    rng = np.random.default_rng(0)
    for n in (6, 7, 8, 9, 10) * 6:
        upper = np.triu(rng.integers(0, 2, (n, n)), 1)
        search = autgrp._Search(Scheme(upper + upper.T + 1 - np.eye(n, dtype=np.int64)))
        for partial in ({0: 0}, {0: 1}, {0: 1, 1: 0}):
            assert _same_maps(list(search.solutions(partial)),
                              list(reference_solutions(search, partial)))
    assert any(refused)


# the composite circulants of the benchmark that admit a K, and one K of
# order 3
COMPOSITE_CIRCULANTS = ["cycle81", "cycle99", "cycle165", "cycle189", "cycle243",
                        "units-105", "units-195", "units-91"]
COMPOSITE_IDS = ["n%d" % corpus.CIRCULANTS[name].n for name in COMPOSITE_CIRCULANTS]


@pytest.mark.parametrize("name", COMPOSITE_CIRCULANTS, ids=COMPOSITE_IDS)
def test_unit_orbit_labels_are_the_orbitals_of_the_semidirect_product(name):
    circ = corpus.CIRCULANTS[name]
    n = circ.n
    residues = np.arange(n)
    diffs = (residues[None, :] - residues[:, None]) % n
    translation = Permutation(tuple((i + 1) % n for i in range(n)))
    groups = certificate_unit_groups(circ)
    assert groups
    for K in groups:
        gens = [translation] + [
            Permutation(tuple((u * i) % n for i in range(n))) for u in sorted(K)]
        orbitals = np.asarray(PermGroup(gens, n).orbitals()).reshape(n, n)
        labels = _unit_orbit_labels(n, K)
        assert partition_equal(labels[diffs], orbitals)
        assert labels.max() + 1 == len(np.unique(labels))


def test_construction_certificate_checks_every_row():
    # Swapping points 1 and n - 1 keeps row 0 of the closure, whose colour
    # depends only on the distance, but no other row.
    n = 81
    circ, closure = corpus.CIRCULANTS["cycle81"], corpus.scheme("cycle81")
    assert _construction_certificate(circ, closure) == (2, 2 * n)
    perm = list(range(n))
    perm[1], perm[n - 1] = n - 1, 1
    swapped = closure.colors[np.ix_(perm, perm)]
    assert np.array_equal(swapped[0], closure.colors[0])
    assert _construction_certificate(circ, Scheme(swapped)) is None


@pytest.mark.parametrize("name", COMPOSITE_CIRCULANTS, ids=COMPOSITE_IDS)
def test_construction_certificate_row_zero_verdict_is_the_pair_verdict(name):
    # On the Z_n-certified closure, row 0 decides each K as the n^2 pairs
    # do; the trivial group {1}, whose orbitals are thin, is a K that fails.
    circ, closure = corpus.CIRCULANTS[name], corpus.scheme(name)
    n = circ.n
    assert closure.cyclic
    D = difference_table([n])
    groups = certificate_unit_groups(circ)
    on_pairs, on_row_zero = [], []
    for K in groups + [frozenset({1})]:
        labels = _unit_orbit_labels(n, K)
        on_pairs.append(partition_equal(labels[D], closure.colors))
        on_row_zero.append(partition_equal(labels, closure.colors[0]))
    assert on_row_zero == on_pairs
    assert on_pairs[-1] is False
    first = next(((len(K), n * len(K)) for K, hit in zip(groups, on_pairs) if hit), None)
    assert _construction_certificate(circ, closure) == first


def test_frobenius_screen_fails_on_non_equivalenced():
    # even cycle closures have a valency-1 antipodal class
    s = corpus.scheme("cycle8")
    screen = frobenius_screen(s)
    assert not screen.equivalenced
    assert not screen.passed
    t = corpus.scheme("cycle9")
    screen9 = frobenius_screen(t)
    assert screen9.passed
    assert screen9.valency == 2


def test_dimwl_exactly2_by_construction():
    v = dimwl_verdict(circulant_from_connection(81, [1, 80]))
    assert v.verdict == "Exactly2"
    assert v.certification == "construction"
    assert v.group_order == 162
    assert not v.in_exception_set
    assert v.separability is not None and v.separability.separable
    d = v.to_json_dict()
    assert d["verdict"] == "Exactly2" and d["screen"]["passed"] is True

    v105 = dimwl_verdict(CirculantSpec(105, (104,), (1, 2)))
    assert v105.verdict == "Exactly2"
    assert v105.group_order == 210
    assert v105.connection_size == 4


def test_dimwl_exception_unresolved():
    v = dimwl_verdict(circulant_from_connection(63, [1, 62]))
    assert v.verdict == "ExceptionUnresolved"
    assert v.in_exception_set
    assert v.certification == "construction"
    assert "p^2*q" in v.reason

    # K_3 = C_3: S_3 is genuinely Frobenius on 3 points, n = 3 = p
    v3 = dimwl_verdict(circulant_from_connection(3, [1, 2]))
    assert v3.verdict == "ExceptionUnresolved"


def test_dimwl_not_frobenius_certified():
    # complete graph beyond 3 points: 2-point stabilizers are nontrivial
    v = dimwl_verdict(circulant_from_connection(6, list(range(1, 6))))
    assert v.verdict == "NotFrobeniusCertified"
    assert v.reason.startswith("automorphism search")

    # disconnected graph: closure is not equivalenced
    v2 = dimwl_verdict(circulant_from_connection(63, [3, 60]))
    assert v2.verdict == "NotFrobeniusCertified"
    assert v2.reason == "closure fails the Frobenius screen"
    assert not v2.screen.equivalenced


def test_dimwl_search_limit():
    # prime n above the search limit: no construction path, no search
    n = 263
    assert n > SEARCH_LIMIT
    v = dimwl_verdict(circulant_from_connection(n, [1, n - 1]))
    assert v.verdict == "NotFrobeniusCertified"
    assert "search limit" in v.reason
    assert v.search_limited
    assert "search_limited" not in v.to_json_dict()


def test_dimwl_prime_within_search_limit():
    # C_5: automorphism group D_5 is Frobenius, 5 = p is exceptional
    v = dimwl_verdict(circulant_from_connection(5, [1, 4]))
    assert v.verdict == "ExceptionUnresolved"
    assert v.certification == "search"
    assert v.group_order == 10


def test_dimwl_builds_the_parabolic_lattice_once(monkeypatch):
    from pfscheme import parabolic

    calls = []

    def counted(seeds, top, join):
        calls.append(top[1])
        return join_closure(seeds, top, join)

    join_closure = parabolic.join_closure
    monkeypatch.setattr(parabolic, "join_closure", counted)
    v = dimwl_verdict(circulant_from_connection(81, [1, 80]))
    assert v.verdict == "Exactly2" and v.separability is not None
    assert calls == [81]


def test_dimwl_builds_one_difference_table(monkeypatch):
    # arc_coloring's table: wl_closure certifies the colouring with it, and
    # the closure keeps it as its certificate, so no stage builds another
    from pfscheme import circulants, scheme

    calls = []

    def counted(radices):
        calls.append(tuple(radices))
        return difference_table(radices)

    for module in (circulants, scheme):
        monkeypatch.setattr(module, "difference_table", counted)
    v = dimwl_verdict(circulant_from_connection(81, [1, 80]))
    assert v.verdict == "Exactly2" and v.certification == "construction"
    assert calls == [(81,)]


def test_wl_closure_searches_when_the_given_table_fails_the_row_test():
    from pfscheme.circulants import arc_coloring

    M, D = arc_coloring(circulant_from_connection(20, [1, 19]))
    wrong = D[::-1].copy()                    # no translation table of M
    for table in (D, wrong, None):
        closure = wl_closure(M, table)
        assert closure == wl_closure(M.astype(np.int64))
        assert np.array_equal(closure.translations, D)
