"""Parabolic lattice, divide check, indistinguishing number, separability."""

import numpy as np
import pytest

from pfscheme import parabolic
from pfscheme.algiso import _transversal
from pfscheme.catalog import cyclic_unit_spec, double_prime_spec, field_cube_spec, negation_spec
from pfscheme.parabolic import (
    DivideRecord,
    SeparabilityVerdict,
    _verdict_from_chains,
    divide_check,
    enumerate_parabolics,
    indistinguishing_number,
    parabolic_closure,
    separability_verdict,
)
from pfscheme.scheme import NotCoherentError, Scheme, SchemeError, frobenius_scheme
from pfscheme.spreads import scalar_spec
import corpus
from corpus import complete_colors, cyclic_colors
from oracles import (
    _reference_chain_verdict,
    exhaustive_parabolics,
    pairwise_divide_records,
    squaring_closure,
    union_find_classes,
)


def test_parabolic_closure_of_single_relation():
    s = corpus.scheme("neg-9")
    # the +-3 difference class generates the subgroup {0, 3, 6}
    e = parabolic_closure(s, {3})
    assert e.n_e == 3
    assert e.num_classes == 3
    assert e.relations == frozenset({0, 3})
    in_e = np.isin(s.colors[0], list(e.relations))
    assert np.flatnonzero(in_e).tolist() == [0, 3, 6]
    # the +-1 class generates everything
    full = parabolic_closure(s, {1})
    assert full.is_full()
    trivial = parabolic_closure(s, set())
    assert trivial.is_trivial()


def test_enumerate_matches_exhaustive_scan():
    schemes = [corpus.scheme(name) for name in ("neg-9", "neg-15", "neg-21", "hall9", "cycle20",
                                                 "desarguesian3", "desarguesian9")]
    assert [s.rank for s in schemes[3:5]] == [11, 11]
    for s in schemes:
        fast = enumerate_parabolics(s)
        assert [(e.n_e, e.key()) for e in fast] == exhaustive_parabolics(s)
        assert all(e.n_e * e.num_classes == s.n for e in fast)
    s45 = corpus.scheme("neg-45")
    assert sorted(e.n_e for e in enumerate_parabolics(s45)) == [1, 3, 5, 9, 15, 45]


def test_is_primitive():
    # primitive: the trivial and the full parabolic, and no other
    assert len(enumerate_parabolics(Scheme(complete_colors(5)))) == 2
    assert len(enumerate_parabolics(corpus.scheme("paley13"))) == 2
    assert len(enumerate_parabolics(corpus.scheme("neg-9"))) > 2


def test_divide_check_records():
    s = corpus.scheme("neg-9")
    records = divide_check(s)
    assert len(records) == 3
    assert all(r.ok for r in records)
    pairs = sorted((r.n_lower, r.n_upper) for r in records)
    assert pairs == [(1, 3), (1, 9), (3, 9)]
    assert all(r.quotient == r.n_upper // r.n_lower for r in records)


def divide_corpus():
    """The catalog up to n = 200, the spreads, and `cyclic_schemes()`."""
    for name in corpus.names("catalog", max_n=200) + corpus.names("spread"):
        yield name, corpus.scheme(name)
    yield from cyclic_schemes()


def test_divide_check_equals_the_pairwise_scan():
    compared = 0
    for name, s in divide_corpus():
        if s.is_equivalenced() is None:
            with pytest.raises(SchemeError):
                divide_check(s)
            continue
        assert divide_check(s) == pairwise_divide_records(s), name
        compared += 1
    assert compared >= 60


def test_divide_check_of_the_scalar_3_5_scheme():
    records = divide_check(frobenius_scheme(scalar_spec(3, 5)))
    assert len(records) == 67035
    assert all(r.ok for r in records)
    assert records[0][:3] == (1, 3, 3)
    assert records[-1][:3] == (81, 243, 3)
    assert DivideRecord._fields == ("n_lower", "n_upper", "quotient", "ok")


def test_divide_check_needs_equivalenced():
    # Z_12 with negation: class {6} has valency 1, the rest valency 2
    s = Scheme(cyclic_colors(12))
    with pytest.raises(SchemeError):
        divide_check(s)


def test_indistinguishing_number_of_negation_schemes():
    # c(S) = k - 1 = 1 for the negation action
    for m in (9, 15, 25):
        s = corpus.scheme("neg-%d" % m)
        assert indistinguishing_number(s) == 1
    # order-4 action on Z_65: c(S) = k - 1 = 3
    s65 = corpus.scheme("cyc-65-57")
    assert indistinguishing_number(s65) == 3


def test_separability_bound_fires_for_negation():
    v = separability_verdict(negation_spec(9))
    assert v.separable
    assert v.reason == "bound"
    assert v.witness == (9, 6)
    assert (v.pi_count, v.d) == (1, 2)
    # same verdict through the scheme route
    vs = separability_verdict(corpus.scheme("neg-9"))
    assert vs.separable and vs.reason == "bound"
    assert (vs.pi_count, vs.d) == (1, 2)


def test_separability_scheme_route_annotates_d3_case():
    # n = 45 = (k+1)^2 (2k+1) with k = 2; separable by the bound, but the
    # d = 3 parameter case is still recorded
    s = corpus.scheme("neg-45")
    v = separability_verdict(s)
    assert v.separable and v.reason == "bound"
    assert v.d == 3
    assert v.cases == ("two-prime-double",)


def test_separability_complete_shortcut():
    v = separability_verdict(Scheme(complete_colors(7)))
    assert v.separable
    assert v.reason == "complete"
    assert (v.n, v.k) == (7, 6)


def test_separability_raises_on_primitive():
    with pytest.raises(SchemeError):
        separability_verdict(corpus.scheme("paley13"))
    with pytest.raises(ValueError):
        # full scalar group: no nontrivial invariant subgroup
        separability_verdict(scalar_spec(3, dim=1))


def test_separability_undecided_cases():
    v = separability_verdict(cyclic_unit_spec(65, 57))
    assert not v.separable
    assert v.undecided
    assert (v.pi_count, v.d) == (2, 2)
    assert v.cases == ()

    v = separability_verdict(scalar_spec(4))
    assert not v.separable
    assert (v.pi_count, v.d) == (1, 2)

    v = separability_verdict(field_cube_spec(7, 6))
    assert not v.separable
    assert (v.pi_count, v.d) == (1, 3)
    assert v.cases == ("one-prime-cube",)


def test_separability_undecided_two_prime_case_first_instance():
    # smallest two-prime parameter set surviving the bound: k = 12, so
    # |H| = 13^2 * 25 = 4225 <= 3 * 12 * 121 = 4356
    spec = double_prime_spec(13, 5, 12)
    assert spec.kernel_order == 4225
    v = separability_verdict(spec)
    assert not v.separable
    assert (v.pi_count, v.d) == (2, 3)
    assert v.cases == ("two-prime-double",)


def test_verdict_chain_arithmetic_long_chain_branch():
    # three nested nontrivial members below the bound
    sizes = [2, 10, 50]
    incl = np.array([[False, True, True],
                     [False, False, True],
                     [False, False, False]])
    v = _verdict_from_chains(100, 4, sizes, incl, 4, ())
    assert v.separable
    assert v.reason == "long-chain"
    assert v.witness == (1, 2, 10, 50, 100)


def test_verdict_chain_arithmetic_multiset_branch():
    sizes = [5, 20]
    incl = np.array([[False, True], [False, False]])
    v = _verdict_from_chains(100, 4, sizes, incl, 3, ())
    assert v.separable
    assert v.reason == "multiset"
    assert v.witness[:2] == (5, 20)
    assert tuple(sorted(v.witness[2:])) == (3, 4, 4)


def test_verdict_chain_arithmetic_allowed_multiset_is_undecided():
    sizes = [6, 36]
    incl = np.array([[False, True], [False, False]])
    v = _verdict_from_chains(216, 5, sizes, incl, 3, ())
    assert not v.separable
    assert v.reason is None


def test_verdict_json_shape():
    v = separability_verdict(negation_spec(9))
    d = v.to_json_dict()
    assert d["verdict"] == "separable"
    assert d["reason"] == "bound"
    assert d["witness"] == [9, 6]
    u = SeparabilityVerdict(False, 65, 4, pi_count=2, d=2)
    assert u.to_json_dict()["verdict"] == "undecided"


def test_verdict_chain_scan_matches_reference_loops():
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(0, 9))
        sizes = [int(x) for x in rng.choice([2, 3, 4, 6, 8, 9, 12, 18, 36], size=m)]
        incl = rng.random((m, m)) < rng.choice([0.05, 0.2, 0.5])
        n, k = 216, 5
        v = _verdict_from_chains(n, k, sizes, incl, 3, ())
        assert (v.reason, v.witness) == _reference_chain_verdict(n, k, sizes, incl)


def test_parabolic_closure_rejects_an_incoherent_scheme():
    # Hall q=9 with the colours of (1, 2) and (1, 9) swapped, and of their
    # transposes: still a valid colouring with stars, but not coherent
    with pytest.raises(NotCoherentError):
        parabolic_closure(corpus.scheme("hall9-swapped"), {1})


def test_transversal_is_the_least_point_of_each_class():
    checked = 0
    for name in corpus.names("catalog", max_n=100):
        s = corpus.scheme(name)
        for e in enumerate_parabolics(s):
            least = np.unique(union_find_classes(s, e.relations)).tolist()
            assert _transversal(s, e) == least, (name, e)
        checked += 1
    assert checked >= 30


# -- the closure under the Z_n translation certificate ---------------------


def cyclic_schemes():
    """The cycle and unit circulant closures of the corpus, and Z_9 under
    negation: schemes certified by the Z_n table."""
    for name in corpus.names("cycle", "units") + ["neg-9"]:
        yield name, corpus.scheme(name)


def test_gcd_closure_equals_the_squaring_closure_on_cyclic_schemes():
    for name, s in cyclic_schemes():
        D = s.translations
        assert D is not None and D[-1, 0] == 1, name
        rel_sets = [(r,) for r in range(s.rank)]
        rel_sets += [(r, r + 1) for r in range(1, s.rank - 1)]
        rel_sets += [sorted(e.relations) for e in enumerate_parabolics(s)]
        for rels in rel_sets:
            e = parabolic_closure(s, rels)
            assert (e.relations, e.n_e) == squaring_closure(s, rels), (name, rels)


@pytest.mark.parametrize("build", [
    lambda: corpus.scheme("hall9"),
    lambda: corpus.scheme("cycle45"),
])
def test_a_point_permuted_scheme_takes_the_squaring_path(monkeypatch, build):
    s = build()
    expected = enumerate_parabolics(s)
    moved = corpus.permuted(s, seed=5)
    assert moved.translations is None
    calls = {"_closure_mask": 0, "_squaring_class": 0}
    for name in calls:
        monkeypatch.setattr(parabolic, name, lambda *a, f=getattr(parabolic, name), k=name:
                            calls.__setitem__(k, calls[k] + 1) or f(*a))
    assert enumerate_parabolics(moved) == expected
    assert calls["_squaring_class"] == calls["_closure_mask"] > 0


def test_the_meet_bound_never_exceeds_the_true_join():
    # n_E n_F / n_{E∩F} <= n_{E∨F} on every pair of members, the join taken
    # as the closure of the union of relations
    pairs = 0
    for name in corpus.names("catalog", max_n=200) + corpus.names("spread"):
        s = corpus.scheme(name)
        paras, valency, joins = enumerate_parabolics(s), s.valencies(), {}
        for e in paras:
            for f in paras:
                union = e.relations | f.relations
                if union not in joins:
                    joins[union] = parabolic_closure(s, union).n_e
                meet = sum(valency[r] for r in e.relations & f.relations)
                assert e.n_e * f.n_e <= joins[union] * meet, (name, e, f)
                pairs += 1
    assert pairs > 7000


def test_no_closure_joins_two_components_of_a_spread(monkeypatch):
    # any two components span the plane, so the bound decides their join
    spreads = [corpus.scheme(name) for name in corpus.names("spread")]
    asked = []
    closure_mask = parabolic._closure_mask
    monkeypatch.setattr(parabolic, "_closure_mask",
                        lambda scheme, rels: asked.append(list(rels)) or closure_mask(scheme, rels))
    for s in spreads:
        asked.clear()
        assert len(enumerate_parabolics(s)) == s.rank + 1       # bottom, components, top
        assert sorted(map(len, asked)) == [0] + [1] * (s.rank - 1) + [s.rank]


def test_a_second_enumeration_runs_no_closure(monkeypatch):
    calls = []
    closure_mask = parabolic._closure_mask
    monkeypatch.setattr(parabolic, "_closure_mask",
                        lambda *a: calls.append(a[1]) or closure_mask(*a))
    s = corpus.scheme("hall9")
    first = enumerate_parabolics(s)
    built = len(calls)
    assert built >= s.rank
    again = enumerate_parabolics(s)
    assert len(calls) == built
    assert again == first and again is not first
    separability_verdict(s)
    assert len(calls) == built
