"""Parabolic lattice, divide check, indistinguishing number, separability."""

import numpy as np
import pytest

from pfscheme import parabolic
from pfscheme.algiso import _transversal
from pfscheme.catalog import (
    batch_specs,
    cyclic_unit_spec,
    double_prime_spec,
    field_cube_spec,
    negation_spec,
)
from pfscheme.circulants import (
    CirculantSpec,
    circulant_from_connection,
    color_matrix,
    frobenius_circulant,
)
from pfscheme.frobenius import build_frobenius
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
from pfscheme.scheme import NotCoherentError, Scheme, SchemeError, from_orbitals, wl_closure
from pfscheme.spreads import desarguesian_spread, hall_spread, scalar_spec, spread_scheme


def frobenius_scheme(spec):
    return from_orbitals(build_frobenius(spec))


def complete_scheme(n):
    M = np.full((n, n), 1, dtype=np.int64)
    np.fill_diagonal(M, 0)
    return Scheme(M)


def paley_13():
    n = 13
    squares = {x * x % n for x in range(1, n)}
    M = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                M[i][j] = 1 if (j - i) % n in squares else 2
    return Scheme(M)


def union_find(labels, pairs):
    """Merge the classes of each pair, starting from `labels` (each point's
    least class mate); returns the merged labels."""
    parent = list(labels)

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        parent[max(ra, rb)] = min(ra, rb)
    return [find(x) for x in range(len(parent))]


def relation_pairs(scheme, s):
    """Pairs a < b in relation s or its transpose."""
    P = scheme.colors
    return np.argwhere(np.triu((P == s) | (P == scheme.star[s]), 1)).tolist()


def union_find_classes(scheme, rels):
    labels = list(range(scheme.n))
    for s in rels:
        labels = union_find(labels, relation_pairs(scheme, s))
    return np.array(labels)


def exhaustive_parabolics(scheme):
    """Every relation subset that covers exactly the pairs inside its
    union-find classes, as sorted (n_e, relations); rank <= 12 only."""
    assert scheme.rank <= 12
    pairs = [relation_pairs(scheme, s) for s in range(scheme.rank)]
    labels = {0: list(range(scheme.n))}     # bit s - 1 stands for relation s
    out = []
    for bits in range(1 << (scheme.rank - 1)):
        if bits:
            top = bits.bit_length()
            labels[bits] = union_find(labels[bits ^ 1 << (top - 1)], pairs[top])
        comp = np.array(labels[bits])
        rels = [0] + [s for s in range(1, scheme.rank) if bits >> (s - 1) & 1]
        if np.unique(scheme.colors[comp[:, None] == comp[None, :]]).tolist() == rels:
            out.append((int(np.count_nonzero(comp == 0)), tuple(rels)))
    return sorted(out)


def test_parabolic_closure_of_single_relation():
    s = frobenius_scheme(negation_spec(9))
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
    schemes = [frobenius_scheme(spec)
               for spec in (negation_spec(9), negation_spec(15), negation_spec(21))]
    schemes += [spread_scheme(hall_spread(9)),                              # rank 11
                wl_closure(color_matrix(circulant_from_connection(20, (1, 19))))]
    assert [s.rank for s in schemes[3:]] == [11, 11]
    for s in schemes:
        fast = enumerate_parabolics(s)
        assert [(e.n_e, e.key()) for e in fast] == exhaustive_parabolics(s)
        assert all(e.n_e * e.num_classes == s.n for e in fast)
    s45 = frobenius_scheme(negation_spec(45))
    assert sorted(e.n_e for e in enumerate_parabolics(s45)) == [1, 3, 5, 9, 15, 45]


def test_is_primitive():
    # primitive: the trivial and the full parabolic, and no other
    assert len(enumerate_parabolics(complete_scheme(5))) == 2
    assert len(enumerate_parabolics(paley_13())) == 2
    assert len(enumerate_parabolics(frobenius_scheme(negation_spec(9)))) > 2


def test_divide_check_records():
    s = frobenius_scheme(negation_spec(9))
    records = divide_check(s)
    assert len(records) == 3
    assert all(r.ok for r in records)
    pairs = sorted((r.n_lower, r.n_upper) for r in records)
    assert pairs == [(1, 3), (1, 9), (3, 9)]
    assert all(r.quotient == r.n_upper // r.n_lower for r in records)


def pairwise_divide_records(scheme):
    """(n_lower, n_upper, quotient, ok) of every nested parabolic pair, by
    a frozenset `<` test on every ordered pair of `enumerate_parabolics`
    in row-major order (the reference)."""
    k = scheme.is_equivalenced()
    paras = enumerate_parabolics(scheme)
    return [(e1.n_e, e2.n_e, e2.n_e // e1.n_e, (e2.n_e // e1.n_e - 1) % k == 0)
            for e1 in paras for e2 in paras if e1.relations < e2.relations]


def divide_corpus():
    for name, spec in batch_specs():
        if spec.kernel_order <= 200:
            yield name, frobenius_scheme(spec)
    for q in (9, 16):
        yield "hall-%d" % q, spread_scheme(hall_spread(q))
        yield "desarguesian-%d" % q, spread_scheme(desarguesian_spread(q))
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
    n = 12
    label = {}
    M = np.zeros((n, n), dtype=np.int64)
    nxt = 0
    for d in range(n):
        key = min(d, n - d)
        if key not in label:
            label[key] = nxt
            nxt += 1
        for i in range(n):
            M[i][(i + d) % n] = label[key]
    s = Scheme(M)
    with pytest.raises(SchemeError):
        divide_check(s)


def test_indistinguishing_number_of_negation_schemes():
    # c(S) = k - 1 = 1 for the negation action
    for m in (9, 15, 25):
        s = frobenius_scheme(negation_spec(m))
        assert indistinguishing_number(s) == 1
    # order-4 action on Z_65: c(S) = k - 1 = 3
    s65 = frobenius_scheme(cyclic_unit_spec(65, 57))
    assert indistinguishing_number(s65) == 3


def test_separability_bound_fires_for_negation():
    v = separability_verdict(negation_spec(9))
    assert v.separable
    assert v.reason == "bound"
    assert v.witness == (9, 6)
    assert (v.pi_count, v.d) == (1, 2)
    # same verdict through the scheme route
    vs = separability_verdict(frobenius_scheme(negation_spec(9)))
    assert vs.separable and vs.reason == "bound"
    assert (vs.pi_count, vs.d) == (1, 2)


def test_separability_scheme_route_annotates_d3_case():
    # n = 45 = (k+1)^2 (2k+1) with k = 2; separable by the bound, but the
    # d = 3 parameter case is still recorded
    s = frobenius_scheme(negation_spec(45))
    v = separability_verdict(s)
    assert v.separable and v.reason == "bound"
    assert v.d == 3
    assert v.cases == ("two-prime-double",)


def test_separability_complete_shortcut():
    v = separability_verdict(complete_scheme(7))
    assert v.separable
    assert v.reason == "complete"
    assert (v.n, v.k) == (7, 6)


def test_separability_raises_on_primitive():
    with pytest.raises(SchemeError):
        separability_verdict(paley_13())
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


def _reference_chain_verdict(n, k, sizes, incl):
    """The verdict scan as plain loops over (i, j[, l]) in size order."""
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    for i in order:
        for j in order:
            if incl[i, j]:
                for l in order:
                    if incl[j, l]:
                        return "long-chain", (1, sizes[i], sizes[j], sizes[l], n)
    for i in order:
        for j in order:
            if incl[i, j]:
                mset = tuple(sorted((sizes[i] - 1, sizes[j] // sizes[i] - 1,
                                     n // sizes[j] - 1)))
                if mset != (k, k, k) and mset != tuple(sorted((k, k, 2 * k))):
                    return "multiset", (sizes[i], sizes[j]) + mset
    return None, ()


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
    P = spread_scheme(hall_spread(9)).colors.copy()
    P[1, [2, 9]] = P[1, [9, 2]]
    P[[2, 9], 1] = P[[9, 2], 1]
    with pytest.raises(NotCoherentError):
        parabolic_closure(Scheme(P), {1})


def test_transversal_is_the_least_point_of_each_class():
    checked = 0
    for name, spec in batch_specs():
        if spec.kernel_order > 100:
            continue
        s = frobenius_scheme(spec)
        for e in enumerate_parabolics(s):
            least = np.unique(union_find_classes(s, e.relations)).tolist()
            assert _transversal(s, e) == least, (name, e)
        checked += 1
    assert checked >= 30


# -- the closure under the Z_n translation certificate ---------------------


def squaring_closure(scheme, rels):
    """(relations, n_e) of the closure by squaring, the path of a scheme
    without the Z_n certificate (the reference)."""
    mask = np.zeros(scheme.rank, dtype=bool)
    mask[0] = True
    for r in rels:
        mask[[r, scheme.star[r]]] = True
    block = parabolic._squaring_class(scheme.colors, mask)
    return frozenset(np.unique(scheme.colors[0, block]).tolist()), int(block.sum())


def cyclic_schemes():
    for n in (9, 15, 20, 45, 105):
        yield "cycle-closure-%d" % n, wl_closure(
            color_matrix(circulant_from_connection(n, (1, n - 1))))
    # the circulants of the benchmark's classify wl jobs
    for n in (64, 81, 99, 101, 127, 165, 189, 243):
        yield "circulant-%d" % n, wl_closure(
            color_matrix(circulant_from_connection(n, (1, n - 1))))
    for n, units, reps in ((105, (104,), (1, 2)), (157, (14,), (1,)), (195, (194,), (1, 2))):
        yield "units-%d" % n, wl_closure(
            color_matrix(frobenius_circulant(CirculantSpec(n, units, reps))))
    yield "z9", frobenius_scheme(negation_spec(9))


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
    lambda: spread_scheme(hall_spread(9)),
    lambda: wl_closure(color_matrix(circulant_from_connection(45, (1, 44)))),
])
def test_a_point_permuted_scheme_takes_the_squaring_path(monkeypatch, build):
    s = build()
    expected = enumerate_parabolics(s)
    perm = np.random.default_rng(5).permutation(s.n)
    moved = Scheme(s.colors[np.ix_(perm, perm)])
    assert moved.translations is None
    calls = {"_closure_mask": 0, "_squaring_class": 0}
    for name in calls:
        monkeypatch.setattr(parabolic, name, lambda *a, f=getattr(parabolic, name), k=name:
                            calls.__setitem__(k, calls[k] + 1) or f(*a))
    assert enumerate_parabolics(moved) == expected
    assert calls["_squaring_class"] == calls["_closure_mask"] > 0


def test_a_second_enumeration_runs_no_closure(monkeypatch):
    calls = []
    closure_mask = parabolic._closure_mask
    monkeypatch.setattr(parabolic, "_closure_mask",
                        lambda *a: calls.append(a[1]) or closure_mask(*a))
    s = spread_scheme(hall_spread(9))
    first = enumerate_parabolics(s)
    built = len(calls)
    assert built >= s.rank
    again = enumerate_parabolics(s)
    assert len(calls) == built
    assert again == first and again is not first
    separability_verdict(s)
    assert len(calls) == built
