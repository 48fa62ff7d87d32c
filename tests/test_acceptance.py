"""Acceptance suite: the nine verification criteria, exact, with budgets.

Each test runs one criterion, prints its pass/fail line, and asserts both
the outcome and the criterion's runtime budget.
"""

from pfscheme import scheme, verify


def run_criterion(fn, budget_seconds):
    r = fn()
    print(r.line())
    assert r.passed, r.detail
    assert r.seconds < budget_seconds, (
        "criterion %d exceeded its %ds budget: %.1fs"
        % (r.index, budget_seconds, r.seconds))
    return r


def test_criterion_1_axioms_and_triangle_identities():
    # every generated scheme satisfies C1-C3 and all triangle identities
    r = run_criterion(verify.criterion_1, 10)
    assert "z9" in r.detail["schemes"]
    assert "cycle-closure-105" in r.detail["schemes"]


def test_criterion_2_pseudofrobenius_screen():
    # equivalenced with k = |K|, indistinguishing number k-1, divide lemma
    r = run_criterion(verify.criterion_2, 5)
    for rec in r.detail.values():
        assert rec["indistinguishing"] == rec["k"] - 1
        assert rec["divide"]


def test_criterion_3_proper_pair_at_order_81():
    # Desarguesian passes the 4-condition, Hall is tensor-equal yet fails
    r = run_criterion(verify.criterion_3, 15 * 60)
    assert r.detail["algebraic_isomorphism"]
    assert r.detail["desarguesian_4cond"] is True
    assert r.detail["hall_4cond"] is False
    assert r.detail["verdicts"] == ["frobenius", "proper"]


def test_criterion_4_constructive_schurity():
    # reconstructed automorphisms generate a group whose orbital scheme
    # equals the input
    r = run_criterion(verify.criterion_4, 30)
    for rec in r.detail.values():
        assert rec["schurian"]
        assert rec["relation_transitive"]
        assert rec["orbital_scheme_equal"]


def test_criterion_5_arithmetic_separability_table():
    # >= 50 specs with |H| <= 4000; all Undecided in {1,2} x {2,3} with
    # the d = 3 parameter cases checked
    r = run_criterion(verify.criterion_5, 60)
    assert r.detail["specs"] >= 50
    assert r.detail["undecided"] > 0


def test_criterion_6_in_block_intersection_collapse():
    # c_{rs}^t = 1 and c_{rs}^u = 0 for in-block u != t
    r = run_criterion(verify.criterion_6, 60)
    assert r.detail["witness"] is None
    assert r.detail["triples"] > 0


def test_criterion_7_base_triple_bijectivity():
    # f_tau bijective for every base triple over all parabolics
    r = run_criterion(verify.criterion_7, 60)
    assert r.detail["witness"] is None
    assert r.detail["triples"] > 0


def test_criterion_8_circulant_dimension_verdicts():
    # C_81 and the 105-point two-orbit circulant are Exactly2, 63 is the
    # exception set; the two exception formulations agree up to 10^6
    r = run_criterion(verify.criterion_8, 120)
    assert r.detail["n81"] == "Exactly2"
    assert r.detail["n105"] == "Exactly2"
    assert r.detail["n63"] == "ExceptionUnresolved"
    assert r.detail["exception_members_to_1e6"] == 332422


def test_criterion_9_closure_stability():
    # wl_closure is idempotent and fixes every orbital scheme in the corpus
    r = run_criterion(verify.criterion_9, 60)
    assert r.detail["witness"] is None
    assert r.detail["fixed_points"] > 0


def test_run_all_builds_each_named_scheme_once(monkeypatch):
    # the criteria share one corpus: each named scheme is built, and its
    # tensor verified, once per process
    builds, tensors = [], []
    for name in ("frobenius_scheme", "spread_scheme"):
        build = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, b=build, nm=name: builds.append(nm) or b(*a))
    compute_tensor = scheme.compute_tensor
    monkeypatch.setattr(scheme, "compute_tensor",
                        lambda s: tensors.append(s) or compute_tensor(s))
    verify.named_scheme.cache_clear()
    try:
        results = verify.run_all()
        info = verify.named_scheme.cache_info()
    finally:
        verify.named_scheme.cache_clear()
    assert all(r.passed for r in results)
    names = set(verify.CORPUS + verify.PSEUDOFROBENIUS) | {"ea-3-2-full"}
    assert info.misses == info.currsize == len(names) == 23
    assert info.hits >= 20
    assert builds.count("frobenius_scheme") == 7 and builds.count("spread_scheme") == 3
    assert len(tensors) == len({id(s) for s in tensors}) >= len(names)
