"""t-condition checks: t = 3 always passes on coherent input, t = 4 separates."""

import json
import tracemalloc

import numpy as np
import pytest

import pfscheme.scheme as scheme_mod
import pfscheme.tcond as tcond_mod
from pfscheme import cli
from pfscheme.scheme import Scheme
from pfscheme.tcond import check_t_condition, four_condition_frobenius_verdict
import corpus
from corpus import swap_symmetric_pairs, zn_table
from oracles import dense_tensor, reference_fingerprint, reference_t_condition, reference_witness


def test_t3_restates_coherence():
    for s in (corpus.scheme("rook4x4"), corpus.scheme("shrikhande"), corpus.scheme("neg-9")):
        s.tensor()
        rep = check_t_condition(s, 3)
        assert rep.passed
        assert rep.witness is None
        assert rep.pairs_checked == s.n * s.n


def test_rook_and_shrikhande_share_tensor_but_t4_separates():
    rook = corpus.scheme("rook4x4")
    shr = corpus.scheme("shrikhande")
    assert np.array_equal(dense_tensor(rook.tensor()), dense_tensor(shr.tensor()))
    assert check_t_condition(rook, 4).passed
    rep = check_t_condition(shr, 4)
    assert not rep.passed
    assert rep.witness is not None
    w = rep.witness
    # recount the witness pattern by brute force on both pairs
    P = shr.colors
    R = shr.rank
    g3a, g3b, g4a, g4b, g34 = w.pattern
    def count(a, b):
        total = 0
        for c in range(16):
            for d in range(16):
                if (P[a][c] == g3a and P[b][c] == g3b and P[a][d] == g4a
                        and P[b][d] == g4b and P[c][d] == g34):
                    total += 1
        return total
    assert count(w.ref_alpha, w.ref_beta) == w.ref_count
    assert count(w.alpha, w.beta) == w.count
    assert w.ref_count != w.count
    assert P[w.alpha][w.beta] == P[w.ref_alpha][w.ref_beta] == w.color


def test_spread_schemes_frozen_t4_outcomes():
    desarg = corpus.scheme("desarguesian9")
    hall = corpus.scheme("hall9")
    rep_d = check_t_condition(desarg, 4)
    assert rep_d.passed
    rep_h = check_t_condition(hall, 4)
    assert not rep_h.passed
    assert rep_h.witness.pattern_dict() == {
        "alpha_g3": 2, "beta_g3": 3, "alpha_g4": 3, "beta_g4": 5, "g3_g4": 7}
    assert four_condition_frobenius_verdict(rep_d, True) == "frobenius"
    assert four_condition_frobenius_verdict(rep_h, True) == "proper"
    assert four_condition_frobenius_verdict(rep_h, False) == "inapplicable"


def test_verdict_requires_t4_report():
    rep3 = check_t_condition(corpus.scheme("rook4x4"), 3)
    with pytest.raises(ValueError):
        four_condition_frobenius_verdict(rep3, True)


def test_unsupported_t_rejected():
    with pytest.raises(ValueError):
        check_t_condition(corpus.scheme("rook4x4"), 5)


def test_spread_schemes_frozen_q16_t4_outcomes():
    rep_d = check_t_condition(corpus.scheme("desarguesian16"), 4)
    assert rep_d.passed and rep_d.pairs_checked == 256 * 256
    rep_h = check_t_condition(corpus.scheme("hall16"), 4)
    assert not rep_h.passed and rep_h.pairs_checked == 3
    assert rep_h.witness.to_json_dict() == {
        "alpha": 0, "beta": 2, "color": 1, "count": 0,
        "pattern": {"alpha_g3": 2, "alpha_g4": 4, "beta_g3": 3, "beta_g4": 2, "g3_g4": 10},
        "ref_alpha": 0, "ref_beta": 1, "ref_count": 1}


def small_certified_schemes():
    """Certified schemes small enough for a full t = 4 scan."""
    for name in (corpus.names("cycle", "random", max_n=32) + ["hall9"]
                 + ["cycle-graph-%d" % n for n in (6, 9, 16)]):
        yield name, corpus.scheme(name)


def test_certified_row_zero_scan_equals_the_full_scan(monkeypatch):
    schemes = list(small_certified_schemes())

    def reports():
        return scan_reports([(name, Scheme(s.colors)) for name, s in schemes])

    reduced = reports()
    assert failures(reduced) >= 10
    monkeypatch.setattr(scheme_mod, "translation_table", lambda P: None)
    assert reduced == reports()


def test_full_scan_without_a_certificate_finds_the_swap(monkeypatch):
    Q = corpus.scheme("thin12-swapped")
    assert Q.translations is None
    for t in (3, 4):
        rep = check_t_condition(Q, t)
        assert not rep.passed and rep.witness.alpha > 0
        assert rep.pairs_checked > Q.n
    # a forged certificate would scan row 0 alone, where the swap is invisible
    monkeypatch.setattr(scheme_mod, "translation_table", lambda P: zn_table(len(P)))
    for t in (3, 4):
        assert check_t_condition(Scheme(Q.colors), t).passed


def test_pattern_codes_overflow_is_rejected_before_the_scan(monkeypatch, tmp_path, capsys):
    assert tcond_mod._code_dtype(6208, 4) == np.int64
    with pytest.raises(ValueError, match="beyond int64"):
        tcond_mod._code_dtype(6209, 4)
    assert tcond_mod._code_dtype(3037000499, 3) == np.int64
    with pytest.raises(ValueError, match="beyond int64"):
        tcond_mod._code_dtype(3037000500, 3)
    # the CLI turns the error into exit 2 with one stderr line, raised
    # before any pattern code is computed: the rank is read as 6209
    path = tmp_path / "rook.json"
    path.write_text(json.dumps(corpus.scheme("rook4x4").to_json_dict()))
    code_dtype = tcond_mod._code_dtype
    monkeypatch.setattr(tcond_mod, "_code_dtype", lambda R, t: code_dtype(6209, t))
    monkeypatch.setattr(tcond_mod, "_sorted_codes", None)
    assert cli.main(["check", "tcond", "--t", "4", "--scheme", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "int64" in err


def scan_reports(schemes):
    """The kernel's reports at t = 3 and t = 4, each asserted equal to the
    reference's."""
    reports = []
    for name, s in schemes:
        for t in (3, 4):
            got = check_t_condition(s, t).to_json_dict()
            assert got == reference_t_condition(s, t).to_json_dict(), (name, t)
            reports.append(got)
    return reports


def failures(reports):
    return sum(not rep["passed"] for rep in reports)


def perturbed_schemes():
    """Seeded symmetric swaps of cycle closures and of Hall q = 9."""
    bases = [corpus.scheme(name).colors for name in
             ("cycle12", "cycle17", "cycle24", "cycle30", "cycle45", "hall9")]
    for seed in range(150):
        rng = np.random.default_rng(1000 + seed)
        yield "swap-%d" % seed, swap_symmetric_pairs(bases[seed % len(bases)], rng)


def test_scan_matches_the_reference_on_named_schemes():
    schemes = [("shrikhande", corpus.scheme("shrikhande")), ("rook", corpus.scheme("rook4x4")),
               ("swapped-z12", corpus.scheme("thin12-swapped"))]
    assert failures(scan_reports(schemes)) >= 3


def test_scan_matches_the_reference_on_perturbed_schemes():
    schemes = list(perturbed_schemes())
    assert len(schemes) >= 150
    assert failures(scan_reports(schemes)) >= 50


def test_scan_matches_the_reference_on_an_uncertified_frobenius_scheme():
    s = Scheme(corpus.scheme("mixed-7-4").colors)        # as loaded from a file
    assert s.translations is None
    got = check_t_condition(s, 3)
    assert got.passed
    assert got.to_json_dict() == reference_t_condition(s, 3).to_json_dict()


def test_witness_matches_the_reference_on_every_deviating_pair():
    checked = 0
    for s in (corpus.scheme("shrikhande"), corpus.scheme("thin12-swapped"), corpus.scheme("hall9")):
        P, R = s.colors, s.rank
        for t in (3, 4):
            refs = {}
            for a in range(min(s.n, 6)):
                for b in range(s.n):
                    codes = tcond_mod._sorted_codes(P, R, a, b, t)
                    ra, rb, ref = refs.setdefault(int(P[a, b]), (a, b, codes))
                    if not np.array_equal(codes, ref):
                        w = tcond_mod._witness(P, R, t, (a, b), (ra, rb), codes, ref)
                        assert (w.code, w.ref_count, w.count) == \
                            reference_witness(s, a, b, ra, rb, t)
                        checked += 1
    assert checked >= 100


def fingerprint_cases():
    """Sorted code arrays: one code, all equal, all distinct, and runs of
    random lengths, so that runs straddle every chunk boundary."""
    rng = np.random.default_rng(7)
    yield np.array([5])
    yield np.full(1000, 42)
    yield np.arange(1000) * 3
    yield np.repeat(np.arange(400), rng.integers(1, 9, 400))
    yield np.sort(rng.integers(0, 50, 3 * tcond_mod._CHUNK + 11))


@pytest.mark.parametrize("chunk", [1, 2, 7, None])
def test_streamed_fingerprint_equals_the_unique_oracle(monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(tcond_mod, "_CHUNK", chunk)
    for codes in fingerprint_cases():
        for dt in (np.int32, np.int64):
            c = codes.astype(dt)
            oracle = reference_fingerprint(*np.unique(c, return_counts=True))
            assert tcond_mod._fingerprint(c) == oracle


def test_fingerprints_of_hall9_are_frozen(tmp_path, capsys):
    s = corpus.scheme("hall9")
    assert s.fingerprint() == "849ac4428e4cbc0738e5c119d82f32a6"
    path = tmp_path / "hall9.json"
    path.write_text(json.dumps(s.to_json_dict()))
    assert cli.main(["check", "tcond", "--t", "4", "--scheme", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["scheme_fingerprint"] == "849ac4428e4cbc0738e5c119d82f32a6"
    assert report["class_fingerprints"] == ["48ad0124b9fe68bf31538f218a7361ad",
                                            "c2d918f0204ec566beac8ff133e226f7"]


def test_int64_pattern_codes_give_the_int32_reports(monkeypatch):
    # ranks up to 73 take int32 codes at t = 4; wider ones take int64
    schemes = [corpus.scheme(name) for name in ("rook4x4", "shrikhande", "hall9", "thin12-swapped")]
    narrow = [check_t_condition(s, t) for s in schemes for t in (3, 4)]
    assert tcond_mod._code_dtype(73, 4) == np.int32 and tcond_mod._code_dtype(74, 4) == np.int64
    monkeypatch.setattr(tcond_mod, "_code_dtype", lambda R, t: np.int64)
    assert narrow == [check_t_condition(s, t) for s in schemes for t in (3, 4)]


def test_t4_scan_of_a_625_point_scheme_holds_two_code_arrays():
    # n = 625: the scan keeps two n^2 code arrays (int32 at rank 27) and
    # the difference table, and allocates no n^2 int64 array besides
    from pfscheme.spreads import hall_spread, spread_scheme

    s = spread_scheme(hall_spread(25))
    n = s.n
    tracemalloc.start()
    try:
        report = check_t_condition(s, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 625 and not report.passed
    assert peak < 2.0 * 8 * n * n
