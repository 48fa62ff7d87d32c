"""Command line interface: exit codes, JSON reports, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from pfscheme.cli import main
from pfscheme.spreads import hall_spread, spread_scheme


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def gen_scheme(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, _, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 0, err
    return str(path)


def test_gen_and_check_axioms(tmp_path, capsys):
    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    code, out, _ = run_cli(capsys, "check", "axioms", "--scheme", z9)
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] and rep["n"] == 9 and rep["rank"] == 5
    assert rep["valencies"] == [1, 2, 2, 2, 2]


def test_check_axioms_rejects_broken_coloring(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # path P_4: star-closed but not coherent
    colors = [[0, 1, 2, 2], [1, 0, 1, 2], [2, 1, 0, 1], [2, 2, 1, 0]]
    bad.write_text(json.dumps({"colors": colors}))
    code, out, _ = run_cli(capsys, "check", "axioms", "--scheme", str(bad))
    assert code == 3
    assert not json.loads(out)["passed"]


def test_input_error_paths(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "axioms", "--scheme",
                           str(tmp_path / "missing.json"))
    assert code == 2
    assert "missing.json" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    code, _, err = run_cli(capsys, "check", "axioms", "--scheme", str(garbled))
    assert code == 2
    # FPF violation in gen frobenius is an input error
    code, _, err = run_cli(capsys, "gen", "frobenius", "--cyclic", "15,4")
    assert code == 2
    assert "fixes" in err


def test_check_tcond_passes_on_frobenius_scheme(tmp_path, capsys):
    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    code, out, _ = run_cli(capsys, "check", "tcond", "--t", "4", "--scheme", z9)
    assert code == 0
    assert json.loads(out)["passed"]


def test_spread_pair_tcond_and_iso(tmp_path, capsys):
    desarg = gen_scheme(capsys, tmp_path, "desarg81.json",
                        "gen", "spread", "--q", "9")
    hall = gen_scheme(capsys, tmp_path, "hall81.json",
                      "gen", "spread", "--q", "9", "--plane", "hall")

    code, out, _ = run_cli(capsys, "iso", "alg", desarg, hall, "--limit", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["count"] == 1
    assert rep["mappings"]

    code, out, _ = run_cli(capsys, "check", "tcond", "--scheme", hall, "--t", "4")
    assert code == 3
    rep = json.loads(out)
    assert not rep["passed"]
    assert rep["witness"]["pattern"] == {
        "alpha_g3": 2, "beta_g3": 3, "alpha_g4": 3, "beta_g4": 5, "g3_g4": 7}

    code, out, _ = run_cli(capsys, "check", "tcond", "--scheme", desarg, "--t", "4")
    assert code == 0


def test_iso_alg_no_isomorphism(tmp_path, capsys):
    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    z15 = gen_scheme(capsys, tmp_path, "z15.json",
                     "gen", "frobenius", "--cyclic", "15,14")
    code, out, _ = run_cli(capsys, "iso", "alg", z9, z15)
    assert code == 3
    assert json.loads(out)["count"] == 0


def test_iso_induced_identity_and_seed(tmp_path, capsys):
    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    code, out1, _ = run_cli(capsys, "iso", "induced", z9, z9)
    assert code == 0
    rep = json.loads(out1)
    assert rep["induced"] and sorted(rep["g"]) == list(range(9))
    # a fixed seed reorders the scan deterministically
    code, out2, _ = run_cli(capsys, "--seed", "5", "iso", "induced", z9, z9)
    assert code == 0
    code, out3, _ = run_cli(capsys, "--seed", "5", "iso", "induced", z9, z9)
    assert out2 == out3
    assert json.loads(out2)["induced"]
    # the global option is also accepted after the subcommand
    code, out4, _ = run_cli(capsys, "iso", "induced", z9, z9, "--seed", "5")
    assert code == 0 and out4 == out2


def test_check_schurity_and_parabolics(tmp_path, capsys):
    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    code, out, _ = run_cli(capsys, "check", "schurity", "--scheme", z9)
    assert code == 0
    rep = json.loads(out)
    assert rep["schurian"] and rep["group_order"] == 18

    code, out, _ = run_cli(capsys, "check", "parabolics", "--scheme", z9)
    assert code == 0
    rep = json.loads(out)
    assert [e["block_size"] for e in rep["parabolics"]] == [1, 3, 9]
    assert rep["valency"] == 2
    assert rep["indistinguishing"] == 1
    assert all(r["ok"] for r in rep["divide"])


def test_check_separability_verdicts(tmp_path, capsys):
    code, _, err = run_cli(capsys, "check", "separability")
    assert code == 2
    assert "--scheme" in err

    spec9 = tmp_path / "spec9.json"
    spec9.write_text(json.dumps(
        {"kernel": [{"cyclic": 9, "units": [8]}], "complement_order": 2}))
    code, out, _ = run_cli(capsys, "check", "separability", "--spec", str(spec9))
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "separable" and rep["reason"] == "bound"

    spec65 = tmp_path / "spec65.json"
    spec65.write_text(json.dumps(
        {"kernel": [{"cyclic": 65, "units": [57]}], "complement_order": 4}))
    code, out, _ = run_cli(capsys, "check", "separability", "--spec", str(spec65))
    assert code == 4
    assert json.loads(out)["verdict"] == "undecided"


@pytest.mark.parametrize("spec", [
    {"kernel": [{"cyclic": 9, "units": [3]}], "complement_order": 2},    # 3 is no unit
    {"kernel": [{"cyclic": 9, "units": [8]}]},                           # no complement_order
    {"kernel": [{"elem_abelian": [3, 1], "matrices": [[[2]]]}],          # primitive
     "complement_order": 2},
])
def test_check_separability_bad_spec_is_an_input_error(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "check", "separability", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


SCHEME_COMMANDS = [            # read a whole scheme file (colors, star, n, rank)
    ("check", "tcond", "--scheme", "{f}"),
    ("check", "parabolics", "--scheme", "{f}"),
    ("check", "separability", "--scheme", "{f}"),
    ("check", "schurity", "--scheme", "{f}"),
    ("iso", "alg", "{f}", "{f}"),
    ("iso", "induced", "{f}", "{f}"),
]
COLORS_COMMANDS = [("check", "axioms", "--scheme", "{f}")] + SCHEME_COMMANDS
SPEC_COMMANDS = [
    ("check", "separability", "--spec", "{f}"),
    ("classify", "thm2", "--spec", "{f}"),
    ("gen", "frobenius", "--spec", "{f}"),
]
MISSING, GARBLED = object(), "{not json"
BAD_COLORS = {
    "missing file": MISSING,
    "invalid JSON": GARBLED,
    "not an object": [[0, 1], [1, 0]],
    "no colors": {"n": 2},
    "ragged colors": {"colors": [[0, 1], [1]]},
    "non-integer colors": {"colors": [[0, 1.5], [1.5, 0]]},
    "string colors": {"colors": [["0", "1"], ["1", "0"]]},
}
BAD_STARS = {
    "star not a list": {"n": 2, "rank": 2, "star": 5, "colors": [[0, 1], [1, 0]]},
    "star not integers": {"n": 2, "rank": 2, "star": ["a", 1], "colors": [[0, 1], [1, 0]]},
}
BAD_SPECS = {
    "missing file": MISSING,
    "invalid JSON": GARBLED,
    "not an object": [{"cyclic": 9, "units": [8]}],
    "kernel not a list": {"kernel": 5, "complement_order": 2},
    "factor not an object": {"kernel": [5], "complement_order": 2},
    "complement_order not an integer": {"kernel": [{"cyclic": 9, "units": [8]}],
                                        "complement_order": "2"},
    "units not integers": {"kernel": [{"cyclic": 9, "units": "8"}], "complement_order": 2},
    "matrices not integers": {"kernel": [{"elem_abelian": [3, 2], "matrices": [[["2", 0], [0, 2]]]}],
                              "complement_order": 2},
    "non-unit": {"kernel": [{"cyclic": 9, "units": [3]}], "complement_order": 2},
}


def bad_input_cases():
    for table, commands in ((BAD_COLORS, COLORS_COMMANDS), (BAD_STARS, SCHEME_COMMANDS),
                            (BAD_SPECS, SPEC_COMMANDS)):
        for name, content in table.items():
            for argv in commands:
                yield pytest.param(argv, content, id="%s-%s" % ("-".join(argv[:2]), name))


@pytest.mark.parametrize("argv, content", bad_input_cases())
def test_malformed_input_exits_2_with_one_line(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if content is not MISSING:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, err = run_cli(capsys, *(a.format(f=path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def incoherent_hall9():
    """Hall q=9 with the colours of (1, 2) and (1, 9) swapped, and of their
    transposes: a valid scheme file whose colouring is not coherent."""
    d = spread_scheme(hall_spread(9)).to_json_dict()
    c = d["colors"]
    c[1][2], c[1][9] = c[1][9], c[1][2]
    c[2][1], c[9][1] = c[9][1], c[2][1]
    return d


INCOHERENT_EXIT = {"check-axioms": 3, "check-tcond": 3, "check-schurity": 3,
                   "check-parabolics": 2, "check-separability": 2,
                   "iso-alg": 2, "iso-induced": 2}


@pytest.mark.parametrize("argv", COLORS_COMMANDS,
                         ids=["-".join(argv[:2]) for argv in COLORS_COMMANDS])
def test_incoherent_scheme_exit_codes(tmp_path, capsys, argv):
    # a check that certifies the failure reports it (exit 3); a command that
    # needs a coherent scheme gives a one-line input error (exit 2)
    path = tmp_path / "incoherent.json"
    path.write_text(json.dumps(incoherent_hall9()))
    code, out, err = run_cli(capsys, *(a.format(f=path) for a in argv))
    assert code == INCOHERENT_EXIT["-".join(argv[:2])]
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert json.loads(out)
        assert err == ""


@pytest.mark.parametrize("argv", [
    ("classify", "wl", "--n", "0", "--conn", "1"),
    ("classify", "wl", "--n", "-5", "--conn", "1"),
    ("classify", "wl", "--n", "1"),
    ("gen", "circulant", "--n", "0", "--conn", "1"),
], ids=["wl-n0", "wl-n-5", "wl-n1", "gen-n0"])
def test_circulant_order_below_2_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: need n >= 2\n"


@pytest.mark.parametrize("mapping", [5, ["0"], [0, None], [True, 1]])
def test_iso_induced_malformed_psi_exits_2(tmp_path, capsys, mapping):
    z9 = gen_scheme(capsys, tmp_path, "z9.json", "gen", "frobenius", "--cyclic", "9,8")
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"mapping": mapping}))
    code, out, err = run_cli(capsys, "iso", "induced", z9, z9, "--psi", str(psi))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_paper_json_stdout_is_one_document(capsys, monkeypatch):
    from pfscheme import cli
    from pfscheme.verify import CriterionResult

    monkeypatch.setattr(cli, "run_all", lambda: [
        CriterionResult(1, "first", True, {"k": 1}, 0.5),
        CriterionResult(2, "second", False, {}, 0.3)])
    code, out, err = run_cli(capsys, "verify-paper")
    assert code == 3
    doc = json.loads(out)
    assert [c["passed"] for c in doc["criteria"]] == [True, False]
    assert not doc["all_passed"]
    assert "criterion 2 (second): FAIL" in err
    code, out, _ = run_cli(capsys, "--format", "text", "verify-paper")
    assert code == 3
    assert out.splitlines() == ["criterion 1 (first): PASS (0.5s)",
                                "criterion 2 (second): FAIL (0.3s)"]


@pytest.mark.parametrize("argv", [
    ("classify", "thm2", "--scalar", "1"),
    ("classify", "thm2", "--scalar", "0"),
    ("classify", "thm2", "--scalar", "6"),          # not a prime power
    ("classify", "thm2", "--scalar", ","),          # no value at all
    ("gen", "frobenius", "--scalar", "2"),
    ("check", "separability", "--scheme", "{hall9}", "--k", "0"),
    ("check", "separability", "--scheme", "{hall9}", "--k", "-3"),
    ("iso", "alg", "{hall9}", "{hall9}", "--limit", "0"),
    ("iso", "alg", "{hall9}", "{hall9}", "--limit", "-1"),
], ids=["thm2-q1", "thm2-q0", "thm2-q6", "thm2-empty", "gen-q2", "separability-k0",
        "separability-k-3", "iso-alg-limit0", "iso-alg-limit-1"])
def test_bad_argument_value_exits_2(tmp_path, capsys, argv):
    hall9 = gen_scheme(capsys, tmp_path, "hall9.json",
                       "gen", "spread", "--q", "9", "--plane", "hall")
    code, out, err = run_cli(capsys, *(a.format(hall9=hall9) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_thm2(capsys):
    code, out, _ = run_cli(capsys, "classify", "thm2", "--cyclic", "105,104")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "excluded"
    assert (len(rep["pi"]), rep["d"]) == (3, 3)

    code, out, _ = run_cli(capsys, "classify", "thm2", "--cyclic", "9,8")
    assert code == 0
    assert json.loads(out)["verdict"] == "open"


def test_classify_wl_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "classify", "wl", "--n", "63",
                           "--conn", "1,-1")
    assert code == 4
    assert json.loads(out)["verdict"] == "ExceptionUnresolved"

    code, out, _ = run_cli(capsys, "classify", "wl", "--n", "81",
                           "--conn", "1,-1")
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "Exactly2" and rep["group_order"] == 162

    code, out, _ = run_cli(capsys, "classify", "wl", "--n", "6",
                           "--conn", "1,2,3,4,5")
    assert code == 3
    assert json.loads(out)["verdict"] == "NotFrobeniusCertified"


def test_classify_wl_above_the_search_limit_is_unresolved(capsys):
    # prime n = 263 > SEARCH_LIMIT: no construction certificate, no search
    code, out, _ = run_cli(capsys, "classify", "wl", "--n", "263", "--conn", "1,-1")
    assert code == 4
    rep = json.loads(out)
    assert rep["verdict"] == "NotFrobeniusCertified"
    assert "search_limited" not in rep


def test_classify_wl_prime_within_the_search_limit(capsys):
    # the translation certificate proves transitivity, so only the point
    # stabilizer is searched
    code, out, _ = run_cli(capsys, "classify", "wl", "--n", "251", "--conn", "1,-1")
    assert code == 4
    rep = json.loads(out)
    assert rep["verdict"] == "ExceptionUnresolved"
    assert rep["certification"] == "search"
    assert rep["group_order"] == 502


def test_gen_circulant_coloring(tmp_path, capsys):
    path = gen_scheme(capsys, tmp_path, "c63.json",
                      "gen", "circulant", "--n", "63", "--units", "62",
                      "--reps", "1")
    d = json.loads(open(path).read())
    assert d["n"] == 63
    assert d["connection"] == [1, 62]
    assert len(d["colors"]) == 63


def test_tcond_reports_are_byte_identical_across_runs(tmp_path, capsys):
    hall = gen_scheme(capsys, tmp_path, "hall81.json",
                      "gen", "spread", "--q", "9", "--plane", "hall")
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "check", "tcond", "--scheme", hall, "--t", "4")
        assert code == 3
        outs.append(out)
    assert outs[0] == outs[1]


def test_text_format(tmp_path, capsys):
    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    code, out, _ = run_cli(capsys, "--format", "text", "check", "axioms",
                           "--scheme", z9)
    assert code == 0
    assert "passed: True" in out
    assert "{" not in out.splitlines()[0]


def test_global_options_before_and_after_the_subcommand(tmp_path, capsys, monkeypatch):
    from pfscheme import cli
    from pfscheme.verify import CriterionResult

    z9 = gen_scheme(capsys, tmp_path, "z9.json",
                    "gen", "frobenius", "--cyclic", "9,8")
    axioms = ("check", "axioms", "--scheme", z9)
    _, default, _ = run_cli(capsys, *axioms)
    _, before, _ = run_cli(capsys, "--format", "text", *axioms)
    _, after, _ = run_cli(capsys, *axioms, "--format", "text")
    _, middle, _ = run_cli(capsys, "check", "--format", "text", *axioms[1:])
    assert json.loads(default)["passed"]
    assert before == after == middle != default
    # the later position wins; an absent option keeps the earlier value
    _, last, _ = run_cli(capsys, "--format", "text", *axioms, "--format", "json")
    assert last == default

    monkeypatch.setattr(cli, "run_all", lambda: [
        CriterionResult(1, "first", True, {"k": 1}, 0.5)])
    for argv in (("--format", "text", "verify-paper"),
                 ("verify-paper", "--format", "text")):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == "criterion 1 (first): PASS (0.5s)\n"
    code, out, _ = run_cli(capsys, "verify-paper", "--format", "json")
    assert code == 0 and json.loads(out)["all_passed"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "pfscheme.cli", "classify", "thm2",
         "--cyclic", "9,8"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "open"


def test_perfbench_traces_every_entry_point(tmp_path):
    # The benchmark wraps named entry points and reads counts off their
    # return values (compute_tensor's `n`, for one); a renamed function or
    # a changed return type shows up here as `missing` or `count_errors`.
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    meta, spans = tmp_path / "meta.json", tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(child), str(meta), "--trace", str(spans),
                           "--cli", "classify", "wl", "--n", "81", "--conn", "1,-1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())
    assert traced["missing"] == []
    names = {span[0] for span in traced["spans"]}
    assert {"cli.main", "scheme.compute_tensor", "wldim.dimwl_verdict"} <= names
    assert not [span for span in traced["spans"] if "count_errors" in (span[4] or {})]
