"""Command line interface: exit codes, JSON reports, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pfscheme.circulants import CirculantSpec, circulant_from_connection, color_matrix, frobenius_circulant
from pfscheme import cli
from pfscheme.catalog import cyclic_unit_spec, scalar_spec
from pfscheme.cli import _emit, main
from pfscheme.frobenius import CyclicFactor, FrobeniusSpec, build_frobenius
from pfscheme.scheme import Scheme, frobenius_scheme, from_orbitals
from pfscheme.spreads import desarguesian_spread, hall_spread, spread_scheme
import corpus


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


@pytest.mark.parametrize("argv, target", [
    (["frobenius", "--cyclic", "9,8"], "missing/x.json"),
    (["circulant", "--n", "5"], "."),
], ids=["missing-directory", "a-directory"])
def test_gen_to_an_unwritable_path_exits_2_with_one_line(tmp_path, capsys, argv, target):
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, "gen", *argv, "--out", path)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: cannot write %s: " % path)
    assert "Traceback" not in err


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


def test_check_schurity_on_a_large_complete_scheme(tmp_path, capsys):
    # rank 2: the group is S_80, generated by (0 1) and the 80-cycle
    n = 80
    k80 = tmp_path / "k80.json"
    k80.write_text(json.dumps({"colors": [[int(i != j) for j in range(n)] for i in range(n)]}))
    code, out, _ = run_cli(capsys, "check", "schurity", "--scheme", str(k80))
    assert code == 0
    rep = json.loads(out)
    assert rep["schurian"] and rep["orbital_scheme_equal"]
    assert rep["group_order"] == math.factorial(n)


def test_every_command_completes_above_rank_256(tmp_path, capsys):
    # relation indices above 255: the Frobenius scheme of Z_521 with k = 2
    # (rank 261) and the thin scheme of Z_258, which is imprimitive
    z521 = gen_scheme(capsys, tmp_path, "z521.json", "gen", "frobenius", "--cyclic", "521,520")
    assert json.loads(Path(z521).read_text())["rank"] == 261
    f = corpus.write_scheme(tmp_path / "thin258.json", Scheme(corpus.zn_table(258)))
    for argv in (["check", "axioms", "--scheme", f], ["check", "tcond", "--t", "3", "--scheme", f],
                 ["check", "parabolics", "--scheme", f], ["check", "separability", "--scheme", f],
                 ["check", "schurity", "--scheme", f], ["iso", "alg", f, f, "--limit", "1"],
                 ["iso", "induced", f, f]):
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 3, 4) and "Traceback" not in err, (argv, err)
        json.loads(out)


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


COLORS_COMMANDS = [            # read a scheme file: its colours, and each n, rank or star it states
    ("check", "axioms", "--scheme", "{f}"),
    ("check", "tcond", "--scheme", "{f}"),
    ("check", "parabolics", "--scheme", "{f}"),
    ("check", "separability", "--scheme", "{f}"),
    ("check", "schurity", "--scheme", "{f}"),
    ("iso", "alg", "{f}", "{f}"),
    ("iso", "induced", "{f}", "{f}"),
]
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
    "flat colors": {"colors": [1, 2]},
    "non-square colors": {"colors": [[0, 1, 2], [1, 0, 2]]},
    "3-d colors": {"colors": [[[0]]]},
}
BAD_STARS = {
    "star not a list": {"n": 2, "rank": 2, "star": 5, "colors": [[0, 1], [1, 0]]},
    "star not integers": {"n": 2, "rank": 2, "star": ["a", 1], "colors": [[0, 1], [1, 0]]},
    "star of the wrong length": {"n": 2, "rank": 2, "star": [0, 1, 2], "colors": [[0, 1], [1, 0]]},
    # an involution fixing 0, but not the transpose map of the matrix
    "star not the transpose map": {"n": 3, "rank": 3, "star": [0, 2, 1],
                                   "colors": [[0, 1, 1], [1, 0, 2], [1, 2, 0]]},
    "n disagrees with the matrix": {"n": 3, "rank": 2, "star": [0, 1], "colors": [[0, 1], [1, 0]]},
    "rank disagrees with the matrix": {"n": 2, "rank": 3, "star": [0, 1],
                                       "colors": [[0, 1], [1, 0]]},
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
    for table, commands in ((BAD_COLORS, COLORS_COMMANDS), (BAD_STARS, COLORS_COMMANDS),
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


def test_a_star_that_is_not_the_transpose_map_is_named_as_the_fault(tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(BAD_STARS["star not the transpose map"]))
    code, out, err = run_cli(capsys, "check", "tcond", "--scheme", str(path))
    assert (code, out) == (2, "")
    assert err == "error: %s: scheme JSON star field is not the matrix's transpose map\n" % path


# for Z_49 under the unit 18 of order 3 (n 49, rank 17): imprimitive, and
# its star is not the identity
WRONG = {"n": 50, "rank": 18, "star": list(range(17))}
MESSAGES = {"n": "scheme JSON n/rank fields disagree with the matrix",
            "rank": "scheme JSON n/rank fields disagree with the matrix",
            "star": "scheme JSON star field is not the matrix's transpose map"}


def z49_fields(capsys, tmp_path):
    """The colours of `gen frobenius --cyclic 49,18` and the n, rank and
    star it states."""
    gen = json.loads(Path(gen_scheme(capsys, tmp_path, "z49.json", "gen", "frobenius",
                                     "--cyclic", "49,18")).read_text())
    right = {key: gen[key] for key in WRONG}
    assert all(right[key] != WRONG[key] for key in WRONG)
    return gen["colors"], right


def subsets(fields):
    return [kept for k in range(len(fields) + 1) for kept in itertools.combinations(fields, k)]


def run_on_file(capsys, path, argv, colors, fields):
    """The run of a command on a file in `gen`'s layout with these fields."""
    _emit({"colors": colors, **fields}, "json", str(path), rows="colors")
    return run_cli(capsys, *(a.format(f=path) for a in argv))


@pytest.mark.parametrize("field", WRONG)
@pytest.mark.parametrize("argv", COLORS_COMMANDS,
                         ids=["-".join(argv[:2]) for argv in COLORS_COMMANDS])
def test_a_stated_field_unlike_the_matrix_exits_2_on_every_command(tmp_path, capsys, argv, field):
    colors, right = z49_fields(capsys, tmp_path)
    path = tmp_path / "input.json"
    for kept in subsets([key for key in WRONG if key != field]):
        fields = {**{key: right[key] for key in kept}, field: WRONG[field]}
        assert run_on_file(capsys, path, argv, colors, fields) \
            == (2, "", "error: %s: %s\n" % (path, MESSAGES[field])), kept


@pytest.mark.parametrize("argv", COLORS_COMMANDS,
                         ids=["-".join(argv[:2]) for argv in COLORS_COMMANDS])
def test_a_file_stating_right_fields_runs_as_its_colours_alone(tmp_path, capsys, argv):
    # star and rank without n among them; none is required
    colors, right = z49_fields(capsys, tmp_path)
    path = tmp_path / "input.json"
    alone = run_on_file(capsys, path, argv, colors, {})
    assert alone[0] == 0 and alone[2] == ""
    for kept in subsets(list(WRONG)):
        assert run_on_file(capsys, path, argv, colors, {key: right[key] for key in kept}) \
            == alone, kept


INCOHERENT_EXIT = {"check-axioms": 3, "check-tcond": 3, "check-schurity": 3,
                   "check-parabolics": 2, "check-separability": 2,
                   "iso-alg": 2, "iso-induced": 2}


# each command on the incoherent file {f}, and the iso commands with the
# file as one side and Hall q = 9, {h}, as the other
INCOHERENT_COMMANDS = [("-".join(argv[:2]), argv) for argv in COLORS_COMMANDS] + [
    ("iso-%s-incoherent-%s" % (level, side), ("iso", level, *files))
    for level in ("alg", "induced")
    for side, files in (("source", ("{f}", "{h}")), ("target", ("{h}", "{f}")))]


@pytest.mark.parametrize("name, argv", INCOHERENT_COMMANDS,
                         ids=[name for name, _ in INCOHERENT_COMMANDS])
def test_incoherent_scheme_exit_codes(tmp_path, capsys, name, argv):
    # a check that certifies the failure reports it (exit 3); a command that
    # needs a coherent scheme gives a one-line input error (exit 2) that
    # names the incoherent file, as source or as target
    path = tmp_path / "incoherent.json"
    # Hall q=9 with the colours of (1, 2) and (1, 9) swapped, and of their
    # transposes: a valid scheme file whose colouring is not coherent
    corpus.write_scheme(path, corpus.scheme("hall9-swapped"))
    hall9 = corpus.write_scheme(tmp_path / "hall9.json", corpus.scheme("hall9"))
    code, out, err = run_cli(capsys, *(a.format(f=path, h=hall9) for a in argv))
    assert code == INCOHERENT_EXIT["-".join(argv[:2])]
    if code == 2:
        assert out == ""
        assert err.startswith("error: %s: " % path) and err.count("\n") == 1
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
    from pfscheme import verify
    from pfscheme.verify import CriterionResult

    # the handler imports run_all from `verify` when it runs
    monkeypatch.setattr(verify, "run_all", lambda: [
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


def old_layout(payload):
    """The scheme file layout before each colour row got its own line."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def spread_payload(plane):
    scheme = spread_scheme({"hall": hall_spread, "desarguesian": desarguesian_spread}[plane](9))
    return corpus.scheme_document(scheme, plane=plane, fingerprint=scheme.fingerprint())


def frobenius_payload(spec):
    scheme = from_orbitals(build_frobenius(spec))
    return corpus.scheme_document(scheme, valency=scheme.is_equivalenced(),
                                  fingerprint=scheme.fingerprint())


def circulant_payload(circ):
    return {"n": circ.n, "connection": sorted(circ.connection),
            "colors": color_matrix(circ).tolist()}


GEN_PAYLOADS = {                # gen arguments -> the document built from the library
    "spread --q 9 --plane hall": lambda: spread_payload("hall"),
    "spread --q 9 --plane desarguesian": lambda: spread_payload("desarguesian"),
    "frobenius --cyclic 9,8": lambda: frobenius_payload(FrobeniusSpec((CyclicFactor(9, (8,)),), 2)),
    "frobenius --scalar 7": lambda: frobenius_payload(scalar_spec(7)),
    "circulant --n 20 --conn 1,-1": lambda: circulant_payload(circulant_from_connection(20, [1, -1])),
    "circulant --n 63 --units 62 --reps 1":
        lambda: circulant_payload(frobenius_circulant(CirculantSpec(63, (62,), (1,)))),
}


@pytest.mark.parametrize("args", GEN_PAYLOADS)
def test_gen_writes_each_colour_row_on_one_line(tmp_path, capsys, args):
    argv, payload = ["gen", *args.split()], GEN_PAYLOADS[args]()
    path = tmp_path / "scheme.json"
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    # the same document as the old layout, written the same way every time
    assert json.loads(out) == json.loads(old_layout(payload))
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_text() == out
    # the bytes of the document built from the library: for `frobenius`,
    # the orbital route (these two files are the benchmark's `spreads`
    # set-up, whose digest it checks)
    library = tmp_path / "library.json"
    _emit(payload, "json", str(library), rows="colors")
    assert path.read_bytes() == library.read_bytes()
    assert run_cli(capsys, *argv)[1] == out
    # each row on one line; every other key in the old two-space layout
    lines = out.splitlines()
    n = len(payload["colors"])
    assert lines[:2] == ["{", '  "colors": ['] and lines[n + 2] == "  ],"
    assert [json.loads(ln.strip().rstrip(",")) for ln in lines[2:n + 2]] == payload["colors"]
    rest = {k: v for k, v in payload.items() if k != "colors"}
    assert "\n".join(lines[:1] + lines[n + 3:]) + "\n" == old_layout(rest)


def gen_layout_variants(text):
    """A file in `gen`'s layout, and corruptions of it that keep its first
    lines, keyed by name."""
    lines = text.splitlines(keepends=True)
    row = lines[3]                                  # the colours of point 1

    def with_row(new):
        return "".join(lines[:3] + [new] + lines[4:])

    cut = row.index(", ")
    yield "valid", text
    yield "ragged row", with_row(row[:row.rindex(", ")] + "],\n")
    yield "float", with_row(row.replace(", ", ".0, ", 1))
    yield "true", with_row(row[:5] + "true" + row[row.index(","):])
    yield "leading zero", with_row(row.replace(", ", ", 0", 1))
    yield "negative", with_row(row.replace(", ", ", -", 1))
    yield "large value", with_row(row.replace(", ", ", 9999999", 1))
    yield "row split over two lines", with_row(row[:cut + 1] + "\n     " + row[cut + 2:])
    yield "row without its comma", with_row(row.replace("],", "]"))
    yield "extra row", "".join(lines[:3] + [row] + lines[3:])
    yield "missing row", "".join(lines[:3] + lines[4:])
    yield "second colours", text.replace('"n": ', '"colors": [[0]],\n  "n": ', 1)
    yield "trailing garbage", text + "]\n"
    yield "truncated end", text[:len(text) // 2]


@pytest.mark.parametrize("command", [("check", "axioms"), ("check", "tcond", "--t", "3")])
def test_gen_layout_loads_as_json_load_does(tmp_path, capsys, monkeypatch, command):
    text = Path(gen_scheme(capsys, tmp_path, "hall9.json",
                           "gen", "spread", "--q", "9", "--plane", "hall")).read_text()
    path = tmp_path / "variant.json"
    for name, variant in gen_layout_variants(text):
        path.write_text(variant)
        read = cli._read_gen_layout(str(path))
        assert (read is not None) == (name == "valid"), name
        lean = run_cli(capsys, *command, "--scheme", str(path))
        with monkeypatch.context() as m:
            m.setattr(cli, "_read_gen_layout", lambda p: None)       # json.load only
            assert run_cli(capsys, *command, "--scheme", str(path)) == lean, name
    path.write_text(text)
    colors, rest = cli._read_gen_layout(str(path))
    d = json.loads(text)
    assert colors.dtype == np.uint8 and not colors.flags.writeable
    assert colors.tolist() == d.pop("colors") and rest == d


def test_gen_layout_widens_past_one_byte(tmp_path, capsys):
    path = gen_scheme(capsys, tmp_path, "z521.json", "gen", "frobenius", "--cyclic", "521,520")
    colors, rest = cli._read_gen_layout(path)
    assert rest["rank"] == 261 and colors.dtype == np.uint16
    assert colors.tolist() == json.loads(Path(path).read_text())["colors"]


def test_loading_hall25_adds_under_2_mb_above_its_array(tmp_path, capsys):
    path = gen_scheme(capsys, tmp_path, "hall25.json", "gen", "spread", "--q", "25", "--plane", "hall")
    tracemalloc.start()
    try:
        s = cli._load_scheme(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.n == 625 and s.colors.dtype == np.uint8
    assert peak - s.colors.nbytes < 2e6


ROUND_TRIPS = {                 # gen arguments -> the scheme built from the library
    "frobenius --cyclic 9,8": lambda: frobenius_scheme(cyclic_unit_spec(9, 8)),
    "frobenius --cyclic 49,18": lambda: frobenius_scheme(cyclic_unit_spec(49, 18)),
    "frobenius --scalar 7": lambda: frobenius_scheme(scalar_spec(7)),
    "spread --q 9 --plane hall": lambda: spread_scheme(hall_spread(9)),
}


@pytest.mark.parametrize("args", ROUND_TRIPS)
def test_gen_and_load_round_trip_preserves_scheme(tmp_path, capsys, args):
    path = gen_scheme(capsys, tmp_path, "scheme.json", "gen", *args.split())
    s, loaded = ROUND_TRIPS[args](), cli._load_scheme(path)
    assert np.array_equal(loaded.colors, s.colors) and loaded.colors.dtype == s.colors.dtype
    assert loaded.star == s.star
    assert s.radices is not None and loaded.radices == s.radices


def test_scheme_json_colors_are_plain_ints(capsys):
    # `gen` writes the uint8 array's rows as JSON integers
    code, out, _ = run_cli(capsys, "gen", "spread", "--q", "9", "--plane", "hall")
    colors = json.loads(out)["colors"]
    assert code == 0 and colors == corpus.scheme("hall9").colors.tolist()
    assert all(type(row) is list for row in colors)
    assert {type(x) for row in colors for x in row} == {int}


HALL9_REPORTS = [
    ("check", "axioms", "--scheme", "{f}"),
    ("check", "tcond", "--t", "4", "--scheme", "{f}"),
    ("check", "parabolics", "--scheme", "{f}"),
    ("check", "schurity", "--scheme", "{f}"),
    ("iso", "alg", "{f}", "{f}", "--limit", "1"),
    ("iso", "induced", "{f}", "{f}"),
]


def test_old_and_new_scheme_layouts_give_the_same_reports(tmp_path, capsys):
    new = gen_scheme(capsys, tmp_path, "hall9.json", "gen", "spread", "--q", "9", "--plane", "hall")
    old = tmp_path / "hall9-old.json"
    old.write_text(old_layout(json.loads(Path(new).read_text())))
    assert old.stat().st_size > 2 * Path(new).stat().st_size
    for argv in HALL9_REPORTS:
        reports = [run_cli(capsys, *(a.format(f=f) for a in argv)) for f in (new, old)]
        assert reports[0] == reports[1], argv
        assert reports[0][1].startswith("{\n")


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
    from pfscheme import verify
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

    monkeypatch.setattr(verify, "run_all", lambda: [
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


_LEAN_START = """
import contextlib, io, json, sys
import numpy
from pfscheme import cli, verify
loaded = lambda names: [m for m in names if m in sys.modules]
after_import = loaded(("dataclasses", "hashlib", "_hashlib"))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["classify", "wl", "--n", "81", "--conn", "1,-1"])
print(json.dumps([after_import, code, loaded(("numpy.ma", "_hashlib"))]))
"""


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def _fresh_process(script: str, cwd=None, argv=()):
    """The JSON that `script` prints, run in a new interpreter on src/."""
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_src_env(), cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_a_classify_wl_process_loads_only_code_that_runs():
    """Records are compiled with their modules (no `dataclasses`), hashlib
    is never imported, and no plain `np.unique` pulls in `numpy.ma`, so a
    `classify wl` process loads none of them."""
    assert _fresh_process(_LEAN_START) == [[], 0, []]


_EXECUTED = """
import contextlib, io, json, sys, types
import numpy
from pfscheme import cli, verify
# a lazily registered module that has not run is of a ModuleType subclass
executed = lambda: sorted(name.split(".", 1)[1] for name, m in sys.modules.items()
                          if name.startswith("pfscheme.") and type(m) is types.ModuleType)
after_import = executed()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([after_import, code, executed()]))
"""


def test_a_process_runs_only_the_modules_of_its_command(tmp_path, capsys):
    hall9 = gen_scheme(capsys, tmp_path, "hall9.json", "gen", "spread", "--q", "9",
                       "--plane", "hall")
    assert _fresh_process(_EXECUTED, argv=["check", "tcond", "--t", "4", "--scheme", hall9]) \
        == [["cli"], 3, ["arith", "cli", "scheme", "tcond"]]
    after_import, code, executed = _fresh_process(
        _EXECUTED, argv=["classify", "wl", "--n", "81", "--conn", "1,-1"])
    assert (after_import, code) == (["cli"], 0)
    assert "wldim" in executed
    assert not {"algiso", "gf", "spreads", "tcond", "verify", "catalog",
                "frobenius"} & set(executed)
    # a spread is built from a field and a difference table: no Frobenius
    # spec, and so no subgroup lattice
    after_import, code, executed = _fresh_process(
        _EXECUTED, argv=["gen", "spread", "--q", "9", "--plane", "hall",
                         "--out", str(tmp_path / "hall9-again.json")])
    assert (after_import, code) == (["cli"], 0)
    assert executed == ["arith", "cli", "gf", "scheme", "spreads"]
    # a scheme's parabolics need no Frobenius spec
    assert _fresh_process(_EXECUTED, argv=["check", "parabolics", "--scheme", hall9]) \
        == [["cli"], 0, ["arith", "cli", "lattice", "parabolic", "scheme"]]
    # schemes are built from tables: no command runs the permutation groups
    for argv in (["gen", "frobenius", "--cyclic", "9,8", "--out", str(tmp_path / "z9.json")],
                 ["classify", "thm2", "--cyclic", "105,104"], ["verify-paper"]):
        after_import, code, executed = _fresh_process(_EXECUTED, argv=argv)
        assert (after_import, code) == (["cli"], 0), argv
        assert "frobenius" in executed and "perms" not in executed, argv
        # a cyclic spec comes from `catalog`, whose scalar factors alone need `gf`
        if "--cyclic" in argv:
            assert "catalog" in executed and "gf" not in executed, argv


# the names the package re-exports, by module
EXPORTS = {
    "arith": ["divisors", "factorize", "is_prime", "mult_order", "prime_power"],
    "perms": ["Permutation", "PermGroup"],
    "scheme": ["Scheme", "SchemeError", "NotCoherentError", "IntersectionTensor",
               "compute_tensor", "canonical_relabel", "partition_equal", "from_orbitals",
               "frobenius_scheme", "wl_closure"],
    "gf": ["GF", "FiniteField"],
    "frobenius": ["FrobeniusError", "CyclicFactor", "ElementaryAbelianFactor",
                  "FrobeniusSpec", "build_frobenius", "InvariantLattice",
                  "invariant_lattice", "PrincipalSection", "principal_sections",
                  "ClassificationProfile", "thm2_profile"],
    "parabolic": ["Parabolic", "parabolic_closure", "enumerate_parabolics",
                  "DivideRecord", "divide_check", "indistinguishing_number",
                  "SeparabilityVerdict", "separability_verdict"],
    "tcond": ["TConditionWitness", "TConditionReport", "check_t_condition",
              "four_condition_frobenius_verdict"],
    "algiso": ["RelationBijection", "find_algebraic_isomorphisms", "BaseTriple",
               "CoordinateMap", "base_coordinates", "InducedIsomorphism",
               "induced_isomorphism", "SchurityResult", "schurity_via_base_triples"],
    "spreads": ["Spread", "verify_spread", "desarguesian_spread", "hall_spread",
                "spread_scheme"],
    "catalog": ["scalar_spec"],
    "circulants": ["CirculantSpec", "Circulant", "frobenius_circulant",
                   "circulant_from_connection", "color_matrix", "preserving_units",
                   "certificate_unit_groups"],
    "autgrp": ["FrobeniusCertificate", "frobenius_certificate", "automorphism_stabilizer"],
    "wldim": ["ExceptionCheck", "exception_check", "exception_set_crosscheck",
              "FrobeniusScreen", "frobenius_screen", "WlVerdict", "dimwl_verdict"],
}


def test_the_package_serves_every_re_exported_name():
    import importlib

    import pfscheme

    star: dict = {}
    exec("from pfscheme import *", star)
    names = [(module, name) for module, names in EXPORTS.items() for name in names]
    assert len(names) == 74
    for module, name in names:
        assert getattr(pfscheme, name) is getattr(importlib.import_module(
            "pfscheme." + module), name), name
        assert name in dir(pfscheme) and star[name] is getattr(pfscheme, name), name
    with pytest.raises(AttributeError):
        pfscheme.no_such_name


def test_module_entry_point_writes_nothing_to_stderr(tmp_path, capsys):
    # runpy warns, and runs the module twice, when `pfscheme.cli` is
    # already in sys.modules before it runs as __main__
    hall9 = gen_scheme(capsys, tmp_path, "hall9.json", "gen", "spread", "--q", "9",
                       "--plane", "hall")
    proc = subprocess.run([sys.executable, "-m", "pfscheme.cli", "check", "axioms",
                           "--scheme", hall9], env=_src_env(),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["passed"]


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    from pfscheme import wldim

    def too_large(circ):
        raise MemoryError("Unable to allocate 5.96 GiB for an array")

    monkeypatch.setattr(wldim, "dimwl_verdict", too_large)
    code, out, err = run_cli(capsys, "classify", "wl", "--n", "40000", "--conn", "1,-1")
    assert (code, out) == (2, "")
    assert err == "error: out of memory: Unable to allocate 5.96 GiB for an array\n"


_NO_OPENSSL = """
import contextlib, io, json, sys
from pfscheme import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["gen", "spread", "--q", "9", "--plane", "hall", "--out", "hall9.json"]),
             cli.main(["check", "tcond", "--t", "4", "--scheme", "hall9.json"])]
print(json.dumps([codes, [m for m in ("hashlib", "_hashlib") if m in sys.modules]]))
"""


def test_fingerprinting_processes_do_not_load_openssl(tmp_path):
    """blake2b comes from `_blake2`, so `gen` and `check tcond`, which
    fingerprint, never import hashlib and its OpenSSL module `_hashlib`."""
    assert _fresh_process(_NO_OPENSSL, cwd=tmp_path) == [[0, 3], []]


def _perfbench_spans(tmp_path, *argv):
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    meta, spans = tmp_path / "meta.json", tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(child), str(meta), "--trace", str(spans),
                           "--cli", *argv],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(spans.read_text())
    assert traced["missing"] == []
    assert not [span for span in traced["spans"] if "count_errors" in (span[4] or {})]
    return {span[0] for span in traced["spans"]}


def test_perfbench_traces_every_entry_point(tmp_path):
    # The benchmark wraps named entry points and reads counts off their
    # return values (compute_tensor's `n`, for one); a renamed function or
    # a changed return type shows up here as `missing` or `count_errors`.
    names = _perfbench_spans(tmp_path, "classify", "wl", "--n", "81", "--conn", "1,-1")
    assert {"cli.main", "scheme.compute_tensor", "wldim.dimwl_verdict"} <= names


_TRACED_ORBITALS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from layers import Tracer
from pfscheme import catalog, cli, frobenius, scheme     # cli.main is a target too
tracer = Tracer()
tracer.install()
scheme.from_orbitals(frobenius.build_frobenius(catalog.scalar_spec(7)))
print(json.dumps([tracer.missing, [[s[0], s[4]] for s in tracer.spans]]))
"""


def test_perfbench_traces_orbitals():
    # No command builds a permutation group, so the traced reference route
    # runs here; `pairs` is read as len() of the orbital labels.
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    missing, spans = _fresh_process(_TRACED_ORBITALS, argv=[str(perfbench)])
    assert missing == []
    assert ["perms.PermGroup.orbitals", {"pairs": 2401}] in spans
    assert {"frobenius.build_frobenius", "scheme.from_orbitals"} <= {name for name, _ in spans}
    assert not [counts for _, counts in spans if "count_errors" in (counts or {})]


@pytest.mark.parametrize("level", ["alg", "induced"])
def test_iso_on_one_file_builds_one_tensor(tmp_path, capsys, monkeypatch, level):
    from pfscheme import scheme as scheme_module

    z9 = gen_scheme(capsys, tmp_path, "z9.json", "gen", "frobenius", "--cyclic", "9,8")
    twin = tmp_path / "twin.json"
    twin.write_bytes(Path(z9).read_bytes())
    built = []

    def counted(s):
        built.append(s)
        return tensor(s)

    tensor = scheme_module.compute_tensor
    monkeypatch.setattr(scheme_module, "compute_tensor", counted)
    same = run_cli(capsys, "iso", level, z9, z9)
    assert len(built) == 1
    two = run_cli(capsys, "iso", level, z9, str(twin))
    assert len(built) == 3
    assert same == two and same[0] == 0


def test_lattices_past_the_member_bound_exit_2(tmp_path, capsys, monkeypatch):
    from pfscheme import lattice

    f32 = gen_scheme(capsys, tmp_path, "f32.json", "gen", "frobenius", "--scalar", "3,2")
    monkeypatch.setattr(lattice, "MAX_MEMBERS", 5)      # the lattice has 6 members
    for argv in (["check", "separability", "--scheme", f32],
                 ["check", "parabolics", "--scheme", f32],
                 ["iso", "induced", f32, f32]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "more than 5 members" in err, argv


def test_specs_past_the_table_bound_exit_2(tmp_path, capsys, monkeypatch):
    from pfscheme import frobenius

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scalar_spec(3, 2).to_json_dict()))
    monkeypatch.setattr(frobenius, "MAX_TABLE_ENTRIES", 17)    # k n = 2 * 9
    monkeypatch.setattr(frobenius, "_generator_tables", lambda spec: pytest.fail("table built"))
    for argv in (["classify", "thm2", "--scalar", "3,2"],
                 ["gen", "frobenius", "--scalar", "3,2"],
                 ["check", "separability", "--spec", str(spec)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "spec too large" in err and "more than 17" in err, argv


def test_a_spec_is_classified_without_its_lattice(tmp_path, capsys, monkeypatch):
    # the profile and the separability verdict of a spec read one invariant
    # chain, so the member bound does not apply to them
    from pfscheme import lattice

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(scalar_spec(3, 2).to_json_dict()))
    argvs = (["classify", "thm2", "--scalar", "3,2"],
             ["check", "separability", "--spec", str(spec)])
    unbounded = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(lattice, "MAX_MEMBERS", 5)      # the lattice has 6 members
    for argv, (code, out, err) in zip(argvs, unbounded):
        assert (code, err) == (0, ""), argv
        assert run_cli(capsys, *argv) == (code, out, err), argv
