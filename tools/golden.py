"""Check or rewrite the frozen digests of the CLI's reports.

    python3 tools/golden.py            # compare; exit 1 on any difference
    python3 tools/golden.py --write    # rewrite tests/data/golden.json

Runs every command of COMMANDS in order with `pfscheme.cli.main`, in one
process and one temporary working directory, so that a command reads the
files that the commands before it wrote.  For each command the table
keeps the exit code and the sha256 of its stdout and of every file it
writes; for an exit-2 command it also keeps the stderr line.  The stderr
of `verify-paper` holds timings and is never kept.  Both modes print each
command whose entry differs from the table's.  Standard library, the package
and the tests' `corpus` (for the incoherent file) only; the JSON is written
with sorted keys.  The spec files of SPECS are written as they stand here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "golden.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

# the set-up of the perfbench `spreads` workload, and one more scheme
SETUP = (["gen spread --q %d --plane %s --out %s%d.json" % (q, plane, plane, q)
          for q in (9, 16, 25) for plane in ("desarguesian", "hall")]
         + ["gen frobenius --cyclic 9,8 --out z9.json",
            "gen frobenius --scalar 7 --out scalar7.json",
            "gen frobenius --cyclic 27,26 --out z27.json"])

# one or more commands per report record, each run in both formats
REPORTS = [
    "check axioms --scheme z9.json",
    "check tcond --t 4 --scheme hall9.json",
    "check tcond --t 3 --scheme desarguesian9.json",
    "check tcond --t 3 --scheme hall9-swapped.json",
    "check parabolics --scheme hall9.json",
    "check separability --scheme z9.json",
    "check separability --scheme hall9.json",
    "check separability --scheme z27.json",
    "check schurity --scheme z9.json",
    "check schurity --scheme scalar7.json",
    "iso alg hall9.json desarguesian9.json --limit 1",
    "iso induced hall9.json hall9.json",
    "iso induced z9.json z9.json",
    "classify thm2 --cyclic 9,8",
    "classify thm2 --scalar 7",
    "classify thm2 --scalar 3,3",
    "classify wl --n 64 --conn 1,-1",
    "classify wl --n 81 --conn 1,-1",
    "classify wl --n 105 --units 104 --reps 1,2",
    "classify wl --n 157 --units 14",
    "gen circulant --n 9 --conn 1,-1",
]

# Hall q = 9 with the colours of two symmetric pairs swapped: a valid scheme
# file whose colouring is not coherent (see `corpus`)
INCOHERENT = "hall9-swapped.json"
ON_INCOHERENT = [
    "check axioms --scheme %s" % INCOHERENT,
    "check tcond --scheme %s" % INCOHERENT,
    "check parabolics --scheme %s" % INCOHERENT,
    "check separability --scheme %s" % INCOHERENT,
    "check schurity --scheme %s" % INCOHERENT,
    *("iso %s %s %s" % (level, source, target) for level in ("alg", "induced")
      for source, target in ((INCOHERENT, INCOHERENT), ("hall9.json", INCOHERENT),
                             (INCOHERENT, "hall9.json"))),
]

# spec files: a valid one, a malformed one, one that is no Frobenius group
# and one whose scheme is primitive, each read by the three --spec commands
SPECS = {
    # Z_7 + F_4^2 under a complement of order 3, the catalog's mixed-7-4
    "mixed-7-4.spec.json": {"kernel": [
        {"cyclic": 7, "units": [2]},
        {"elem_abelian": [2, 4], "matrices": [[[0, 1, 0, 0], [1, 1, 0, 0],
                                               [0, 0, 0, 1], [0, 0, 1, 1]]]}],
        "complement_order": 3},
    "kernel-not-a-list.spec.json": {"kernel": {"cyclic": 9, "units": [8]},
                                    "complement_order": 2},
    # 2^2 = 4 fixes 3 in Z_9
    "fixed-point.spec.json": {"kernel": [{"cyclic": 9, "units": [2]}], "complement_order": 6},
    "primitive.spec.json": {"kernel": [{"cyclic": 7, "units": [2]}], "complement_order": 3},
}
ON_SPECS = ["%s --spec %s" % (command, name) for name in SPECS
            for command in ("gen frobenius", "classify thm2", "check separability")]

# a scheme with no nontrivial parabolic, so no base triple
PRIMITIVE = ["gen frobenius --cyclic 7,2 --out z7.json", "iso induced z7.json z7.json"]

COMMANDS = (SETUP + REPORTS + ["--format text " + c for c in REPORTS] + ON_INCOHERENT
            + ON_SPECS + PRIMITIVE + ["verify-paper --format json"])


def _write_inputs(workdir: Path) -> None:
    import corpus
    corpus.write_scheme(workdir / INCOHERENT, corpus.scheme("hall9-swapped"))
    for name, spec in SPECS.items():
        (workdir / name).write_text(json.dumps(spec))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stats(workdir: Path) -> dict:
    return {p.name: (st.st_size, st.st_mtime_ns)
            for p in workdir.iterdir() for st in [p.stat()]}


def run(workdir: Path) -> dict:
    """The table's entry of each command, run in `workdir` (which it changes
    into, and back out of)."""
    from pfscheme.cli import main
    _write_inputs(workdir)
    table, here = {}, os.getcwd()
    os.chdir(workdir)
    try:
        for command in COMMANDS:
            before = _stats(workdir)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command.split())
            written = sorted(name for name, stat in _stats(workdir).items()
                             if before.get(name) != stat)
            entry = {"exit": code, "stdout": _sha(out.getvalue().encode()),
                     "files": {name: _sha((workdir / name).read_bytes()) for name in written}}
            if code == 2:
                entry["stderr"] = err.getvalue()
            table[command] = entry
    finally:
        os.chdir(here)
    return table


def changed(old: dict, new: dict) -> list[str]:
    """The commands whose entries differ, in the order of COMMANDS, then
    those only in `old`."""
    return ([c for c in new if old.get(c) != new[c]]
            + sorted(c for c in old if c not in new))


def main(argv=None) -> int:
    write = "--write" in (sys.argv[1:] if argv is None else argv)
    with tempfile.TemporaryDirectory() as tmp:
        new = run(Path(tmp))
    old = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    diff = changed(old, new)
    for command in diff:
        print(command)
    if write:
        TABLE.write_text(json.dumps(new, sort_keys=True, indent=2) + "\n")
        return 0
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
