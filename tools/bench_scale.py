"""Time the scale recipes of the CLI, each in a fresh process.

    python3 tools/bench_scale.py [RECIPE ...]

Runs every recipe (or the named ones) with `python -m pfscheme.cli` on the
sources of this checkout and writes BENCH_scale.json at its root: per
recipe the argument list, exit code, wall time, CPU time (user + system)
and peak RSS of the child process, read with `os.wait4`.  Named recipes
replace their rows of an existing BENCH_scale.json and keep the others.
A row may carry a `before` object, the same figures at an earlier commit,
added by hand to record a change; rerunning the recipe drops it.
The scheme files the recipes read are written first into a temporary
directory by untimed `gen` commands (and, for the thin scheme of Z_300 and
the point-permuted Hall q = 25 scheme, by this script).  Standard library
only; the JSON is written with sorted keys.
"""

from __future__ import annotations

import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_scale.json"

# name -> argument list; "{NAME}" is the path of the file written by SETUP
RECIPES = {
    "classify-wl-1331": ["classify", "wl", "--n", "1331", "--conn", "1,-1"],
    "classify-wl-2025": ["classify", "wl", "--n", "2025", "--conn", "1,-1"],
    "classify-wl-3025": ["classify", "wl", "--n", "3025", "--conn", "1,-1"],
    "classify-wl-4913": ["classify", "wl", "--n", "4913", "--conn", "1,-1"],
    # the job that sets the peak RSS of the perfbench `spreads` workload
    "iso-alg-hall25-desarguesian25": ["iso", "alg", "{hall25}", "{des25}", "--limit", "1"],
    "schurity-desarguesian16": ["check", "schurity", "--scheme", "{des16}"],
    "schurity-desarguesian25": ["check", "schurity", "--scheme", "{des25}"],
    "tcond4-desarguesian25": ["check", "tcond", "--t", "4", "--scheme", "{des25}"],
    "tcond4-hall25": ["check", "tcond", "--t", "4", "--scheme", "{hall25}"],
    "tcond4-hall25-permuted": ["check", "tcond", "--t", "4", "--scheme", "{hall25p}"],
    "parabolics-mixed-17-9": ["check", "parabolics", "--scheme", "{mixed17}"],
    # a parabolic lattice of 2664 members
    "parabolics-scalar-3-5": ["check", "parabolics", "--scheme", "{scalar35}"],
    # 75701 divide records
    "parabolics-scalar-7-4": ["check", "parabolics", "--scheme", "{scalar74}"],
    "tcond3-mixed-17-9": ["check", "tcond", "--t", "3", "--scheme", "{mixed17}"],
    "thm2-scalar-3-5": ["classify", "thm2", "--scalar", "3,5"],
    "thm2-scalar-7-4": ["classify", "thm2", "--scalar", "7,4"],
    # 56632 invariant subspaces: more than the lattice engine's member bound
    "thm2-scalar-3-6": ["classify", "thm2", "--scalar", "3,6"],
    "thin300-tcond3": ["check", "tcond", "--t", "3", "--scheme", "{thin300}"],
    "thin300-schurity": ["check", "schurity", "--scheme", "{thin300}"],
    "thin300-iso-alg": ["iso", "alg", "{thin300}", "{thin300}", "--limit", "1"],
    "thin300-iso-induced": ["iso", "induced", "{thin300}", "{thin300}"],
    "gen-frobenius-521-520": ["gen", "frobenius", "--cyclic", "521,520", "--out", "{scratch}"],
    "gen-frobenius-mixed-17-9": ["gen", "frobenius", "--spec", "{mixed17spec}", "--out", "{scratch}"],
    # almost all start-up: imports and the compilation of the modules it runs
    "gen-circulant-64": ["gen", "circulant", "--n", "64", "--conn", "1,-1", "--out", "{scratch}"],
}

# catalog spec mixed-17-9: Z_17 x (Z_3)^4, complement of order 8
MIXED_17_9 = {"kernel": [{"cyclic": 17, "units": [2]},
                         {"elem_abelian": [3, 4], "matrices": [[[1, 1, 0, 0], [2, 1, 0, 0],
                                                                [0, 0, 1, 1], [0, 0, 2, 1]]]}],
              "complement_order": 8}

# file name -> the gen arguments that write it
SETUP = {
    "des16": ["gen", "spread", "--q", "16", "--plane", "desarguesian"],
    "des25": ["gen", "spread", "--q", "25", "--plane", "desarguesian"],
    "hall25": ["gen", "spread", "--q", "25", "--plane", "hall"],
    "mixed17": ["gen", "frobenius", "--spec", "{mixed17spec}"],
    "scalar35": ["gen", "frobenius", "--scalar", "3,5"],
    "scalar74": ["gen", "frobenius", "--scalar", "7,4"],
}


def run(args: list[str]) -> dict:
    """Run the CLI once; exit code, wall and CPU seconds, peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "pfscheme.cli", *args], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)     # reaped here, not by Popen
    return {"exit": child.returncode, "wall_s": round(wall, 3),
            "cpu_s": round(usage.ru_utime + usage.ru_stime, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}


def main(names: list[str]) -> int:
    unknown = [n for n in names if n not in RECIPES]
    if unknown:
        print("unknown recipe(s): %s; known: %s" % (", ".join(unknown), ", ".join(RECIPES)),
              file=sys.stderr)
        return 2
    chosen = names or list(RECIPES)
    with tempfile.TemporaryDirectory() as work:
        files = {key: os.path.join(work, key + ".json")
                 for key in [*SETUP, "thin300", "hall25p", "mixed17spec", "scratch"]}
        with open(files["mixed17spec"], "w") as fh:
            json.dump(MIXED_17_9, fh)
        with open(files["thin300"], "w") as fh:
            # the thin scheme of Z_300: colour (x, y) is y - x mod 300
            json.dump({"colors": [[(y - x) % 300 for y in range(300)] for x in range(300)]}, fh)
        needed = {arg[1:-1] for n in chosen for arg in RECIPES[n] if arg.startswith("{")}
        if "hall25p" in needed:
            needed.add("hall25")
        for key in sorted(needed & set(SETUP)):
            args = [a.format(**files) for a in SETUP[key]] + ["--out", files[key]]
            if run(args)["exit"] != 0:
                print("setup failed: %s" % " ".join(SETUP[key]), file=sys.stderr)
                return 1
        if "hall25p" in needed:
            # hall25 with its points shuffled: no translation certificate
            colors = json.loads(Path(files["hall25"]).read_text())["colors"]
            perm = list(range(len(colors)))
            random.Random(0).shuffle(perm)
            with open(files["hall25p"], "w") as fh:
                json.dump({"colors": [[colors[a][b] for b in perm] for a in perm]}, fh)
        results = {}
        for name in chosen:
            results[name] = {"argv": RECIPES[name], **run([a.format(**files) for a in RECIPES[name]])}
            print("%-26s %s" % (name, json.dumps(results[name])), flush=True)
    kept = json.loads(OUT.read_text())["recipes"] if names and OUT.exists() else {}
    doc = {"python": platform.python_version(), "cpus": os.cpu_count(),
           "machine": platform.machine(), "recipes": {**kept, **results}}
    OUT.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
