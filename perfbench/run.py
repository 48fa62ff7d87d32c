"""The pfscheme benchmark: closed-loop workloads with a verdict gate.

    python3 perfbench/run.py --workload paper|circulants|spreads|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --freeze      # re-record expected.json

Each workload is a fixed list of jobs that one client runs one after
another; the seed shuffles their order in each pass and is passed to
`iso induced` as --seed.  Every job is a fresh process (`child.py`), so no
cache carries from one command to the next.  `paper` runs the nine
criteria of `verify-paper` in one fresh process per pass.

--trace 0 repeats set-up for SETUP_SECONDS, runs passes until --seconds
have passed (at least one), repeats set-up again, and reports the medians
over passes and over set-ups of the end-to-end metrics.  --trace 1 runs one
untraced and one traced pass and reports the per-layer metrics of
`layers.py`.  `all` does both for every workload.  Each job's exit code
and verdict fields are checked against expected.json; a job that differs,
crashes or times out is counted in `failed`.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
RUN_LIMIT_S = 170.0          # every job is killed by then, so a run ends in time

SETUP_SECONDS = 1.5          # set-up repeats this long before the passes, and after

# End-to-end metrics with a bound in BENCHMARK.json.  job_p50_s and
# job_max_s are printed with them, and reported unbounded by the traced run:
# each is the time of a single job, and on a shared host whose speed swings
# by up to 1.7x from second to second no bound <= 0.25 holds for one job.
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple               # CLI arguments; empty for a criterion
    fields: tuple | None      # verdict fields gated; None gates the whole report


WL_FIELDS = ("verdict", "certification", "group_order", "closure_rank")
TCOND_FIELDS = ("passed", "witness")


def _cli(cmd: str, fields) -> Job:
    return Job(cmd, tuple(cmd.split()), fields)


def _circulant_jobs() -> list[Job]:
    args = ["--n 64 --conn 1,-1", "--n 81 --conn 1,-1", "--n 99 --conn 1,-1",
            "--n 101 --conn 1,-1", "--n 105 --units 104 --reps 1,2",
            "--n 127 --conn 1,-1", "--n 157 --units 14", "--n 165 --conn 1,-1",
            "--n 189 --conn 1,-1", "--n 195 --units 194 --reps 1,2",
            "--n 243 --conn 1,-1"]
    return [_cli("classify wl " + a, WL_FIELDS) for a in args]


SPREAD_SETUP = (
    ["gen spread --q %d --plane %s --out %s%d.json" % (q, plane, plane, q)
     for q in (9, 16, 25) for plane in ("desarguesian", "hall")]
    + ["gen frobenius --cyclic 9,8 --out z9.json",
       "gen frobenius --scalar 7 --out scalar7.json"])
INDUCED = "iso induced hall9.json hall9.json"


def _spread_jobs() -> list[Job]:
    jobs = []
    for q in (9, 16, 25):
        jobs.append(_cli("iso alg hall%d.json desarguesian%d.json --limit 1" % (q, q),
                         ("count", "truncated", "mappings")))
        jobs.append(_cli("check tcond --t 4 --scheme hall%d.json" % q, TCOND_FIELDS))
    for q in (9, 16):
        jobs.append(_cli("check axioms --scheme hall%d.json" % q, ("passed", "valencies")))
    jobs.append(_cli("check tcond --t 4 --scheme desarguesian9.json", TCOND_FIELDS))
    jobs.append(_cli("check tcond --t 3 --scheme desarguesian16.json", TCOND_FIELDS))
    for name in ("z9", "scalar7"):
        jobs.append(_cli("check schurity --scheme %s.json" % name,
                         ("schurian", "group_order", "orbital_scheme_equal")))
    jobs.append(_cli("check parabolics --scheme hall16.json", None))
    jobs.append(_cli(INDUCED, ("induced", "mapping")))
    return jobs


WORKLOADS = {
    "paper": [Job("criterion_%d" % i, (), ("passed", "detail")) for i in range(1, 10)],
    "circulants": _circulant_jobs(),
    "spreads": _spread_jobs(),
}


class SetupError(RuntimeError):
    pass


# -- processes ---------------------------------------------------------------


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: str
    err: str
    meta: dict | None
    spans: dict | None


def spawn(args: list, work: Path, deadline: float, trace: bool = False) -> Proc:
    """Run child.py once; time it from spawn to reap and read its rusage."""
    meta, spans = work / "meta.json", work / "spans.json"
    for p in (meta, spans):
        p.unlink(missing_ok=True)
    head = [str(meta)] + (["--trace", str(spans)] if trace else [])
    with open(work / "stdout", "wb") as fo, open(work / "stderr", "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), *head, *args],
                                cwd=work, stdout=fo, stderr=fe)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)

    def load(p):
        return json.loads(p.read_text()) if p.exists() else None

    return Proc(code=code, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0,
                out=(work / "stdout").read_text(errors="replace"),
                err=(work / "stderr").read_text(errors="replace"),
                meta=load(meta), spans=load(spans))


# -- verdict gate --------------------------------------------------------------


def verdict_of(job: Job, payload: dict) -> dict:
    if job.fields is None:
        return payload
    return {f: payload.get(f) for f in job.fields}


def _induced_map_ok(payload: dict, work: Path) -> str | None:
    """`g` must be a permutation that carries every relation to its psi-image."""
    colors = np.asarray(json.loads((work / "hall9.json").read_text())["colors"])
    g = np.asarray(payload.get("g", []))
    psi = np.asarray(payload.get("mapping", []))
    n = len(colors)
    if g.shape != (n,) or not np.array_equal(np.sort(g), np.arange(n)):
        return "g is not a permutation of the points"
    if not np.array_equal(colors[np.ix_(g, g)], psi[colors]):
        return "g is not an isomorphism inducing psi"
    return None


def judge_cli(job: Job, proc: Proc, expected: dict, work: Path) -> str | None:
    """None when the job's exit code and verdict match; else the reason."""
    want = expected.get(job.name)
    if want is None:
        return "no expectation recorded"
    if proc.code != want["exit"]:
        tail = proc.err.strip().splitlines()[-1:] or [""]
        return "exit %d, expected %d %s" % (proc.code, want["exit"], tail[0])
    try:
        payload = json.loads(proc.out)
    except ValueError:
        return "stdout is not one JSON report"
    if verdict_of(job, payload) != want["verdict"]:
        return "verdict fields differ from expected.json"
    if job.name == INDUCED:
        return _induced_map_ok(payload, work)
    return None


def judge_criterion(job: Job, outcome: dict, expected: dict) -> str | None:
    want = expected.get(job.name)
    if want is None:
        return "no expectation recorded"
    if "error" in outcome:
        return outcome["error"]
    if verdict_of(job, outcome) != want["verdict"]:
        return "passed/detail differ from expected.json"
    return None


# -- passes --------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    job_s: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    processes: list = field(default_factory=list)   # traced passes only

    def add(self, proc: Proc, trace: bool, job: str):
        self.wall_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)
        if trace:
            spans = proc.spans or {"spans": [], "missing": []}
            self.processes.append({"job": job, "spans": spans["spans"],
                                   "missing": spans["missing"],
                                   "import_s": (proc.meta or {}).get("import_s", 0.0),
                                   "wall_s": proc.wall_s})

    def metrics(self) -> dict:
        times = list(self.job_s.values())
        return {"wall_s": self.wall_s, "job_p50_s": statistics.median(times),
                "job_max_s": max(times), "cpu_s": self.cpu_s,
                "peak_rss_mb": self.peak_rss_mb}


def run_pass(workload: str, order: list, seed: int, work: Path, expected: dict,
             deadline: float, trace: bool = False, record: dict | None = None) -> Pass:
    """One pass over the jobs in `order`.  With `record`, store verdicts there."""
    res = Pass(attempted=len(order))
    if workload == "paper":
        indices = ",".join(job.name.split("_")[1] for job in order)
        proc = spawn(["--paper", indices], work, deadline, trace)
        res.add(proc, trace, "criteria " + indices)
        outcomes = (proc.meta or {}).get("criteria", []) if proc.code == 0 else []
        by_name = {job.name: job for job in order}
        for outcome in outcomes:
            job = by_name["criterion_%d" % outcome["index"]]
            res.job_s[job.name] = outcome["seconds"]
            if record is not None and "error" not in outcome:
                record[job.name] = {"exit": 0, "verdict": verdict_of(job, outcome)}
            reason = judge_criterion(job, outcome, expected)
            if reason:
                res.failures.append((job.name, reason))
        for job in order:
            if job.name not in res.job_s:
                res.failures.append((job.name, "exit %d: %s" % (
                    proc.code, (proc.err.strip().splitlines() or [""])[-1])))
        return res
    for job in order:
        argv = list(job.argv)
        if job.name == INDUCED:
            argv = ["--seed", str(seed)] + argv
        proc = spawn(["--cli", *argv], work, deadline, trace)
        res.add(proc, trace, job.name)
        if proc.meta is not None:
            res.job_s[job.name] = proc.meta["main_s"]
        if record is not None and proc.meta is not None:
            record[job.name] = {"exit": proc.code,
                                "verdict": verdict_of(job, json.loads(proc.out))}
        reason = judge_cli(job, proc, expected, work)
        if reason:
            res.failures.append((job.name, reason))
    return res


def setup(workload: str, work: Path, deadline: float) -> float:
    """Import pfscheme in a fresh process, plus generate the input files."""
    if workload != "spreads":
        proc = spawn(["--import-only"], work, deadline)
        if proc.code != 0:
            raise SetupError("import failed: %s" % proc.err.strip())
        return proc.wall_s
    total = 0.0
    for cmd in SPREAD_SETUP:
        proc = spawn(["--cli", *cmd.split()], work, deadline)
        if proc.code != 0:
            raise SetupError("%s exited %d: %s" % (cmd, proc.code, proc.err.strip()))
        total += proc.wall_s
    return total


def input_digest(work: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(work.glob("*.json")):
        if p.name not in ("meta.json", "spans.json"):
            h.update(p.name.encode() + p.read_bytes())
    return h.hexdigest()


def setups(workload: str, work: Path, deadline: float, min_s: float) -> list[float]:
    """Set up until `min_s` have been spent, at least once; every set-up
    must write the same input files."""
    times, digests = [], set()
    while not times or sum(times) < min_s:
        times.append(setup(workload, work, deadline))
        digests.add(input_digest(work))
    if len(digests) != 1:
        raise SetupError("generated input files differ between set-ups")
    return times


# -- reporting -----------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
             "PFSCHEME_THREADS")
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads_env": {k: os.environ.get(k) for k in names}}


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            expected: dict, start: float) -> dict:
    """One run of a workload; returns attempted, failed and its metrics."""
    deadline = start + RUN_LIMIT_S
    jobs = WORKLOADS[workload]
    rng = random.Random(seed)
    spawn(["--import-only"], work, deadline)       # fills the bytecode cache
    setup_times = setups(workload, work, deadline, 0 if trace else SETUP_SECONDS)
    if trace:
        untraced = run_pass(workload, rng.sample(jobs, len(jobs)), seed, work,
                            expected, deadline)
        traced = run_pass(workload, rng.sample(jobs, len(jobs)), seed, work,
                          expected, deadline, trace=True)
        passes = [untraced, traced]
        metrics = layers.summarize(traced.processes)
        jobs_e2e = untraced.metrics()
        metrics["driver.job_p50_s"] = jobs_e2e["job_p50_s"]
        metrics["driver.job_max_s"] = jobs_e2e["job_max_s"]
        metrics["driver.untraced_wall_s"] = untraced.wall_s
        metrics["driver.trace_overhead_s"] = traced.wall_s - untraced.wall_s
        units = layers.METRICS
        for proc in traced.processes:
            for root, dur, top in layers.breakdown(proc["spans"], 3):
                label = proc["job"] if root == "cli.main" else root
                print("  %s: %.3f s; most self time in %s" % (
                    label, dur, ", ".join("%s %.3f s" % kv for kv in top)))
    else:
        passes, t0 = [], time.monotonic()
        while not passes or time.monotonic() - t0 < seconds:
            passes.append(run_pass(workload, rng.sample(jobs, len(jobs)), seed, work,
                                   expected, deadline))
        # Set-up is sampled again after the passes, so that its median spans
        # the run instead of the few seconds before the first job.
        setup_times += setups(workload, work, deadline, SETUP_SECONDS)
        per_pass = [p.metrics() for p in passes]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics["setup_s"] = statistics.median(setup_times)
        units = {**E2E_UNITS, "job_p50_s": "s", "job_max_s": "s"}
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    for name, reason in failures:
        print("FAILED %s/%s: %s" % (workload, name, reason))
    slowest = max(passes[0].job_s.items(), key=lambda kv: kv[1], default=("-", 0))
    print("%s trace=%d: passes=%d jobs=%d fail_ratio=%.3f slowest=%s | %s" % (
        workload, trace, len(passes), len(jobs), len(failures) / attempted, slowest[0],
        "  ".join("%s=%.4g %s" % (k, v, units[k]) for k, v in metrics.items()
                  if v or not trace)))
    reported = layers.METRICS if trace else E2E_UNITS
    return {"attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": reported[k]} for k in reported}}


def freeze(work: Path) -> None:
    """Record every job's exit code and verdict fields as the expectation."""
    record: dict = {}
    deadline = time.monotonic() + 3600
    for workload, jobs in WORKLOADS.items():
        if workload == "spreads":
            setup(workload, work, deadline)
        run_pass(workload, jobs, 0, work, {}, deadline, record=record)
    lines = ["%s: %s" % (json.dumps(k), json.dumps(record[k], sort_keys=True))
             for k in sorted(record)]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print("wrote %d expectations to %s" % (len(record), EXPECTED))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args(argv)
    # A terminated run still kills and reaps its job (see spawn).
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pfscheme" / "__init__.py").is_file():
        print("error: no pfscheme sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if not args.freeze and not args.workload:
        ap.error("--workload is required")
    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.freeze:
            freeze(work)
            return 0
        expected = json.loads(EXPECTED.read_text())
        print("env", json.dumps(environment(args.seed), sort_keys=True))
        if args.workload != "all":
            res = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          work, expected, time.monotonic())
        else:
            res = {"attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (False, True):
                    part = measure(workload, args.seed, args.seconds, trace, work,
                                   expected, time.monotonic())
                    res["attempted"] += part["attempted"]
                    res["failed"] += part["failed"]
                    res["metrics"].update({"%s.%s" % (workload, k): v
                                           for k, v in part["metrics"].items()})
    except SetupError as exc:
        print("error: set-up failed: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": res["failed"] == 0, **res}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
