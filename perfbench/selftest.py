"""Self-test of the benchmark's verdict gate and tracer.

    python3 perfbench/selftest.py

Checks that a tampered expectation, a job that dies with a traceback and a
job that exits 1 are each counted as failed; that traced wrappers return
and raise exactly what the wrapped function does; that a traced function
missing from pfscheme is reported, not fatal; and that the metric names
printed match BENCHMARK.json.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import layers

sys.path.insert(0, str(run.ROOT / "src"))

TCOND_HALL9 = next(j for j in run.WORKLOADS["spreads"]
                   if j.name == "check tcond --t 4 --scheme hall9.json")
failures = []


def check(ok: bool, what: str) -> None:
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        failures.append(what)


def fail_ratio(workload, jobs, expected, work) -> float:
    res = run.run_pass(workload, jobs, 1, work, expected, time.monotonic() + 120)
    return len(res.failures) / res.attempted


def gate_checks(work) -> None:
    expected = json.loads(run.EXPECTED.read_text())
    check(expected[TCOND_HALL9.name]["verdict"]["witness"]["beta"] == 3,
          "the frozen Hall q=9 witness is the pair (0, 3)")
    run.setup("spreads", work, time.monotonic() + 120)
    check(fail_ratio("spreads", [TCOND_HALL9], expected, work) == 0,
          "Hall q=9 4-condition job passes the gate as frozen")
    tampered = json.loads(json.dumps(expected))
    tampered[TCOND_HALL9.name]["verdict"]["passed"] = True
    check(fail_ratio("spreads", [TCOND_HALL9], tampered, work) == 1,
          "flipping the frozen Hall q=9 'passed' to true makes fail_ratio positive")

    report = run.spawn(["--cli", *TCOND_HALL9.argv], work, time.monotonic() + 60).out
    fakes = {
        "a traceback": "raise RuntimeError('injected crash')\n",
        "exit code 1 after a correct report": "import sys\nsys.stdout.write(%r)\nsys.exit(1)\n" % report,
    }
    child = run.CHILD
    try:
        for what, source in fakes.items():
            run.CHILD = work / "fake_child.py"
            run.CHILD.write_text(source)
            check(fail_ratio("spreads", [TCOND_HALL9], expected, work) == 1,
                  "a CLI job ending in %s counts as failed" % what)
        check(fail_ratio("paper", run.WORKLOADS["paper"], expected, work) == 1,
              "a paper pass whose process exits 1 fails all nine criteria")
    finally:
        run.CHILD = child


def tracer_checks() -> None:
    import pfscheme.cli  # noqa: F401 - loads every module the tracer patches
    from pfscheme import scheme
    from pfscheme.scheme import NotCoherentError

    tracer = layers.Tracer()
    sentinel = object()
    check(tracer.wrap("t.ident", lambda x: x)(sentinel) is sentinel,
          "a wrapper returns the wrapped function's own result")
    err = NotCoherentError(1, 1, 1, (0, 1), (0, 2), 1, 0)

    def raising():
        raise err

    try:
        tracer.wrap("t.raise", raising)()
        caught = None
    except NotCoherentError as exc:
        caught = exc
    check(caught is err, "NotCoherentError passes through a wrapper unchanged")
    check(tracer.wrap("t.count", lambda: sentinel, lambda r: r.pairs_checked)() is sentinel,
          "a result whose counts cannot be read is still returned")
    check(all(end >= start for _, start, end, _, _ in tracer.spans),
          "a span is closed when its function raises")

    original = scheme.compute_tensor
    targets = layers.TARGETS
    layers.TARGETS = targets + [("scheme", "no_such_layer", None)]
    tracer = layers.Tracer()
    try:
        tracer.install()
        check(tracer.missing == ["scheme.no_such_layer"],
              "a traced function that no longer exists is reported as missing")
        check(scheme.compute_tensor is not original
              and pfscheme.compute_tensor is scheme.compute_tensor,
              "every module attribute bound to a traced function is wrapped")
    finally:
        layers.TARGETS = targets


def names_checks() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.E2E_UNITS, "end-to-end metrics match BENCHMARK.json")
    check(layer == layers.METRICS, "per-layer metrics match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "workloads match BENCHMARK.json")


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        names_checks()
        gate_checks(work)
        tracer_checks()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
