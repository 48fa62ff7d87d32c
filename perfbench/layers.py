"""Spans around pfscheme's layer entry points, and the per-layer metrics.

`install` rebinds every `pfscheme.*` module attribute that holds one of the
functions in `TARGETS` (methods are rebound on their class) to a wrapper
that records a span: name, start, end, parent span, and counts read from
the return value.  Wrappers return and raise exactly what the wrapped
function does; a target that is gone is reported as missing, and a return
value whose counts cannot be read is counted in driver.count_errors.  Spans
stay in memory; the caller writes them out when its job ends.  `summarize`
turns the spans of a pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time


def _tcond_counts(report):
    pairs = report.pairs_checked
    return {"pairs": pairs, "codes": pairs * report.n ** (report.t - 2),
            "passed": bool(report.passed)}


# (module, attribute path, counts from the return value or None)
TARGETS = [
    ("scheme", "compute_tensor", lambda T: {"codes": T.n ** 3}),
    ("scheme", "wl_closure", lambda s: {"rank_out": s.rank}),
    ("scheme", "from_orbitals", None),
    ("tcond", "check_t_condition", _tcond_counts),
    ("frobenius", "invariant_lattice", lambda lat: {"members": len(lat.subgroups)}),
    ("frobenius", "principal_sections", None),
    ("frobenius", "thm2_profile", None),
    ("frobenius", "build_frobenius", None),
    ("algiso", "base_coordinates", lambda f: {"bijective": int(f.bijective)}),
    ("algiso", "find_algebraic_isomorphisms", None),
    ("algiso", "induced_isomorphism", None),
    ("algiso", "schurity_via_base_triples", None),
    ("parabolic", "enumerate_parabolics", lambda ps: {"members": len(ps)}),
    ("parabolic", "separability_verdict", None),
    ("parabolic", "divide_check", None),
    ("perms", "PermGroup.orbitals", lambda labels: {"pairs": len(labels)}),
    ("perms", "PermGroup.order", None),
    ("autgrp", "frobenius_certificate", None),
    ("wldim", "dimwl_verdict", None),
    ("wldim", "exception_set_crosscheck", None),
    ("circulants", "certificate_unit_groups", None),
    ("spreads", "spread_scheme", None),
    ("spreads", "hall_spread", None),
    ("spreads", "desarguesian_spread", None),
    ("cli", "main", None),
] + [("verify", "criterion_%d" % i, None) for i in range(1, 10)]

# Per-layer metric -> unit.  `<span>.self_s` and `<span>.calls` come from
# the spans; the other per-span names are sums of the counts above.
METRICS = {
    "scheme.compute_tensor.self_s": "s",
    "scheme.compute_tensor.calls": "count",
    "scheme.compute_tensor.codes": "count",
    "scheme.wl_closure.self_s": "s",
    "scheme.wl_closure.calls": "count",
    "scheme.wl_closure.rank_out": "count",
    "scheme.from_orbitals.self_s": "s",
    "tcond.check_t_condition.self_s": "s",
    "tcond.check_t_condition.calls": "count",
    "tcond.check_t_condition.pairs": "count",
    "tcond.check_t_condition.codes": "count",
    "tcond.check_t_condition.pass_s": "s",
    "tcond.check_t_condition.fail_s": "s",
    "frobenius.invariant_lattice.self_s": "s",
    "frobenius.invariant_lattice.calls": "count",
    "frobenius.invariant_lattice.members": "count",
    "frobenius.principal_sections.self_s": "s",
    "frobenius.thm2_profile.self_s": "s",
    "frobenius.build_frobenius.self_s": "s",
    "algiso.base_coordinates.self_s": "s",
    "algiso.base_coordinates.calls": "count",
    "algiso.base_coordinates.bijective_ratio": "1",
    "algiso.find_algebraic_isomorphisms.self_s": "s",
    "algiso.induced_isomorphism.self_s": "s",
    "algiso.schurity_via_base_triples.self_s": "s",
    "parabolic.enumerate_parabolics.self_s": "s",
    "parabolic.enumerate_parabolics.calls": "count",
    "parabolic.enumerate_parabolics.members": "count",
    "parabolic.separability_verdict.self_s": "s",
    "parabolic.divide_check.self_s": "s",
    "perms.PermGroup.orbitals.self_s": "s",
    "perms.PermGroup.orbitals.calls": "count",
    "perms.PermGroup.orbitals.pairs": "count",
    "perms.PermGroup.order.self_s": "s",
    "autgrp.frobenius_certificate.self_s": "s",
    "autgrp.frobenius_certificate.calls": "count",
    "wldim.dimwl_verdict.self_s": "s",
    "wldim.exception_set_crosscheck.self_s": "s",
    "circulants.certificate_unit_groups.self_s": "s",
    "spreads.spread_scheme.self_s": "s",
    "spreads.hall_spread.self_s": "s",
    "spreads.desarguesian_spread.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    **{"verify.criterion_%d.wall_s" % i: "s" for i in range(1, 10)},
    "verify.self_s": "s",
    "driver.import_s": "s",
    "driver.startup_s": "s",
    "driver.self_sum_s": "s",
    "driver.traced_wall_s": "s",
    "driver.untraced_wall_s": "s",
    "driver.job_p50_s": "s",
    "driver.job_max_s": "s",
    "driver.trace_overhead_s": "s",
    "driver.missing_functions": "count",
    "driver.count_errors": "count",
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, counts=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counts is not None:
                try:
                    rec[4] = counts(result)
                except Exception:  # noqa: BLE001 - a changed result type must not fail the job
                    rec[4] = {"count_errors": 1}
            return result

        return traced

    def install(self) -> None:
        """Wrap every target that the loaded pfscheme modules still have."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pfscheme" or name.startswith("pfscheme."))]
        for module, path, counts in TARGETS:
            name = "%s.%s" % (module, path)
            owner = sys.modules.get("pfscheme." + module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, fn, counts)
            if outer:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def breakdown(spans, k: int) -> list[tuple[str, float, list]]:
    """Per root span: its name, its duration, and the k span names with the
    most self time under it (summed over their calls)."""
    roots: list[int] = []
    sums: dict[int, dict[str, float]] = {}
    for i, ((name, _, _, parent, _), self_s) in enumerate(zip(spans, self_times(spans))):
        roots.append(i if parent < 0 else roots[parent])
        per = sums.setdefault(roots[i], {})
        per[name] = per.get(name, 0.0) + self_s
    return [(spans[r][0], spans[r][2] - spans[r][1],
             sorted(per.items(), key=lambda kv: -kv[1])[:k])
            for r, per in sums.items()]


def summarize(processes) -> dict:
    """Per-layer metrics of one traced pass.

    `processes` holds one dict per process of the pass, with its `spans`,
    `missing` names, `import_s` and `wall_s` (spawn to reap).
    """
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0) + value

    root_s = 0.0
    missing = set()
    for proc in processes:
        spans = proc["spans"]
        missing.update(proc["missing"])
        add("driver.import_s", proc["import_s"])
        add("driver.traced_wall_s", proc["wall_s"])
        for (name, start, end, parent, counts), self_s in zip(spans, self_times(spans)):
            if parent < 0:
                root_s += end - start
            add("driver.self_sum_s", self_s)
            if name.startswith("verify.criterion_"):
                add(name + ".wall_s", end - start)
                add("verify.self_s", self_s)
                continue
            add(name + ".self_s", self_s)
            add(name + ".calls", 1)
            for key, value in (counts or {}).items():
                if key == "passed":
                    add(name + (".pass_s" if value else ".fail_s"), self_s)
                elif key == "count_errors":
                    add("driver.count_errors", value)
                else:
                    add(name + "." + key, value)
    coords = sums.get("algiso.base_coordinates.calls", 0)
    if coords:
        sums["algiso.base_coordinates.bijective_ratio"] = (
            sums.get("algiso.base_coordinates.bijective", 0) / coords)
    sums["driver.startup_s"] = sums.get("driver.traced_wall_s", 0.0) - root_s
    sums["driver.missing_functions"] = len(missing)
    return {key: sums.get(key, 0) for key in METRICS}
