"""Executable verification suite: nine numbered checks at desk scale.

Each criterion function returns a CriterionResult; run_all executes them
in order.  The functions are deliberately self-contained so the CLI and
the test suite share one implementation and report identical outcomes.
A cycle closure starts from the `color_matrix` view; `wl_closure` certifies it.
"""

from __future__ import annotations

import time
from functools import cache
from typing import NamedTuple

import numpy as np

from .algiso import base_triple_counts, find_algebraic_isomorphisms, schurity_via_base_triples
from .catalog import KERNEL_CAP, batch_specs, cyclic_unit_spec, negation_spec, scalar_spec
from .circulants import CirculantSpec, circulant_from_connection, color_matrix
from .parabolic import (
    divide_check,
    enumerate_parabolics,
    indistinguishing_number,
    separability_verdict,
)
from .scheme import Scheme, frobenius_scheme, partition_equal, wl_closure
from .spreads import desarguesian_spread, hall_spread, spread_scheme
from .tcond import check_t_condition, four_condition_frobenius_verdict
from .wldim import dimwl_verdict, exception_set_crosscheck


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: dict = {}          # a shared default, never mutated
    seconds: float = 0.0

    def line(self) -> str:
        return "criterion %d (%s): %s (%.1fs)" % (
            self.index, self.name, "PASS" if self.passed else "FAIL", self.seconds)


# name -> builder of the named schemes other than the cycle closures
_BUILDERS = {
    "z9": lambda: frobenius_scheme(negation_spec(9)),
    "z63": lambda: frobenius_scheme(negation_spec(63)),
    "z65-u57": lambda: frobenius_scheme(cyclic_unit_spec(65, 57)),
    "scalar-3": lambda: frobenius_scheme(scalar_spec(3, 2)),
    "scalar-4": lambda: frobenius_scheme(scalar_spec(4, 2)),
    "scalar-5": lambda: frobenius_scheme(scalar_spec(5, 2)),
    "ea-3-2-full": lambda: frobenius_scheme(scalar_spec(9, 1)),
    "f3x3-spread": lambda: spread_scheme(desarguesian_spread(3)),
    "f9x9-desarguesian": lambda: spread_scheme(desarguesian_spread(9)),
    "f9x9-hall": lambda: spread_scheme(hall_spread(9)),
}

# Criterion-1 corpus: spec examples plus cyclic closures up to 105
CORPUS = ("z9", "f3x3-spread", "f9x9-desarguesian", "f9x9-hall") + tuple(
    "cycle-closure-%d" % n for n in (9, 15, 21, 25, 27, 35, 45, 49, 63, 75, 81, 99, 105))

# Imprimitive pseudofrobenius schemes for the structural sweeps
PSEUDOFROBENIUS = ("z9", "z63", "z65-u57", "scalar-3", "scalar-4", "scalar-5",
                   "f3x3-spread", "f9x9-hall")


@cache
def named_scheme(name: str) -> Scheme:
    """The scheme of a corpus name, built once per process.

    The criteria share these schemes: a Scheme is read-only, and what it
    caches (its tensor, verified when first built, its radices and
    its parabolic lattice) is exact, so sharing changes no outcome.
    """
    if name in _BUILDERS:
        return _BUILDERS[name]()
    n = int(name.removeprefix("cycle-closure-"))
    return wl_closure(color_matrix(circulant_from_connection(n, (1, n - 1))))


def criterion_1() -> CriterionResult:
    """Scheme axioms and the triangle identities over the whole corpus."""
    t0 = time.perf_counter()
    checked = []
    ok = True
    for name in CORPUS:
        s = named_scheme(name)
        try:
            Scheme(s.colors)           # re-run the C1/C2 structural checks
            s.tensor()                 # C3, triangle identities and row sums
            checked.append(name)
        except Exception as exc:           # noqa: BLE001 - recorded, not hidden
            ok = False
            checked.append("%s: %s" % (name, exc))
            break
    return CriterionResult(1, "axioms and triangle identities", ok,
                           {"schemes": checked}, time.perf_counter() - t0)


def criterion_2() -> CriterionResult:
    """Equivalenced valency, indistinguishing number k-1, divide lemma."""
    t0 = time.perf_counter()
    detail = {}
    ok = True
    for name, k in (("z9", 2), ("z63", 2), ("scalar-3", 2), ("scalar-4", 3),
                    ("scalar-5", 4), ("ea-3-2-full", 8)):
        s = named_scheme(name)
        got_k = s.is_equivalenced()
        indist = indistinguishing_number(s)
        divides = all(r.ok for r in divide_check(s))
        detail[name] = {"k": got_k, "indistinguishing": indist, "divide": divides}
        ok = ok and got_k == k and indist == k - 1 and divides
    return CriterionResult(2, "pseudofrobenius screen", ok, detail,
                           time.perf_counter() - t0)


def criterion_3() -> CriterionResult:
    """Order-81 spread schemes: tensor-equal, only one passes the 4-condition."""
    t0 = time.perf_counter()
    desarg = named_scheme("f9x9-desarguesian")
    hall = named_scheme("f9x9-hall")
    isos, _ = find_algebraic_isomorphisms(hall, desarg, limit=1)
    alg_iso = bool(isos)
    rep_d = check_t_condition(desarg, 4)
    rep_h = check_t_condition(hall, 4)
    verdict_d = four_condition_frobenius_verdict(rep_d, algebraically_frobenius=True)
    verdict_h = four_condition_frobenius_verdict(rep_h, algebraically_frobenius=True)
    contradiction = rep_h.passed
    ok = (alg_iso and rep_d.passed and not rep_h.passed
          and verdict_d == "frobenius" and verdict_h == "proper"
          and not contradiction)
    detail = {
        "algebraic_isomorphism": alg_iso,
        "desarguesian_4cond": rep_d.passed,
        "hall_4cond": rep_h.passed,
        "hall_witness_pair": None if rep_h.witness is None else
            [rep_h.witness.alpha, rep_h.witness.beta],
        "verdicts": [verdict_d, verdict_h],
    }
    if contradiction:
        detail["contradiction"] = ("hall spread scheme passed the 4-condition; "
                                   "investigate before trusting this build")
    return CriterionResult(3, "proper pseudofrobenius pair at order 81", ok,
                           detail, time.perf_counter() - t0)


def criterion_4() -> CriterionResult:
    """Base-triple reconstruction yields a transitive group reproducing
    the scheme on both order-9 inputs."""
    t0 = time.perf_counter()
    detail = {}
    ok = True
    for name in ("z9", "f3x3-spread"):
        res = schurity_via_base_triples(named_scheme(name))
        detail[name] = {
            "schurian": res.schurian,
            "group_order": res.group_order,
            "relation_transitive": all(res.relation_transitive),
            "orbital_scheme_equal": res.orbital_scheme_equal,
        }
        ok = ok and res.schurian and res.orbital_scheme_equal
    return CriterionResult(4, "constructive schurity", ok, detail,
                           time.perf_counter() - t0)


def criterion_5() -> CriterionResult:
    """Separability sweep over the catalog; Undecided must land in the
    (|pi|, d) table and carry the d=3 case annotations."""
    t0 = time.perf_counter()
    specs = batch_specs()
    n_undecided = 0
    reasons: dict[str, int] = {}
    ok = len(specs) >= 50
    bad = []
    for name, spec in specs:
        if spec.kernel_order > KERNEL_CAP:
            ok = False
            bad.append("%s exceeds kernel cap" % name)
            continue
        v = separability_verdict(spec)
        key = v.reason if v.separable else "undecided"
        reasons[key] = reasons.get(key, 0) + 1
        if v.separable:
            continue
        n_undecided += 1
        if v.pi_count not in (1, 2) or v.d not in (2, 3):
            ok = False
            bad.append("%s: (pi,d)=(%d,%d)" % (name, v.pi_count, v.d))
        if v.d == 3:
            if not v.cases:
                ok = False
                bad.append("%s: d=3 without case" % name)
            n, k = spec.kernel_order, spec.complement_order
            if "one-prime-cube" in v.cases and n != (k + 1) ** 3:
                ok = False
                bad.append("%s: bad cube parameters" % name)
            if "two-prime-double" in v.cases and n != (k + 1) ** 2 * (2 * k + 1):
                ok = False
                bad.append("%s: bad double parameters" % name)
    detail = {"specs": len(specs), "undecided": n_undecided,
              "reasons": reasons}
    if bad:
        detail["failures"] = bad
    return CriterionResult(5, "arithmetic separability table", ok, detail,
                           time.perf_counter() - t0)


def criterion_6() -> CriterionResult:
    """Block-interior intersection numbers: c_rs^t = 1 at the unique
    in-block target and 0 elsewhere, under the stated hypotheses."""
    t0 = time.perf_counter()
    triples_checked = 0
    ok = True
    witness = None
    for name in PSEUDOFROBENIUS:
        s = named_scheme(name)
        T = s.tensor()
        R = s.rank
        for e in enumerate_parabolics(s):
            if e.is_trivial() or e.is_full():
                continue
            inside = sorted(set(e.relations) - {0})
            inside_all = set(e.relations)
            c = {t: T.slice(t) for t in inside}         # c[t][r, s] = c_rs^t
            for r in range(1, R):
                for sx in range(1, R):
                    if r in inside_all and sx in inside_all:
                        continue
                    for t in inside:
                        if c[t][r, sx] == 0:
                            continue
                        triples_checked += 1
                        if c[t][r, sx] != 1:
                            ok = False
                            witness = (name, e.key(), r, sx, t,
                                       int(c[t][r, sx]))
                        for u in inside:
                            if u != t and c[u][r, sx] != 0:
                                ok = False
                                witness = (name, e.key(), r, sx, u,
                                           int(c[u][r, sx]))
        if not ok:
            break
    return CriterionResult(6, "in-block intersection collapse", ok,
                           {"triples": triples_checked, "witness": witness},
                           time.perf_counter() - t0)


def criterion_7() -> CriterionResult:
    """Every base triple induces a bijective pair coordinatization."""
    t0 = time.perf_counter()
    total = 0
    ok = True
    witness = None
    for name in ("z9", "f3x3-spread", "f9x9-desarguesian", "f9x9-hall"):
        s = named_scheme(name)
        for e in enumerate_parabolics(s):
            if e.is_trivial() or e.is_full():
                continue
            for mu, nus, rhos, counts in base_triple_counts(s, e):
                total += counts.size
                bad = np.argwhere(counts != s.n)
                if len(bad):
                    ok = False
                    i, j = bad[-1]
                    witness = (name, e.key(), mu, int(nus[i]), int(rhos[j]),
                               int(counts[i, j]))
        if not ok:
            break
    return CriterionResult(7, "base-triple bijectivity", ok,
                           {"triples": total, "witness": witness},
                           time.perf_counter() - t0)


def criterion_8() -> CriterionResult:
    """Circulant classification: the three frozen verdicts plus the
    million-strong agreement of the two exception-set formulations."""
    t0 = time.perf_counter()
    v81 = dimwl_verdict(circulant_from_connection(81, (1, 80)))
    v105 = dimwl_verdict(CirculantSpec(105, (104,), (1, 2)))
    v63 = dimwl_verdict(circulant_from_connection(63, (1, 62)))
    members = exception_set_crosscheck(10 ** 6)
    ok = (v81.verdict == "Exactly2" and v105.verdict == "Exactly2"
          and v63.verdict == "ExceptionUnresolved")
    detail = {
        "n81": v81.verdict,
        "n105": v105.verdict,
        "n63": v63.verdict,
        "exception_members_to_1e6": members,
    }
    return CriterionResult(8, "circulant dimension verdicts", ok, detail,
                           time.perf_counter() - t0)


def criterion_9() -> CriterionResult:
    """wl_closure is idempotent and fixes every orbital scheme."""
    t0 = time.perf_counter()
    fixed = 0
    ok = True
    witness = None
    for name in PSEUDOFROBENIUS + ("cycle-closure-45",):
        s = named_scheme(name)
        again = wl_closure(s.colors)
        if not partition_equal(again.colors, s.colors):
            ok = False
            witness = name
            break
        twice = wl_closure(again.colors)
        if not partition_equal(twice.colors, again.colors):
            ok = False
            witness = name + " (idempotence)"
            break
        fixed += 1
    return CriterionResult(9, "closure stability", ok,
                           {"fixed_points": fixed, "witness": witness},
                           time.perf_counter() - t0)


def run_all() -> list[CriterionResult]:
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(),
    ]
