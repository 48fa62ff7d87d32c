"""Parabolics (scheme-compatible equivalences), the valency-divide check,
the indistinguishing number, and the arithmetic separability verdict.

A parabolic is an equivalence on the point set that is a union of
relations; they form a lattice under join.  For equivalenced schemes the
verdict machinery decides separability from n, the valency k, and the
index chains of the parabolic (or invariant-subgroup) lattice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .arith import prime_divisors
from .frobenius import FrobeniusSpec, d3_cases, invariant_lattice, principal_sections
from .lattice import JoinLattice, indices_of, join_closure
from .scheme import Scheme, SchemeError


@dataclass(frozen=True)
class Parabolic:
    """Union of relations forming an equivalence; classes all of size n_e."""

    relations: frozenset
    class_of: tuple        # point -> class id (ids by smallest member)
    n_e: int
    num_classes: int

    def __contains__(self, s: int) -> bool:
        return s in self.relations

    def key(self) -> tuple:
        return tuple(sorted(self.relations))

    def is_trivial(self) -> bool:
        return self.n_e == 1

    def is_full(self) -> bool:
        return self.num_classes == 1

    def __repr__(self) -> str:
        return "Parabolic(rels=%s, n_e=%d)" % (sorted(self.relations), self.n_e)


def _components(scheme: Scheme, rels) -> np.ndarray:
    """Connected components of the union of the given relations (with stars),
    each point labelled by the smallest point of its component."""
    mask = np.zeros(scheme.rank, dtype=bool)
    for s in rels:
        mask[s] = True
        mask[scheme.star[s]] = True
    adj = mask[scheme.colors]
    np.fill_diagonal(adj, True)
    rows, cols = np.nonzero(adj)                     # row-major: rows ascend
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    label = np.arange(scheme.n, dtype=np.int64)
    while True:
        # Every label is a point of the same component, at most the point
        # itself.  Each point and the root its label names take the least
        # label around the point, then labels jump to their roots; a pass
        # that changes nothing leaves each component on its smallest point.
        least = np.minimum.reduceat(label[cols], starts)
        nxt = np.minimum(label, least)
        np.minimum.at(nxt, label, least)
        while True:
            jumped = nxt[nxt]
            if np.array_equal(jumped, nxt):
                break
            nxt = jumped
        if np.array_equal(nxt, label):
            return label
        label = nxt


def parabolic_closure(scheme: Scheme, rels) -> Parabolic:
    """Smallest parabolic containing the given relations."""
    comp = _components(scheme, set(rels) | {0})
    P = scheme.colors
    inside = comp[:, None] == comp[None, :]
    within = np.bincount(P[inside], minlength=scheme.rank) > 0
    # a scheme relation never straddles classes; verify defensively
    straddle = np.flatnonzero(within & (np.bincount(P[~inside], minlength=scheme.rank) > 0))
    if len(straddle):
        raise SchemeError("relation %d lies both inside and across classes"
                          % straddle[0])
    rel_set = frozenset(np.flatnonzero(within).tolist())
    sizes = np.bincount(comp)
    sizes = sizes[sizes > 0]
    if len(set(sizes.tolist())) != 1:
        raise SchemeError("parabolic classes have unequal sizes %s" % sorted(set(sizes.tolist())))
    return Parabolic(relations=rel_set, class_of=tuple(int(x) for x in comp),
                     n_e=int(sizes[0]), num_classes=len(sizes))


def enumerate_parabolics(scheme: Scheme) -> list[Parabolic]:
    """The full parabolic lattice: single-relation closures saturated under join.

    Returned sorted by (n_e, relation list); includes the trivial and full
    parabolics.
    """
    return _parabolic_lattice(scheme)[0]


def _parabolic_lattice(scheme: Scheme) -> tuple[list[Parabolic], JoinLattice]:
    """Parabolics with their join lattice (bit s of a member is relation s)."""
    found: dict[int, Parabolic] = {}

    def member(rels) -> tuple[int, int]:
        e = parabolic_closure(scheme, rels)
        bits = sum(1 << s for s in e.relations)
        found[bits] = e
        return bits, e.n_e

    seeds = [member(())] + [member({s}) for s in range(1, scheme.rank)]
    lattice = join_closure(seeds, member(range(scheme.rank)),
                           lambda a, b: member(indices_of(a | b).tolist()))
    return [found[bits] for bits in lattice.members], lattice


def exhaustive_parabolics(scheme: Scheme) -> list[Parabolic]:
    """Cross-check by scanning all relation subsets (rank <= 12 only)."""
    if scheme.rank > 12:
        raise ValueError("exhaustive scan limited to rank <= 12")
    out = []
    for bits in range(1 << (scheme.rank - 1)):
        rels = {0} | {s for s in range(1, scheme.rank) if bits >> (s - 1) & 1}
        comp = _components(scheme, rels)
        inside = comp[:, None] == comp[None, :]
        covered = frozenset(int(c) for c in np.unique(scheme.colors[inside]))
        if covered == frozenset(rels):
            out.append(parabolic_closure(scheme, rels))
    uniq = {e.key(): e for e in out}
    return sorted(uniq.values(), key=lambda e: (e.n_e, e.key()))


def is_primitive(scheme: Scheme) -> bool:
    return len(enumerate_parabolics(scheme)) == 2 if scheme.rank > 1 else True


# -- valency-divide check --------------------------------------------------


@dataclass(frozen=True)
class DivideRecord:
    lower: tuple       # relation key of e1
    upper: tuple
    n_lower: int
    n_upper: int
    quotient: int
    ok: bool


def divide_check(scheme: Scheme, parabolics: list[Parabolic] | None = None) -> list[DivideRecord]:
    """k must divide n_{e2}/n_{e1} - 1 for every nested parabolic pair.

    Requires an equivalenced scheme; raises on a non-integer block ratio
    (impossible for genuine parabolics).
    """
    k = scheme.is_equivalenced()
    if k is None:
        raise SchemeError("divide check needs an equivalenced scheme")
    if parabolics is None:
        parabolics = enumerate_parabolics(scheme)
    out = []
    for e1 in parabolics:
        for e2 in parabolics:
            if e1 is e2 or not e1.relations < e2.relations:
                continue
            if e2.n_e % e1.n_e:
                raise SchemeError("nested parabolics with non-dividing sizes %d, %d"
                                  % (e1.n_e, e2.n_e))
            q = e2.n_e // e1.n_e
            out.append(DivideRecord(lower=e1.key(), upper=e2.key(),
                                    n_lower=e1.n_e, n_upper=e2.n_e,
                                    quotient=q, ok=(q - 1) % k == 0))
    return out


def indistinguishing_number(scheme: Scheme) -> int:
    """max over irreflexive r of sum_s c[s][s*][r]."""
    T = scheme.tensor()
    st = np.asarray(scheme.star)
    rows = T.c[np.arange(scheme.rank), st, :]    # rows[s, r] = c[s][s*][r]
    totals = rows.sum(axis=0)
    return int(totals[1:].max())


# -- separability verdict ---------------------------------------------------


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Separable with a witness, or Undecided with table-case annotations."""

    separable: bool
    n: int
    k: int
    reason: str | None = None            # "bound" | "long-chain" | "multiset"
    witness: tuple = ()
    pi_count: int = 0
    d: int = 0
    cases: tuple[str, ...] = ()

    @property
    def undecided(self) -> bool:
        return not self.separable

    def to_json_dict(self) -> dict:
        return {
            "verdict": "separable" if self.separable else "undecided",
            "n": self.n, "k": self.k, "reason": self.reason,
            "witness": list(self.witness), "pi_count": self.pi_count,
            "d": self.d, "cases": list(self.cases),
        }


_ALLOWED_MULTISETS = ("kkk", "kk2k")


def _verdict_from_chains(n: int, k: int, sizes: list[int], incl: np.ndarray,
                         d: int, cases: tuple[str, ...]) -> SeparabilityVerdict:
    """Core arithmetic: sizes/inclusion describe the nontrivial lattice part.

    sizes[i] is the block size (subgroup order) of the i-th nontrivial
    member; incl is their strict inclusion matrix.
    """
    pi_count = len(prime_divisors(n))
    if k == n - 1:
        # rank 2: the complete scheme on n points, unique for its order
        return SeparabilityVerdict(True, n, k, reason="complete",
                                   witness=(n, k),
                                   pi_count=pi_count, d=d, cases=cases)
    if n > 3 * k * (k - 1) ** 2:
        return SeparabilityVerdict(True, n, k, reason="bound",
                                   witness=(n, 3 * k * (k - 1) ** 2),
                                   pi_count=pi_count, d=d, cases=cases)
    # Scan pairs and triples in size order, first hit wins.
    order = sorted(range(len(sizes)), key=lambda i: sizes[i])
    s = [sizes[i] for i in order]
    below = np.asarray(incl, dtype=bool)[np.ix_(order, order)]
    has_above = below.any(axis=1)
    for a, row in enumerate(below):
        mids = np.flatnonzero(row & has_above)
        if len(mids):
            b = int(mids[0])
            c = int(np.flatnonzero(below[b])[0])
            return SeparabilityVerdict(
                True, n, k, reason="long-chain",
                witness=(1, s[a], s[b], s[c], n),
                pi_count=pi_count, d=d, cases=cases)
    for a, row in enumerate(below):
        for b in np.flatnonzero(row).tolist():
            mset = tuple(sorted((s[a] - 1, s[b] // s[a] - 1, n // s[b] - 1)))
            if mset != (k, k, k) and mset != tuple(sorted((k, k, 2 * k))):
                return SeparabilityVerdict(
                    True, n, k, reason="multiset",
                    witness=(s[a], s[b]) + mset,
                    pi_count=pi_count, d=d, cases=cases)
    return SeparabilityVerdict(False, n, k, pi_count=pi_count, d=d, cases=cases)


def separability_verdict(subject, k: int | None = None) -> SeparabilityVerdict:
    """Arithmetic separability for a Scheme or a FrobeniusSpec.

    Separable when (a) n > 3k(k-1)^2, (b) some strict chain of three nested
    nontrivial parabolics exists, or (c) some two-step chain's index
    multiset avoids {{k,k,k}} and {{k,k,2k}}.  Otherwise Undecided, with
    the matching d = 3 parameter cases annotated.  The subject must be
    imprimitive (equivalenced, for schemes).
    """
    if isinstance(subject, FrobeniusSpec):
        lattice = invariant_lattice(subject)
        n = subject.kernel_order
        kk = subject.complement_order
        if lattice.d < 2:
            raise ValueError("primitive subject: no nontrivial invariant subgroup")
        nt = lattice.nontrivial()
        sizes = [lattice.subgroups[i].order for i in nt]
        incl = lattice.inclusion[np.ix_(nt, nt)]
        d = lattice.d
        cases = d3_cases(n, kk, principal_sections(subject, lattice)) if d == 3 else ()
        return _verdict_from_chains(n, kk, sizes, incl, d, cases)
    scheme: Scheme = subject
    kk = scheme.is_equivalenced() if k is None else k
    if kk is None:
        raise SchemeError("separability needs an equivalenced scheme")
    if kk == scheme.n - 1:
        return _verdict_from_chains(scheme.n, kk, [],
                                    np.zeros((0, 0), dtype=bool), 1, ())
    paras, lattice = _parabolic_lattice(scheme)
    if len(paras) <= 2:
        raise SchemeError("primitive scheme: separability criteria need a parabolic")
    d = lattice.longest
    cases = d3_cases(scheme.n, kk) if d == 3 else ()
    return _verdict_from_chains(scheme.n, kk, lattice.sizes[1:-1],
                                lattice.inclusion[1:-1, 1:-1], d, cases)
