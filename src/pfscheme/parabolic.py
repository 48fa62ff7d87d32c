"""Parabolics (scheme-compatible equivalences), the valency-divide check,
the indistinguishing number, and the arithmetic separability verdict.

A parabolic is an equivalence on the point set that is a union of
relations (a closed subset); they form a lattice under join.  In a
coherent scheme the class of point 0 settles a parabolic, so closures
work from row 0 alone once the intersection tensor has verified
coherence; an incoherent scheme raises NotCoherentError.  Under the
translation certificate of Z_n the class of 0 is the subgroup that the
row-0 points of the relations generate.  Each scheme keeps its
parabolic lattice once built; the valency-divide check reads the
nested pairs off that lattice's inclusion matrix.  For equivalenced
schemes the verdict machinery decides separability from n, the valency
k, and the index chains of the parabolic lattice; for a Frobenius spec,
from one maximal chain of invariant subgroups.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arith import d3_cases, prime_divisors
from .lattice import JoinLattice, bits_of, indices_of, join_closure
from .scheme import Scheme, SchemeError


class Parabolic(NamedTuple):
    """Union of relations forming an equivalence; classes all of size n_e."""

    relations: frozenset
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


def parabolic_closure(scheme: Scheme, rels) -> Parabolic:
    """Smallest parabolic containing the given relations.

    Needs a coherent scheme: `scheme.tensor()` verifies that first and
    raises NotCoherentError otherwise.  The class of point 0 is the
    connected component of 0 in the graph of E = rels, their transposes
    and the diagonal; the parabolic is the set of colours on it, and
    every class has its size n_e.
    """
    return _as_parabolic(scheme, *_closure_mask(scheme, rels))


def _as_parabolic(scheme: Scheme, within: np.ndarray, n_e: int) -> Parabolic:
    return Parabolic(relations=frozenset(np.flatnonzero(within).tolist()),
                     n_e=n_e, num_classes=scheme.n // n_e)


def _closure_mask(scheme: Scheme, rels) -> tuple[np.ndarray, int]:
    """(colour mask, n_e) of `parabolic_closure(scheme, rels)`: the class
    of 0 by squaring, or, under the translation certificate of Z_n, as the
    multiples of the gcd of n and the row-0 points of the relations (the
    subgroup they generate)."""
    scheme.tensor()
    mask = np.zeros(scheme.rank, dtype=bool)
    mask[0] = True
    for s in rels:
        mask[[s, scheme.star[s]]] = True
    P = scheme.colors
    if scheme.cyclic:
        step = int(np.gcd.reduce(np.flatnonzero(mask[P[0]]), initial=scheme.n))
        block = np.zeros(scheme.n, dtype=bool)
        block[::step] = True
    else:
        block = _squaring_class(P, mask)
    within = np.zeros(scheme.rank, dtype=bool)
    within[P[0, block]] = True
    return within, int(np.count_nonzero(block))


def _squaring_class(P: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The class of point 0 (a point mask) in a coherent scheme, by squaring.

    Whether y lies within distance d of x in the graph of the colours in
    `mask` depends only on the colour of (x, y), so the ball of radius d
    around 0 names, through its row-0 colours S, the ball of radius d
    around every point; the ball of radius 2d around 0 is the union of the
    balls {y : P[x, y] in S} of its points x.  Squaring until the ball
    stops growing reaches the class of 0.
    """
    block = mask[P[0]]
    while True:
        within = np.zeros(len(mask), dtype=bool)
        within[P[0, block]] = True
        grown = within.take(P[block]).any(axis=0)
        if np.array_equal(grown, block):
            return block
        block = grown


def enumerate_parabolics(scheme: Scheme) -> list[Parabolic]:
    """The full parabolic lattice: single-relation closures saturated under join.

    Returned sorted by (n_e, relation list); includes the trivial and full
    parabolics.
    """
    return list(_parabolic_lattice(scheme)[0])


def _parabolic_lattice(scheme: Scheme) -> tuple[list[Parabolic], JoinLattice]:
    """Parabolics with their join lattice (bit s of a member is relation s),
    built once per scheme and kept on it.

    A join is decided by the meet where it can be.  An E-class splits into
    n_E / n_{E∩F} classes of E∩F, each in a different F-class, so
    n_{E∨F} >= n_E n_F / n_{E∩F}; the meet E∩F is the parabolic of the
    common relations, whose block size is the sum of their valencies.  A
    join whose bound passes n/2 is the top, since its size divides n, and
    takes no closure (every join of two components of a spread, say).
    """
    if scheme._parabolics is not None:
        return scheme._parabolics
    found: dict[int, Parabolic] = {}
    valency = np.bincount(scheme.colors[0], minlength=scheme.rank)

    def member(rels) -> tuple[int, int]:
        within, n_e = _closure_mask(scheme, rels)
        bits = bits_of(within)
        if bits not in found:
            found[bits] = _as_parabolic(scheme, within, n_e)
        return bits, n_e

    def join(a: int, b: int) -> tuple[int, int]:
        n_meet = int(valency[indices_of(a & b)].sum())
        if 2 * found[a].n_e * found[b].n_e > scheme.n * n_meet:
            return top
        return member(indices_of(a | b).tolist())

    seeds = [member(())] + [member((s,)) for s in range(1, scheme.rank)]
    top = member(range(scheme.rank))
    lattice = join_closure(seeds, top, join)
    scheme._parabolics = [found[bits] for bits in lattice.members], lattice
    return scheme._parabolics


# -- valency-divide check --------------------------------------------------


class DivideRecord(NamedTuple):
    n_lower: int       # block size of e1
    n_upper: int       # block size of e2
    quotient: int
    ok: bool


def divide_check(scheme: Scheme) -> list[DivideRecord]:
    """k must divide n_{e2}/n_{e1} - 1 for every nested parabolic pair.

    The pairs e1 < e2 are the nonzero entries of the lattice's inclusion
    matrix, in row-major order over `enumerate_parabolics(scheme)`.
    Requires an equivalenced scheme; raises on a non-integer block ratio
    (impossible for genuine parabolics).
    """
    k = scheme.is_equivalenced()
    if k is None:
        raise SchemeError("divide check needs an equivalenced scheme")
    lattice = _parabolic_lattice(scheme)[1]
    lo, hi = np.nonzero(lattice.inclusion)
    sizes = np.asarray(lattice.sizes, dtype=np.int64)
    n_lower, n_upper = sizes[lo], sizes[hi]
    q, rest = np.divmod(n_upper, n_lower)
    if rest.any():
        i = int(np.flatnonzero(rest)[0])
        raise SchemeError("nested parabolics with non-dividing sizes %d, %d"
                          % (n_lower[i], n_upper[i]))
    ok = (q - 1) % k == 0
    return [DivideRecord(*row) for row in zip(n_lower.tolist(), n_upper.tolist(),
                                              q.tolist(), ok.tolist())]


def indistinguishing_number(scheme: Scheme) -> int:
    """max over irreflexive t of sum_s c[s][s*][t]: the number of codes
    r * R + s of the tensor's ref[t] whose s part is the star of their r
    part."""
    T = scheme.tensor()
    r, s = np.divmod(T.ref, T.rank)
    totals = np.count_nonzero(np.asarray(scheme.star)[r] == s, axis=1)
    return int(totals[1:].max())


# -- separability verdict ---------------------------------------------------


class SeparabilityVerdict(NamedTuple):
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
    # Scan triples, then pairs, in size order and row-major: first hit wins.
    order = np.argsort(np.asarray(sizes, dtype=np.int64), kind="stable")
    s = np.asarray(sizes, dtype=np.int64)[order]
    below = np.asarray(incl, dtype=bool)[np.ix_(order, order)]
    mids = below & below.any(axis=1)
    hits = np.flatnonzero(mids.any(axis=1))
    if hits.size:
        a = int(hits[0])
        b = int(np.flatnonzero(mids[a])[0])
        c = int(np.flatnonzero(below[b])[0])
        return SeparabilityVerdict(
            True, n, k, reason="long-chain",
            witness=(1, int(s[a]), int(s[b]), int(s[c]), n),
            pi_count=pi_count, d=d, cases=cases)
    lo, hi = np.nonzero(below)
    msets = np.sort(np.stack([s[lo] - 1, s[hi] // s[lo] - 1, n // s[hi] - 1], axis=1), axis=1)
    allowed = (msets == k).all(axis=1) | (msets == sorted((k, k, 2 * k))).all(axis=1)
    bad = np.flatnonzero(~allowed)
    if bad.size:
        i = int(bad[0])
        return SeparabilityVerdict(
            True, n, k, reason="multiset",
            witness=(int(s[lo[i]]), int(s[hi[i]])) + tuple(msets[i].tolist()),
            pi_count=pi_count, d=d, cases=cases)
    return SeparabilityVerdict(False, n, k, pi_count=pi_count, d=d, cases=cases)


def separability_verdict(subject) -> SeparabilityVerdict:
    """Arithmetic separability for a Scheme or a FrobeniusSpec
    (`_spec_verdict`).

    Separable when (a) n > 3k(k-1)^2, (b) some strict chain of three nested
    nontrivial parabolics exists, or (c) some two-step chain's index
    multiset avoids {{k,k,k}} and {{k,k,2k}}.  Otherwise Undecided, with
    the matching d = 3 parameter cases annotated.  The subject must be
    imprimitive (equivalenced, for schemes).
    """
    if not isinstance(subject, Scheme):
        return _spec_verdict(subject)
    scheme: Scheme = subject
    kk = scheme.is_equivalenced()
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


def _spec_verdict(spec) -> SeparabilityVerdict:
    """`separability_verdict` of a FrobeniusSpec, from `invariant_chain`.

    Every maximal chain of invariant subgroups has the length d of that
    chain and its multiset of indices (see `invariant_chain`).  So for
    d <= 3 the lattice holds no three nested nontrivial members, and for
    d = 3 every two-step chain of nontrivial members has the chain's
    multiset.  The chain alone therefore decides when k = n - 1, when
    n > 3k(k-1)^2, when d = 2, and when d = 3 with index multiset
    {k+1, k+1, k+1} or {k+1, k+1, 2k+1}.  No valid spec falls outside:

    - The complement acts without fixed points on each section
      M_{i+1}/M_i, so each index is 1 mod k: each step (index - 1) is a
      positive multiple of k.
    - If d >= 4, then n >= (k+1)^4 > 3k(k-1)^2.
    - If d = 3 with steps other than {k, k, k} and {k, k, 2k}, then one
      step is at least 3k or two are at least 2k, so
      n >= (k+1)^2 (3k+1) > 3k(k-1)^2.

    So the bound decides every chain that the multisets would not.  The
    premise is checked on the chain: a step that is not a positive
    multiple of k raises AssertionError.
    """
    from .frobenius import chain_sections, invariant_chain
    chain = invariant_chain(spec)
    n, k, d = spec.kernel_order, spec.complement_order, len(chain) - 1
    if d < 2:
        raise ValueError("primitive subject: no nontrivial invariant subgroup")
    steps = [hi.order // lo.order - 1 for lo, hi in zip(chain, chain[1:])]
    if any(step <= 0 or step % k for step in steps):
        raise AssertionError("invariant chain steps %s are not all positive multiples "
                             "of k = %d" % (steps, k))
    cases = d3_cases(n, k, chain_sections(spec, chain)) if d == 3 else ()
    return _verdict_from_chains(n, k, [], np.zeros((0, 0), dtype=bool), d, cases)
