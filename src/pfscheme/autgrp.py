"""Exact automorphism search for schemes, and Frobenius certification.

Backtracking over point images with a boolean candidate matrix: fixing
u -> v prunes every pair constraint in two vectorized comparisons, and
the diagonal color makes assigned rows and columns exclusive for free.
A branch on which every unassigned point has one candidate left is
completed in one step and verified on all pairs.
Used to certify that the automorphism group of a coherent closure is a
Frobenius group (transitive, nontrivial point stabilizer, and no
nonidentity automorphism fixing two points).  The point stabilizer is
always enumerated by search.  Transitivity comes from the scheme's
verified translation certificate (`Scheme.radices`) when it has
one, and from one search 0 -> alpha per point otherwise.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scheme import Scheme, _carries


class _Search:
    def __init__(self, scheme: Scheme):
        self.P = scheme.colors
        self.n = scheme.n

    def _assign(self, img, cand, u: int, v: int):
        """Fix u -> v: keep the candidates x -> y whose colours to and from
        u and v agree, P[x, u] == P[y, v] and P[u, x] == P[v, y]."""
        P = self.P
        img[u] = v
        cand &= np.equal.outer(P[:, u], P[:, v])
        cand &= np.equal.outer(P[u, :], P[v, :])

    def _start(self, partial: dict):
        n = self.n
        cand = np.ones((n, n), dtype=bool)
        img = np.full(n, -1, dtype=np.int64)
        for u, v in partial.items():
            if not cand[u, v]:
                return None
            self._assign(img, cand, u, v)
        return img, cand

    def solutions(self, partial: dict, limit: int | None = None):
        """Yield complete color-preserving maps extending the partial one,
        each an int64 array verified on all n^2 pairs."""
        state = self._start(partial)
        if state is None:
            return
        img0, cand0 = state
        P = self.P
        found = 0
        stack = [(img0, cand0)]
        while stack:
            img, cand = stack.pop()
            while True:
                unassigned = np.nonzero(img < 0)[0]
                counts = cand[unassigned].sum(axis=1)
                if (counts == 0).any():
                    break
                if (counts == 1).all():
                    # Forced: candidate sets only shrink, so this is the only
                    # completion, and assigning point by point would end in
                    # it exactly when it carries every pair.
                    img[unassigned] = cand[unassigned].argmax(axis=1)
                    if _carries(img, P, P):
                        yield img
                        found += 1
                        if limit is not None and found >= limit:
                            return
                    break
                pos = int(np.argmin(counts))
                u = int(unassigned[pos])
                m = int(counts[pos])
                vs = np.nonzero(cand[u])[0]
                if m > 1:
                    for v in vs[:0:-1]:
                        img2, cand2 = img.copy(), cand.copy()
                        self._assign(img2, cand2, u, int(v))
                        stack.append((img2, cand2))
                self._assign(img, cand, u, int(vs[0]))


def automorphism_stabilizer(scheme: Scheme, cap: int | None = None):
    """All automorphisms fixing point 0, up to cap; returns (maps, capped)."""
    limit = None if cap is None else cap + 1
    out = list(_Search(scheme).solutions({0: 0}, limit=limit))
    if cap is not None and len(out) > cap:
        return out[:cap], True
    return out, False


class FrobeniusCertificate(NamedTuple):
    """Outcome of the exact Frobenius check on a scheme's automorphisms."""

    frobenius: bool | None       # None when the enumeration was capped
    transitive: bool | None
    stabilizer_order: int | None
    group_order: int | None
    reason: str
    witness: tuple = ()


def frobenius_certificate(scheme: Scheme) -> FrobeniusCertificate:
    """Transitive + nontrivial stabilizer + nonidentity maps fix one point.

    The stabilizer of point 0 is enumerated up to a cap of n maps
    (fixed-point-free stabilizers have at most n - 1 elements, so the cap
    only triggers when the group is already disqualified).  Transitivity is
    free when `scheme.radices` certifies the scheme: every
    translation x -> x + c is then a verified automorphism.  Without a
    certificate it is established by one map 0 -> alpha per point.
    """
    n = scheme.n
    if n < 2:
        return FrobeniusCertificate(False, True, 1, 1, "degenerate scheme")
    stab, capped = automorphism_stabilizer(scheme, cap=n)
    for img in stab:
        fixed = np.flatnonzero(img == np.arange(n))
        if 2 <= len(fixed) < n:
            return FrobeniusCertificate(
                False, None, None, None,
                "automorphism fixes points %d and %d" % (fixed[0], fixed[1]),
                witness=tuple(img.tolist()))
    if capped:
        return FrobeniusCertificate(None, None, None, None,
                                    "stabilizer enumeration capped at %d" % n)
    m = len(stab)
    if m < 2:
        return FrobeniusCertificate(False, None, m, None,
                                    "point stabilizer is trivial")
    if scheme.radices is None:
        search = _Search(scheme)
        for alpha in range(1, n):
            if next(search.solutions({0: alpha}, limit=1), None) is None:
                return FrobeniusCertificate(False, False, m, None,
                                            "no automorphism moves 0 to %d" % alpha)
    return FrobeniusCertificate(True, True, m, n * m,
                                "transitive with semiregular stabilizer")
