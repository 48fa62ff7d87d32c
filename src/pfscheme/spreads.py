"""Spreads of the plane F_q x F_q and the schemes they color.

A spread partitions the nonzero vectors into q + 1 additive subgroups of
order q (components).  Coloring each pair of points by the component
containing their difference gives an equivalenced scheme of valency
q - 1 whose intersection tensor is the same for every spread of the same
order; the Desarguesian spread reproduces the orbital scheme of scalar
multiplication, while the Hall spread, derived from it, gives a scheme
that shares that tensor without being isomorphic to it.

Vectors (a, b) are indexed as a + b*q with field elements encoded base p
(`gf`), so an index is 2e little-endian base-p digits in the sense of
`arith` and vector addition is `digit_add`.  This is the element order of
the elementary-abelian kernel factors, so the Desarguesian spread scheme
and the orbital scheme of a scalar spec agree entry by entry after
canonical relabeling (`catalog.scalar_spec` builds that spec).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arith import difference_table, digit_add
from .gf import GF, FiniteField
from .scheme import Scheme, SchemeError, translation_scheme


class Spread(NamedTuple):
    q: int
    p: int
    e: int
    components: tuple        # sorted tuples of vector indices, each containing 0

    @property
    def n(self) -> int:
        return self.q * self.q

    def component_of(self) -> np.ndarray:
        """Vector index -> component id (-1 for the zero vector)."""
        out = np.full(self.n, -1, dtype=np.int64)
        for i, comp in enumerate(self.components):
            for w in comp:
                if w:
                    out[w] = i
        return out


def _vector_radices(spread: Spread) -> list[int]:
    """Digit radices of a vector index a + b*q: e base-p digits each."""
    return [spread.p] * (2 * spread.e)


def verify_spread(spread: Spread) -> None:
    """Independent axiom check: subgroups, trivial intersections, cover."""
    q, radices = spread.q, _vector_radices(spread)
    if len(spread.components) != q + 1:
        raise SchemeError("expected %d components, got %d"
                          % (q + 1, len(spread.components)))
    covered = set()
    for comp in spread.components:
        cs = set(comp)
        if len(cs) != q or 0 not in cs:
            raise SchemeError("component is not a subgroup of order %d" % q)
        c = np.asarray(comp, dtype=np.int64)
        if not np.isin(digit_add(c[:, None], c[None, :], radices), c).all():
            raise SchemeError("component not closed under addition")
        overlap = (cs - {0}) & covered
        if overlap:
            raise SchemeError("components share nonzero vector %d" % min(overlap))
        covered |= cs - {0}
    if len(covered) != q * q - 1:
        raise SchemeError("components do not cover the nonzero vectors")


def _spread(F: FiniteField, powers: np.ndarray) -> Spread:
    """The spread of the vertical line x = 0 and the lines y = m x^powers[m],
    m in F_q, once `verify_spread` accepts it; its components are sorted
    tuples, in sorted order."""
    xs = np.arange(F.q)
    ys = F.mul(xs[:, None], F.pow(xs, powers[:, None]))
    lines = [(xs * F.q).tolist(), *(xs + ys * F.q).tolist()]
    out = Spread(q=F.q, p=F.p, e=F.e, components=tuple(sorted(tuple(sorted(c)) for c in lines)))
    verify_spread(out)
    return out


def desarguesian_spread(q: int) -> Spread:
    """Lines y = mx for m in F_q, plus the vertical line x = 0."""
    return _spread(GF(q), np.ones(q, dtype=np.int64))


def hall_spread(q: int) -> Spread:
    """For q = q0^2, replace the q0 + 1 lines y = mx whose slope has norm 1
    in F_q0 by y = m x^q0, x -> x^q0 being the automorphism fixing F_q0."""
    F = GF(q)
    if F.e % 2:
        raise ValueError("derived spreads need q to be a square")
    q0 = F.p ** (F.e // 2)
    twisted = F.norm_to_subfield(np.arange(q), q0) == 1     # slope 0 has norm 0
    if twisted.sum() != q0 + 1:
        raise AssertionError("norm class has unexpected size %d" % twisted.sum())
    return _spread(F, np.where(twisted, q0, 1))


def spread_scheme(spread: Spread) -> Scheme:
    """Color pairs by the component of their difference (b - a and a - b
    lie in the same component, a subgroup), component i as colour i + 1.
    That is the canonical numbering: the components have one valency, and
    as sorted tuples they are ordered by their least nonzero point."""
    return translation_scheme(spread.component_of() + 1, difference_table(_vector_radices(spread)))
