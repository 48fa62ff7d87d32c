"""Spreads of the plane F_q x F_q and the schemes they color.

A spread partitions the nonzero vectors into q + 1 additive subgroups of
order q (components).  Coloring each pair of points by the component
containing their difference gives an equivalenced scheme of valency
q - 1 whose intersection tensor is the same for every spread of the same
order; the Desarguesian spread reproduces the orbital scheme of scalar
multiplication, while derived spreads (Andre/Hall) can produce schemes
that share that tensor without being isomorphic to it.

Vectors (a, b) are indexed as a + b*q with field elements encoded base p
(`gf`), so an index is 2e little-endian base-p digits in the sense of
`arith` and vector addition is `digit_add`.  This is the element order of
the elementary-abelian kernel factors, so the Desarguesian spread scheme
and the orbital scheme of a scalar spec agree entry by entry after
canonical relabeling.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .arith import difference_table, digit_add, prime_power
from .frobenius import ElementaryAbelianFactor, FrobeniusSpec
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


def _field(q: int) -> FiniteField:
    pe = prime_power(q)
    if pe is None:
        raise ValueError("%d is not a prime power" % q)
    return GF(q)


def _vector_radices(q: int) -> list[int]:
    """Digit radices of a vector index a + b*q: e base-p digits each."""
    F = _field(q)
    return [F.p] * (2 * F.e)


def verify_spread(spread: Spread) -> None:
    """Independent axiom check: subgroups, trivial intersections, cover."""
    q, radices = spread.q, _vector_radices(spread.q)
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


def _canonical(q: int, comps) -> Spread:
    p, e = prime_power(q)
    ordered = tuple(sorted(tuple(sorted(c)) for c in comps))
    return Spread(q=q, p=p, e=e, components=ordered)


def desarguesian_spread(q: int) -> Spread:
    """Lines y = mx for m in F_q, plus the vertical line x = 0."""
    F = _field(q)
    xs = np.arange(q)
    lines = xs + F.mul(xs[:, None], xs) * q          # row m: the line y = m x
    out = _canonical(q, [(xs * q).tolist(), *lines.tolist()])
    verify_spread(out)
    return out


def andre_spread(q: int, s: int | None = None, delta: int = 1) -> Spread:
    """Replace the norm-delta lines y = mx by y = m x^s.

    q must be the square of a prime power q0; s defaults to q0, the
    exponent generating the relevant field automorphism, and delta picks
    which norm class of slopes is replaced.  delta = 1 with the default s
    gives the Hall spread.
    """
    F = _field(q)
    p, e = prime_power(q)
    if e % 2:
        raise ValueError("derived spreads need q to be a square")
    q0 = p ** (e // 2)
    if s is None:
        s = q0
    if s % p or F.frobenius(F.primitive_element(), s * q0) != F.primitive_element():
        raise ValueError("s must generate the automorphism x -> x^%d" % q0)
    if not 1 <= delta < q0:
        raise ValueError("delta must be a nonzero norm value below %d" % q0)
    xs = np.arange(q)
    twisted = F.norm_to_subfield(xs, q0) == delta     # slope 0 has norm 0
    if twisted.sum() != q0 + 1:
        raise AssertionError("norm class has unexpected size %d" % twisted.sum())
    slopes = xs[:, None]
    ys = np.where(twisted[:, None], F.mul(slopes, F.frobenius(xs, s)), F.mul(slopes, xs))
    out = _canonical(q, [(xs * q).tolist(), *(xs + ys * q).tolist()])
    verify_spread(out)
    return out


def hall_spread(q: int) -> Spread:
    return andre_spread(q)


def spread_scheme(spread: Spread) -> Scheme:
    """Color pairs by the component of their difference (b - a and a - b
    lie in the same component, a subgroup), component i as colour i + 1.
    That is the canonical numbering: the components have one valency, and
    as sorted tuples they are ordered by their least nonzero point."""
    return translation_scheme(spread.component_of() + 1, difference_table(_vector_radices(spread.q)))


def scalar_spec(q: int, dim: int = 2) -> FrobeniusSpec:
    """Elementary-abelian kernel F_q^dim with the scalar group F_q^* on top."""
    if q < 3:
        raise ValueError("scalar complement needs q >= 3")
    F = _field(q)
    M = F.mul_matrix(F.primitive_element())
    # M in each of dim diagonal blocks; the factor refuses dim < 1
    big = np.kron(np.eye(max(dim, 0), dtype=np.int64), M)
    factor = ElementaryAbelianFactor(F.p, F.e * dim, (big.tolist(),))
    return FrobeniusSpec(kernel_factors=(factor,), complement_order=q - 1)
