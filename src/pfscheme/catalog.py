"""Deterministic batch of imprimitive Frobenius specifications, and the
spec builders it is made from.

The batch feeds the arithmetic separability sweep: more than fifty specs
with kernel order at most 4000, mixing cyclic kernels under negation or
a larger unit, elementary abelian kernels under scalar groups, field
cubes, coprime pairs of squares, and mixed kernels.  Every entry is
imprimitive (the kernel has a proper nontrivial complement-invariant
subgroup), which is the hypothesis of the separability criteria.  Every
elementary abelian factor is F_q^dim under the scalars of some order k,
built by one helper; `scalar_spec` (k = q - 1) also serves
`gen frobenius --scalar Q,DIM` and the verification suite.
"""

from __future__ import annotations

import numpy as np

from .arith import is_prime, mult_order
from .frobenius import CyclicFactor, ElementaryAbelianFactor, FrobeniusSpec

KERNEL_CAP = 4000


def negation_spec(m: int) -> FrobeniusSpec:
    """Z_m under negation; valid for odd m >= 3."""
    return FrobeniusSpec((CyclicFactor(m, (m - 1,)),), 2)


def cyclic_unit_spec(m: int, u: int) -> FrobeniusSpec:
    return FrobeniusSpec((CyclicFactor(m, (u,)),), mult_order(u, m))


def _scalar_factor(q: int, k: int, dim: int) -> ElementaryAbelianFactor:
    """F_q^dim as an F_p factor under the scalars of order k (k divides
    q - 1): the matrix of their generator in dim diagonal blocks."""
    from .gf import GF          # here, so that a cyclic spec runs no `gf`
    F = GF(q)
    w = F.pow(F.primitive_element(), (q - 1) // k)
    # the factor refuses dim < 1
    blocks = np.kron(np.eye(max(dim, 0), dtype=np.int64), F.mul_matrix(w))
    return ElementaryAbelianFactor(F.p, F.e * dim, (blocks.tolist(),))


def scalar_spec(q: int, dim: int = 2) -> FrobeniusSpec:
    """Elementary-abelian kernel F_q^dim with the scalar group F_q^* on top."""
    if q < 3:
        raise ValueError("scalar complement needs q >= 3")
    return FrobeniusSpec((_scalar_factor(q, q - 1, dim),), q - 1)


def field_cube_spec(p: int, k: int) -> FrobeniusSpec:
    """F_{p^3} kernel with the scalar subgroup of order k."""
    return FrobeniusSpec((_scalar_factor(p ** 3, k, 1),), k)


def double_prime_spec(p: int, q: int, k: int) -> FrobeniusSpec:
    """F_{p^2} + F_{q^2} kernel with a diagonal order-k scalar pair."""
    return FrobeniusSpec((_scalar_factor(p * p, k, 1), _scalar_factor(q * q, k, 1)), k)


def mixed_spec(m: int, u: int, q: int) -> FrobeniusSpec:
    """Z_m + F_q^2 kernel; the unit u and the scalar group share order q-1."""
    k = q - 1
    if mult_order(u, m) != k:
        raise ValueError("unit order must match q - 1")
    return FrobeniusSpec((CyclicFactor(m, (u,)), _scalar_factor(q, k, 2)), k)


def _odd_composites(count: int) -> list[int]:
    out = []
    m = 9
    while len(out) < count:
        if not is_prime(m):
            out.append(m)
        m += 2
    return out


def batch_specs() -> list[tuple[str, FrobeniusSpec]]:
    """The named catalog, deterministic and order-stable."""
    entries: list[tuple[str, FrobeniusSpec]] = []

    # Cyclic kernels under negation: the first 32 odd composites (9..123).
    for m in _odd_composites(32):
        entries.append(("neg-%d" % m, negation_spec(m)))

    # Cyclic kernels with a unit of order 3 or 4.
    for m, u in ((65, 57), (85, 38), (91, 16), (185, 68), (205, 32), (259, 121)):
        entries.append(("cyc-%d-%d" % (m, u), cyclic_unit_spec(m, u)))

    # Scalar groups on F_q^2.
    for q in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25):
        entries.append(("scalar-%d" % q, scalar_spec(q, 2)))

    # F_{p^3} with scalar subgroups; k = p-1 gives the one-prime-cube shape.
    for p, k in ((7, 6), (11, 10), (13, 12), (3, 2), (5, 4), (13, 6), (11, 5)):
        entries.append(("cube-%d-%d" % (p, k), field_cube_spec(p, k)))

    # Two coprime squares with a shared scalar order.
    for p, q, k in ((3, 5, 2), (5, 7, 4), (3, 7, 2), (5, 11, 4)):
        entries.append(("double-%d-%d-%d" % (p, q, k), double_prime_spec(p, q, k)))

    # Mixed cyclic x elementary abelian kernels.
    entries.append(("mixed-7-4", mixed_spec(7, 2, 4)))
    entries.append(("mixed-17-9", mixed_spec(17, 2, 9)))

    return entries
