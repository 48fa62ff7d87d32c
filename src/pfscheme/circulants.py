"""Circulant graphs whose arc colorings feed the WL-dimension classifier.

A circulant is a Cayley graph over Z_n.  When the connection set is a
union of orbits of a fixed-point-free unit group K, the graph carries
Z_n x| K inside its automorphism group by construction; that subgroup is
the certificate the classifier tries first.  The arc colouring,
`color_matrix`, is a read-only view of its row 0: the WL closure finds
its Z_n translation certificate itself.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class CirculantSpec:
    """n, generating units of K, and K-orbit representatives."""

    def __init__(self, n: int, units: tuple, orbit_reps: tuple):
        if n < 2:
            raise ValueError("need n >= 2")
        for u in units:
            if gcd(u, n) != 1:
                raise ValueError("%d is not a unit mod %d" % (u, n))
        if not orbit_reps:
            raise ValueError("need at least one orbit representative")
        for r in orbit_reps:
            if r % n == 0:
                raise ValueError("orbit representatives must be nonzero")
        self.n, self.units, self.orbit_reps = n, units, orbit_reps


def unit_closure(n: int, gens) -> frozenset:
    """Multiplicative closure of the given units mod n."""
    group = {1}
    frontier = [1]
    gens = sorted({g % n for g in gens})
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = a * g % n
                if b not in group:
                    group.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(group)


def fixed_point_free(n: int, units) -> int | None:
    """First nonidentity unit with a nonzero fixed point, else None."""
    for u in sorted(units):
        if u != 1 and gcd(u - 1, n) != 1:
            return u
    return None


class Circulant(NamedTuple):
    n: int
    connection: frozenset
    spec: CirculantSpec | None = None

    @property
    def symmetric(self) -> bool:
        return all((-c) % self.n in self.connection for c in self.connection)


def frobenius_circulant(spec: CirculantSpec) -> Circulant:
    """Connection set = union of the K-orbits of the representatives.

    K is the closure of the given units; every nonidentity element must
    act without nonzero fixed points and |K| must be at least 2, so that
    Z_n x| K is a Frobenius subgroup of the automorphism group.
    """
    K = unit_closure(spec.n, spec.units)
    if len(K) < 2:
        raise ValueError("unit group is trivial; need |K| >= 2")
    bad = fixed_point_free(spec.n, K)
    if bad is not None:
        h = spec.n // gcd(bad - 1, spec.n)
        raise ValueError("unit %d fixes nonzero residue %d" % (bad, h))
    conn = set()
    for r in spec.orbit_reps:
        for u in K:
            conn.add(r * u % spec.n)
    return Circulant(n=spec.n, connection=frozenset(conn), spec=spec)


def circulant_from_connection(n: int, connection) -> Circulant:
    if n < 2:
        raise ValueError("need n >= 2")
    conn = frozenset(c % n for c in connection)
    if 0 in conn:
        raise ValueError("connection set must avoid 0")
    return Circulant(n=n, connection=conn)


def color_matrix(circ: Circulant) -> np.ndarray:
    """The 0/1 arc matrix M[a, b] = [b - a in S] (uint8), as a read-only
    view of 2n - 1 bytes: row a is row 0 turned right by a places.  The
    WL closure does its own diagonal/transpose split."""
    row = np.zeros(circ.n, dtype=np.uint8)
    row[list(circ.connection)] = 1
    # window i of row[1:] + row is row 0 turned right by n - 1 - i places
    return sliding_window_view(np.concatenate((row, row))[1:], circ.n)[::-1]


def preserving_units(circ: Circulant) -> frozenset:
    """All units u with u*S = S; contains any K the graph was built from."""
    n, S = circ.n, circ.connection
    out = set()
    for u in range(1, n):
        if gcd(u, n) != 1:
            continue
        if all(u * c % n in S for c in S):
            out.add(u)
    return frozenset(out)


def certificate_unit_groups(circ: Circulant) -> list[frozenset]:
    """Candidate fixed-point-free unit groups, largest first.

    The full connection-preserving unit group is tried when it is itself
    fixed point free; cyclic subgroups generated by single preserving
    units follow.  Any returned K satisfies |K| >= 2 and leaves the
    connection set invariant, hence Z_n x| K acts on the graph.
    """
    U = preserving_units(circ)
    candidates = []
    if len(U) >= 2 and fixed_point_free(circ.n, U) is None:
        candidates.append(U)
    seen = {frozenset({1})}
    for u in sorted(U):
        sub = unit_closure(circ.n, [u])
        if sub in seen or len(sub) < 2:
            continue
        seen.add(sub)
        if fixed_point_free(circ.n, sub) is None:
            candidates.append(sub)
    candidates.sort(key=lambda K: (-len(K), sorted(K)))
    out = []
    for K in candidates:
        if K not in out:
            out.append(K)
    return out
