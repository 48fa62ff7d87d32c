"""Join closure of a lattice whose members are bitsets with sized blocks.

Both lattices the package enumerates have this shape: complement-invariant
subgroups of a kernel of order N (bits are kernel elements, a member's
size is its order) and parabolics of a scheme on N points (bits are
relations, a member's size is its block size).  In both, every member's
size divides N, strict inclusion strictly increases the size, and the
join of two members is a member whose size is a common multiple of
theirs.  `join_closure` saturates a set of generating members under join
and returns the whole lattice with its inclusion matrix and the lengths
of its longest and shortest maximal chains.

The seeds must generate the lattice under join.  Every member is then a
join of seeds, and join is associative, so closing under "member v seed"
gives the whole lattice: each member is joined with the seeds only, never
with every earlier member.  Each member keeps its strict up-set as a
bitset over member indices, updated as members are added, so a
comparability test is one bit test, the test "a known member of the
floor size contains both" is one AND, and the inclusion matrix is read
off the up-sets at the end.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

import numpy as np

from .arith import divisors


class JoinLattice(NamedTuple):
    """Members sorted by (size, ascending list of set bits)."""

    members: list[int]            # bitsets
    sizes: list[int]
    inclusion: np.ndarray         # inclusion[i, j]: members[i] is strictly inside members[j]
    longest: int                  # steps of the longest maximal chain bottom..top
    shortest: int                 # steps of the shortest maximal chain
    cover: np.ndarray             # covers(inclusion)
    elements: list[list[int]] = []     # ascending set bits of each member (never mutated)


def bits_of(mask: np.ndarray) -> int:
    """Bitset of a boolean mask (bit i set iff mask[i])."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def indices_of(bits: int) -> np.ndarray:
    """Ascending indices of the set bits."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def join_closure(seeds, top: tuple[int, int], join) -> JoinLattice:
    """Saturate `seeds` under join.

    `seeds` are (bits, size) pairs that contain the bottom and generate
    the lattice under join; `top` is the (bits, size) of the greatest
    member, whose size N every size divides.  `join(a, b)` returns the
    (bits, size) of the join of two incomparable members, of which b is
    always a seed; it is called only when the order arithmetic and the
    known members do not already decide the join.  Every member is a join
    of seeds and join is associative, so each member is joined with the
    seeds only, and each such pair at most once.  Each new member's set
    bits are listed once, for the sort, and returned as `elements`; the
    covering pairs, which the chain lengths need, are returned as `cover`.
    """
    top_bits, n = top
    half = n // 2
    divs = divisors(n)
    members: list[int] = []
    sizes: list[int] = []
    ups: list[int] = []                  # ups[i]: bitset of the members strictly above i
    of_size: dict[int, int] = {}         # size -> bitset of the members of that size
    elements: list[list[int]] = []      # ascending set bits of each member
    known: set[int] = set()

    def add(bits: int, size: int) -> None:
        if bits in known:
            return
        t = len(members)
        bit, up = 1 << t, 0
        for k, (b, s) in enumerate(zip(members, sizes)):
            if s < size:
                if size % s == 0 and b & ~bits == 0:
                    ups[k] |= bit
            elif s > size and s % size == 0 and bits & ~b == 0:
                up |= 1 << k
        known.add(bits)
        members.append(bits)
        elements.append(indices_of(bits).tolist())
        sizes.append(size)
        ups.append(up)
        of_size[size] = of_size.get(size, 0) | bit

    def floor(la: int, lb: int) -> int:
        # The join of incomparable members has a size that divides n, is a
        # common multiple of both sizes and exceeds each: at least this.
        lcm = la * lb // gcd(la, lb)
        return next((d for d in divs if d % lcm == 0 and d > max(la, lb)), n)

    for bits, size in seeds:
        add(bits, size)
    add(top_bits, n)
    n_seeds = len(members)
    # size -> the seeds whose join with a member of that size may lie below
    # the top (above n/2 only the top qualifies), with the floor of each
    partners: dict[int, list[tuple[int, int]]] = {}
    i = 0
    while i < len(members):
        a, la = members[i], sizes[i]
        if la not in partners:
            partners[la] = [(j, f) for j in range(n_seeds)
                            if (f := floor(la, sizes[j])) <= half]
        for j, f in partners[la]:
            if j >= i:
                break
            # Skip comparable pairs, and pairs that a known member of exactly
            # the floor size contains: the join lies inside it and is at
            # least as large, so it is that member.
            up_a, up_b = ups[i], ups[j]
            if up_a >> j & 1 or up_b >> i & 1 or up_a & up_b & of_size.get(f, 0):
                continue
            add(*join(a, members[j]))
        i += 1

    m = len(members)
    order = sorted(range(m), key=lambda i: (sizes[i], elements[i]))
    width = (m + 7) // 8
    raw = np.frombuffer(b"".join(up.to_bytes(width, "little") for up in ups), dtype=np.uint8)
    incl = np.unpackbits(raw.reshape(m, width), axis=1, count=m,
                         bitorder="little").view(bool)[np.ix_(order, order)]
    members = [members[i] for i in order]
    sizes = [sizes[i] for i in order]
    elements = [elements[i] for i in order]
    # Chain lengths over covering pairs, bottom first (members are in size order).
    cov = covers(incl)
    longest = [0] * m
    shortest = [0] * m
    for j in range(1, m):
        preds = np.flatnonzero(cov[:, j])
        longest[j] = max(longest[p] for p in preds) + 1
        shortest[j] = min(shortest[p] for p in preds) + 1
    return JoinLattice(members=members, sizes=sizes, inclusion=incl, longest=longest[-1],
                       shortest=shortest[-1], elements=elements, cover=cov)


def covers(inclusion: np.ndarray) -> np.ndarray:
    """Covering pairs of a strict inclusion matrix: no member in between.

    j does not cover i exactly when j lies above some member above i, so
    the non-covers of row i are the OR of the rows of the members above i,
    taken on bit-packed rows."""
    m = len(inclusion)
    packed = np.packbits(inclusion, axis=1)
    between = np.zeros_like(packed)
    for i in range(m):
        above = np.flatnonzero(inclusion[i])
        if above.size:
            between[i] = np.bitwise_or.reduce(packed[above], axis=0)
    return inclusion & ~np.unpackbits(between, axis=1, count=m).view(bool)
