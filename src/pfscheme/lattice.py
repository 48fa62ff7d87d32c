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
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .arith import divisors


@dataclass(frozen=True)
class JoinLattice:
    """Members sorted by (size, ascending list of set bits)."""

    members: list[int]            # bitsets
    sizes: list[int]
    inclusion: np.ndarray         # inclusion[i, j]: members[i] is strictly inside members[j]
    longest: int                  # steps of the longest maximal chain bottom..top
    shortest: int                 # steps of the shortest maximal chain


def bits_of(mask: np.ndarray) -> int:
    """Bitset of a boolean mask (bit i set iff mask[i])."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def indices_of(bits: int) -> np.ndarray:
    """Ascending indices of the set bits."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def join_closure(seeds, top: tuple[int, int], join) -> JoinLattice:
    """Saturate `seeds` under join.

    `seeds` are (bits, size) pairs and must contain the bottom; `top` is
    the (bits, size) of the greatest member, whose size N every size
    divides.  `join(a, b)` returns the (bits, size) of the join of two
    incomparable members; it is called only when the order arithmetic
    does not already decide the join.  Each unordered pair of members is
    joined at most once.
    """
    top_bits, n = top
    half = n // 2
    divs = divisors(n)
    members: list[int] = []
    sizes: list[int] = []
    by_size: dict[int, list[int]] = {}
    known: set[int] = set()
    floors: dict[tuple[int, int], int] = {}

    def add(bits: int, size: int) -> None:
        if bits not in known:
            known.add(bits)
            members.append(bits)
            sizes.append(size)
            by_size.setdefault(size, []).append(bits)

    for bits, size in seeds:
        add(bits, size)
    add(top_bits, n)
    i = 0
    while i < len(members):
        a, la = members[i], sizes[i]
        above: dict[int, list[int]] = {}     # size -> known members containing a
        for j in range(i):
            b, lb = members[j], sizes[j]
            # The join of incomparable members has a size that divides n,
            # is a common multiple of both sizes and exceeds each.  Above
            # n/2 only the top qualifies, and a known member of exactly the
            # smallest feasible size that contains both is the join: the
            # join lies inside it and is at least as large.  Pairs that are
            # skipped here because of their sizes need no comparability test.
            floor = floors.get((la, lb))
            if floor is None:
                lcm = la * lb // gcd(la, lb)
                floor = floors[la, lb] = next(
                    (d for d in divs if d % lcm == 0 and d > max(la, lb)), n)
            if floor > half:
                continue
            if (la % lb == 0 and b & ~a == 0) or (lb % la == 0 and a & ~b == 0):
                continue
            ups = above.get(floor)
            if ups is None:
                ups = above[floor] = [s for s in by_size.get(floor, ()) if a & ~s == 0]
            if any(b & ~s == 0 for s in ups):
                continue
            bits, size = join(a, b)
            if bits not in known:
                add(bits, size)
                if size in above:
                    above[size].append(bits)
        i += 1

    order = sorted(range(len(members)),
                   key=lambda i: (sizes[i], indices_of(members[i]).tolist()))
    members = [members[i] for i in order]
    sizes = [sizes[i] for i in order]
    m = len(members)
    incl = np.zeros((m, m), dtype=bool)
    for i in range(m):
        a = members[i]
        for j in range(i + 1, m):
            if sizes[i] < sizes[j] and a & ~members[j] == 0:
                incl[i, j] = True
    # Chain lengths over covering pairs, bottom first (members are in size order).
    cov = covers(incl)
    longest = [0] * m
    shortest = [0] * m
    for j in range(1, m):
        preds = np.flatnonzero(cov[:, j])
        longest[j] = max(longest[p] for p in preds) + 1
        shortest[j] = min(shortest[p] for p in preds) + 1
    return JoinLattice(members=members, sizes=sizes, inclusion=incl,
                       longest=longest[-1], shortest=shortest[-1])


def covers(inclusion: np.ndarray) -> np.ndarray:
    """Covering pairs of a strict inclusion matrix: no member in between."""
    between = np.zeros_like(inclusion)
    for k in np.flatnonzero(inclusion.any(axis=0) & inclusion.any(axis=1)):
        between |= inclusion[:, k, None] & inclusion[None, k, :]
    return inclusion & ~between
