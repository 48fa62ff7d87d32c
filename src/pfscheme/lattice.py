"""Join closure of a lattice whose members are bitsets with sized blocks.

Both lattices the package enumerates have this shape: complement-invariant
subgroups of a kernel of order N (bits are kernel elements, a member's
size is its order) and parabolics of a scheme on N points (bits are
relations, a member's size is its block size).  In both, every member's
size divides N, a member strictly inside another has a size that
strictly divides the other's, and the join of two members is a member
whose size is a common multiple of theirs.  `join_closure` saturates a
set of generating members under join and returns the whole lattice with
its inclusion matrix and the lengths of its longest and shortest maximal
chains.

The seeds must generate the lattice under join.  Every member is then a
join of seeds, and join is associative, so closing under "member v seed"
gives the whole lattice: each member is joined with the seeds only, never
with every earlier member.  The engine keeps its incidences over seeds,
not over members, so its cost follows the joins and the seed incidences
rather than the square of the member count:

- Each new member is tested once against the seeds: a vectorised probe
  of each seed's highest bit, then an exact subset test per hit.  The
  seeds it contains go into `holds[k]`, the bitset of the members that
  contain seed k.
- Each member records its path, the seeds whose join it is.  The members
  above X are those that contain every seed of X's path, so X's up-set is
  the AND of `holds` over that path.
- The seeds member X still has to be joined with are one bitset: its
  partner seeds below it, less the comparable ones and those inside a
  known member of their floor size above X.  A join that makes a new
  member of floor size removes that member's seeds, so the scan runs once
  per join asked.
- At the end the up-sets, in sorted order, give the inclusion matrix, and
  one walk per member over its up-set carries the chain lengths one step
  up to each member just above it.

A lattice of more than MAX_MEMBERS members raises LatticeTooLarge.
"""

from __future__ import annotations

from functools import reduce
from math import gcd
from operator import and_
from typing import NamedTuple

import numpy as np

from .arith import prime_divisors

# A lattice of m members has an m x m inclusion matrix: at this bound it
# takes 256 MB, so a larger lattice is refused, not enumerated.
MAX_MEMBERS = 16384


class LatticeTooLarge(ValueError):
    """The join closure passed MAX_MEMBERS members."""


class JoinLattice(NamedTuple):
    """Members sorted by (size, ascending list of set bits)."""

    members: list[int]            # bitsets
    sizes: list[int]
    inclusion: np.ndarray         # inclusion[i, j]: members[i] is strictly inside members[j]
    longest: int                  # steps of the longest maximal chain bottom..top
    shortest: int                 # steps of the shortest maximal chain


# _REVERSED[b]: the byte b with its bit order reversed
_REVERSED = bytes(int(format(b, "08b")[::-1], 2) for b in range(256))


def bits_of(mask: np.ndarray) -> int:
    """Bitset of a boolean mask (bit i set iff mask[i])."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def indices_of(bits: int) -> np.ndarray:
    """Ascending indices of the set bits."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def join_closure(seeds, top: tuple[int, int], join) -> JoinLattice:
    """Saturate `seeds` under join.

    `seeds` are (bits, size) pairs, nonempty bitsets that contain the
    bottom and generate the lattice under join; `top` is the (bits, size)
    of the greatest member, whose size N every size divides.  `join(a, b)`
    returns the (bits, size) of the join of two incomparable members, of
    which b is always a seed; it is called only when the order arithmetic
    and the known members do not already decide the join, and each pair
    at most once.  Raises LatticeTooLarge past MAX_MEMBERS members.
    """
    top_bits, n = top
    half = n // 2
    primes = prime_divisors(n)
    first: dict[int, int] = {}
    for bits, size in [*seeds, top]:
        first.setdefault(bits, size)
    # A member contains a seed only if it holds the seed's highest bit:
    # one vectorised probe of the member's bytes, then an exact test per hit.
    seed_bits = list(first)
    probes = np.array([b.bit_length() - 1 for b in seed_bits], dtype=np.intp)
    probe_byte, probe_mask = probes >> 3, (1 << (probes & 7)).astype(np.uint8)
    n_bytes = (top_bits.bit_length() + 7) // 8
    n_seeds = len(first)
    members: list[int] = []
    sizes: list[int] = []
    keys: list[int] = []                 # sort key within a size, see below
    paths: list[tuple[int, ...]] = []    # seeds whose join the member is
    outside: list[int] = []              # ~outside[t]: bitset of the seeds in member t
    holds = [0] * n_seeds                # holds[k]: bitset of the members containing seed k
    of_size: dict[int, int] = {}         # size -> bitset of the members of that size
    known: set[int] = set()

    def add(bits: int, size: int, path: tuple[int, ...]) -> None:
        if bits in known:
            return
        t = len(members)
        if t >= MAX_MEMBERS:
            raise LatticeTooLarge("the lattice has more than %d members; its inclusion "
                                  "matrix would not fit in 256 MB" % MAX_MEMBERS)
        raw = bits.to_bytes(n_bytes, "little")
        rest = ~bits
        bit, seeds_in = 1 << t, 0
        hits = np.frombuffer(raw, dtype=np.uint8)[probe_byte] & probe_mask
        for k in hits.nonzero()[0].tolist():
            if not seed_bits[k] & rest:
                holds[k] |= bit
                seeds_in |= 1 << k
        known.add(bits)
        members.append(bits)
        sizes.append(size)
        keys.append(int.from_bytes(raw.translate(_REVERSED), "big"))
        paths.append(path)
        outside.append(~seeds_in)
        of_size[size] = of_size.get(size, 0) | bit

    def floor(la: int, lb: int) -> int:
        # The join of incomparable members has a size that divides n, is a
        # common multiple of both sizes and exceeds each: at least this.
        lcm = la * lb // gcd(la, lb)
        if lcm > max(la, lb) or lcm == n:
            return lcm
        return lcm * next(p for p in primes if n // lcm % p == 0)

    for k, (bits, size) in enumerate(first.items()):
        add(bits, size, (k,))
    seeds_of_size: dict[int, int] = {}
    for j in range(n_seeds):
        seeds_of_size[sizes[j]] = seeds_of_size.get(sizes[j], 0) | 1 << j
    # size -> {floor: bitset of the seeds whose join with a member of that
    # size has this floor}, for floors up to n/2 (above, only the top)
    partners: dict[int, dict[int, int]] = {}
    i = 0
    while i < len(members):
        la = sizes[i]
        groups = partners.get(la)
        if groups is None:
            groups = partners[la] = {}
            for lb, group in seeds_of_size.items():
                if (f := floor(la, lb)) <= half:
                    groups[f] = groups.get(f, 0) | group
        if not groups:                   # every join with member i is the top
            i += 1
            continue
        # Skip the seeds comparable with member i, and the seeds inside a
        # known member of exactly their floor size above i: the join lies
        # inside it and is at least as large, so it is that member.
        up = reduce(and_, map(holds.__getitem__, paths[i])) & ~(1 << i)
        open_ = ((1 << min(i, n_seeds)) - 1) & outside[i] & ~up
        todo = 0
        for f, group in groups.items():
            cand = group & open_
            if cand:
                above = up & of_size.get(f, 0)
                while above and cand:
                    k = above.bit_length() - 1
                    cand &= outside[k]
                    above ^= 1 << k
                todo |= cand
        a, path = members[i], paths[i]
        while todo:
            low = todo & -todo
            todo ^= low
            j = low.bit_length() - 1
            t = len(members)
            add(*join(a, members[j]), path + (j,))
            if len(members) > t:
                todo &= outside[t] | ~groups.get(sizes[t], 0)
        i += 1

    # Within one size no member's list of set bits is a proper prefix of
    # another's (that would be a strict inclusion), so the lists compare
    # as their least differing bit: the ascending lists sort as the bits
    # read from bit 0 down, as `keys` holds them, in descending order.
    m = len(members)
    order = sorted(range(m), key=lambda i: (sizes[i], -keys[i]))
    # Renumber the members in sorted order: move the bit columns of `holds`
    # once, then read each up-set off its path in the new numbering.
    rank = np.empty(m, dtype=np.intp)
    rank[order] = np.arange(m)
    moved = np.zeros((n_seeds, m), dtype=bool)
    moved[:, rank] = _unpack(holds, m)
    holds = _pack(moved)
    ups = [reduce(and_, map(holds.__getitem__, paths[i])) & ~(1 << r)
           for r, i in enumerate(order)]
    longest, shortest = _chain_lengths(ups)
    return JoinLattice(members=[members[i] for i in order], sizes=[sizes[i] for i in order],
                       inclusion=_unpack(ups, m), longest=longest, shortest=shortest)


def _unpack(bitsets: list[int], m: int) -> np.ndarray:
    """Bool matrix whose row r has bit j of bitsets[r] in column j < m."""
    width = (m + 7) // 8
    raw = np.frombuffer(b"".join(b.to_bytes(width, "little") for b in bitsets), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(bitsets), width), axis=1, count=m,
                         bitorder="little").view(bool)


def _pack(matrix: np.ndarray) -> list[int]:
    """The rows of a bool matrix as bitsets (bit j of row r is matrix[r, j])."""
    packed = np.packbits(matrix, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[r * width:(r + 1) * width], "little") for r in range(len(packed))]


def _chain_lengths(ups: list[int]) -> tuple[int, int]:
    """Steps of the longest and shortest maximal chains bottom..top, from
    strict up-sets over members in a linear extension of the order (a
    member's index exceeds those below it).

    Walk each up-set from its lowest index: that member has nothing of
    the up-set below it, so it is a cover, and everything above it is not;
    the walk takes one step per cover.  The walks run bottom first, so a
    member's chain lengths are final before its own walk, which carries
    them one step up each cover."""
    m = len(ups)
    rest = [~(up | 1 << j) for j, up in enumerate(ups)]
    longest = [0] * m
    shortest = [0] + [m] * (m - 1)
    for i, up in enumerate(ups):
        step_long, step_short = longest[i] + 1, shortest[i] + 1
        while up:
            j = (up & -up).bit_length() - 1
            if longest[j] < step_long:
                longest[j] = step_long
            if shortest[j] > step_short:
                shortest[j] = step_short
            up &= rest[j]
    return longest[-1], shortest[-1]
