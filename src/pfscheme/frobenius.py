"""Frobenius groups H x| K presented by their action data.

The kernel H is a direct product of cyclic and elementary abelian factors;
the complement K is given by its action on each factor (a unit multiplier
for cyclic factors, an invertible matrix for elementary abelian ones, one
entry per complement generator).

A kernel element is an index in range(|H|), read as the little-endian
mixed-radix digits of `arith` on `FrobeniusSpec.radices`: one digit of
radix m per cyclic factor Z_m, and one base-p digit per coordinate of an
elementary abelian factor.  Addition is `arith.digit_add`.  The
complement is one cached (k, n) table, `FrobeniusSpec.complement`: the
generator tables (`_generator_tables`) closed under composition, with the
identity in row 0.  `validate` checks that the table has exactly
`complement_order` rows and that no row but the identity fixes a nonzero
index.  `scheme.frobenius_scheme` builds the orbital scheme from these
tables; `build_frobenius` returns the permutation group on H generated by
the translations and the complement, the reference that scheme is tested
against.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .arith import (
    _radix_arrays,
    d3_cases,
    digit_add,
    digit_strides,
    divisors,
    is_prime,
    prime_divisors,
    prime_power,
    sorted_unique,
)
from .lattice import bits_of, indices_of, join_closure

if TYPE_CHECKING:                       # imported by build_frobenius alone
    from .perms import PermGroup


# Entries of the largest (k, n) complement or (n, len(radices)) digit table,
# 512 MB as int64.  Past it a spec is refused: k rows of n entries would
# exhaust memory with no single allocation large enough to raise MemoryError.
MAX_TABLE_ENTRIES = 1 << 26


class FrobeniusError(ValueError):
    """Spec fails to define a Frobenius group; carries a witness when one exists.

    For a fixed-point violation, `witness` is (images, h): the complement
    element, named by its images of the unit-vector indices
    (`digit_strides(spec.radices)`), and the least nonzero kernel index it
    fixes.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class CyclicFactor:
    """Z_m kernel factor; units[j] is the action of complement generator j."""

    def __init__(self, modulus: int, units: tuple[int, ...]):
        if modulus < 2:
            raise FrobeniusError("cyclic factor needs modulus >= 2, got %r" % (modulus,))
        self.modulus = modulus
        self.units = tuple(int(u) % modulus for u in units)
        for u in self.units:
            if gcd(u, modulus) != 1:
                raise FrobeniusError("unit %d is not invertible modulo %d" % (u, modulus))

    def __eq__(self, other):
        return (type(other) is CyclicFactor
                and (self.modulus, self.units) == (other.modulus, other.units))

    @property
    def size(self) -> int:
        return self.modulus


class ElementaryAbelianFactor:
    """(Z_p)^dim kernel factor; matrices[j] acts on row vectors as v -> v M."""

    def __init__(self, p: int, dim: int, matrices: tuple[tuple[tuple[int, ...], ...], ...]):
        if not is_prime(p):
            raise FrobeniusError("elementary abelian factor needs prime p, got %r" % (p,))
        if dim < 1:
            raise FrobeniusError("elementary abelian factor needs dim >= 1")
        mats = []
        for M in matrices:
            M = tuple(tuple(int(x) % p for x in row) for row in M)
            if len(M) != dim or any(len(row) != dim for row in M):
                raise FrobeniusError("matrix is not %d x %d" % (dim, dim))
            if _det_mod(M, p) == 0:
                raise FrobeniusError("complement matrix is singular modulo %d" % p)
            mats.append(M)
        self.p, self.dim, self.matrices = p, dim, tuple(mats)

    def __eq__(self, other):
        return (type(other) is ElementaryAbelianFactor
                and (self.p, self.dim, self.matrices) == (other.p, other.dim, other.matrices))

    @property
    def size(self) -> int:
        return self.p**self.dim


def _det_mod(M, p: int) -> int:
    A = [list(row) for row in M]
    n = len(A)
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            A[col], A[piv] = A[piv], A[col]
            det = -det
        det = det * A[col][col] % p
        inv = pow(A[col][col], p - 2, p)
        for r in range(col + 1, n):
            f = A[r][col] * inv % p
            if f:
                for c in range(col, n):
                    A[r][c] = (A[r][c] - f * A[col][c]) % p
    return det % p


class FrobeniusSpec:
    """Kernel factors plus the complement's order and per-factor actions."""

    def __init__(self, kernel_factors: tuple, complement_order: int):
        if not kernel_factors:
            raise FrobeniusError("at least one kernel factor is required")
        if complement_order < 2:
            raise FrobeniusError("complement must be nontrivial (order >= 2)")
        gens = {len(f.units) if isinstance(f, CyclicFactor) else len(f.matrices)
                for f in kernel_factors}
        if len(gens) != 1 or gens == {0}:
            raise FrobeniusError("every factor must list one action per complement generator")
        self.kernel_factors = tuple(kernel_factors)
        self.complement_order = complement_order

    def __eq__(self, other):
        return (type(other) is FrobeniusSpec
                and (self.kernel_factors, self.complement_order)
                == (other.kernel_factors, other.complement_order))

    # -- sizes and the complement table -------------------------------------

    @property
    def kernel_order(self) -> int:
        n = 1
        for f in self.kernel_factors:
            n *= f.size
        return n

    @property
    def num_generators(self) -> int:
        f = self.kernel_factors[0]
        return len(f.units) if isinstance(f, CyclicFactor) else len(f.matrices)

    @cached_property
    def radices(self) -> tuple[int, ...]:
        """Digit radices of a kernel index: m for a cyclic factor Z_m, and p
        once per coordinate of (Z_p)^dim."""
        out = []
        for f in self.kernel_factors:
            out.extend([f.modulus] if isinstance(f, CyclicFactor) else [f.p] * f.dim)
        return tuple(out)

    def _check_table_size(self) -> None:
        n, k = self.kernel_order, self.complement_order
        entries = n * max(k, len(self.radices))
        if entries > MAX_TABLE_ENTRIES:
            raise FrobeniusError("spec too large: its tables need %d entries (n = %d, k = %d), "
                                 "more than %d" % (entries, n, k, MAX_TABLE_ENTRIES))

    @cached_property
    def digits(self) -> np.ndarray:
        """(n, len(radices)) read-only int64 table: row h holds the digits
        of index h."""
        self._check_table_size()
        strides, radices = _radix_arrays(self.radices)
        table = np.arange(self.kernel_order, dtype=np.int64)[:, None] // strides % radices
        table.setflags(write=False)
        return table

    @cached_property
    def complement(self) -> np.ndarray:
        """(k, n) table: row c sends each kernel index to its image under
        the c-th complement element.  Row 0 is the identity; the others
        follow in breadth-first order from the generator tables.

        Raises when the generators close to a group of order other than
        `complement_order`, or when the table would pass MAX_TABLE_ENTRIES.
        Every element is an automorphism of the kernel, so its images of
        the unit-vector indices name it.
        """
        self._check_table_size()
        ident = np.arange(self.kernel_order, dtype=np.int64)
        units = digit_strides(self.radices)
        gens = _generator_tables(self)
        cap = self.complement_order
        rows = [ident]
        seen = {ident[units].tobytes()}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = g[x]
                    key = y[units].tobytes()
                    if key not in seen:
                        if len(seen) >= cap:
                            raise FrobeniusError(
                                "complement closes to more than %d elements" % cap)
                        seen.add(key)
                        nxt.append(y)
            rows.extend(nxt)
            frontier = nxt
        if len(rows) != cap:
            raise FrobeniusError("complement has order %d, spec says %d" % (len(rows), cap))
        return np.stack(rows)

    def validate(self) -> np.ndarray:
        """Full Frobenius validation; returns the complement table.

        Every row but the identity must fix the zero index alone.  The
        witness of a failure is the first such row (named by its images
        of the unit-vector indices) and its least nonzero fixed index.
        """
        table = self.complement
        fixed = table[1:] == table[0]
        bad = np.flatnonzero(fixed.sum(axis=1) > 1)
        if bad.size:
            row = table[1 + bad[0]]
            images = tuple(row[digit_strides(self.radices)].tolist())
            h = int(np.flatnonzero(fixed[bad[0]])[1])
            raise FrobeniusError(
                "complement element with basis images %r fixes nonzero kernel "
                "element (index %d)" % (images, h), witness=(images, h))
        return table


def build_frobenius(spec: FrobeniusSpec) -> PermGroup:
    """Permutation group on the kernel: translations + complement action.

    Degree is |H|; the order is |H| * k, forced by validation (the
    complement closes to exactly k elements, all acting without nonzero
    fixed points, hence faithfully and with trivial two-point stabilizers).
    """
    from .perms import PermGroup, Permutation
    spec.validate()
    idx = np.arange(spec.kernel_order, dtype=np.int64)
    gens = [digit_add(idx, b, spec.radices)
            for b in digit_strides(spec.radices)] + _generator_tables(spec)
    return PermGroup([Permutation(g.tolist()) for g in gens], degree=spec.kernel_order)


# -- invariant subgroup lattice -----------------------------------------


class Subgroup(NamedTuple):
    order: int
    bits: int                          # bit h is set for each element h

    @property
    def elements(self) -> frozenset:
        """The elements, read off `bits` on each access."""
        return frozenset(indices_of(self.bits).tolist())


class InvariantLattice(NamedTuple):
    """Complement-invariant subgroups of the kernel, ordered by inclusion."""

    spec: FrobeniusSpec
    subgroups: list[Subgroup]          # sorted by (order, sorted elements)
    inclusion: np.ndarray              # strict inclusion, bool matrix
    d: int                             # common length of maximal chains
    pi: tuple[int, ...]                # prime divisors of |H|
    chain_lengths_equal: bool = True


# Sums per vectorized step of a join: at 8 bytes per digit of each sum,
# its temporaries stay a few MB (4 MB for the 8 digits of (Z_2)^8).
_SUMSET_CHUNK = 1 << 16


def invariant_lattice(spec: FrobeniusSpec) -> InvariantLattice:
    """All complement-invariant subgroups of the kernel: the join closure
    of `_seeds` under `_joiner`."""
    spec.validate()
    n = spec.kernel_order
    lat = join_closure(_seeds(spec), ((1 << n) - 1, n), _joiner(spec))
    subs = [Subgroup(size, bits) for bits, size in zip(lat.members, lat.sizes)]
    return InvariantLattice(spec=spec, subgroups=subs, inclusion=lat.inclusion,
                            d=lat.longest, pi=prime_divisors(n),
                            chain_lengths_equal=lat.longest == lat.shortest)


def invariant_chain(spec: FrobeniusSpec) -> list[Subgroup]:
    """The maximal chain {0} = M_0 < ... < M_d = H of complement-invariant
    subgroups that steps to the least cover each time, built without the
    lattice.

    Each step goes from M to its least cover, least by order and then by
    sorted elements, as the lattice sorts its members.  Every cover of M is
    M + P for some seed P not inside M, since the seeds generate the
    lattice under join; and a candidate M + P of least order is a cover,
    since a subgroup strictly between would be a cover of smaller order,
    hence a candidate of smaller order.  The order |M| |P| / |M ∩ P| of a
    candidate comes from popcounts.  A sum set is built only for the
    least-order seeds that no join already built at that order contains
    (such a join is M + P itself).

    The invariant subgroups are the submodules of the abelian kernel under
    the complement, so their lattice is modular.  By Jordan–Hölder every
    maximal chain then has the same length d and the same multiset of
    section orders: all that the separability verdict and the Theorem 2
    profile read of the lattice.
    """
    spec.validate()
    n = spec.kernel_order
    seeds = [*_seeds(spec), ((1 << n) - 1, n)]
    join = _joiner(spec)
    chain = [Subgroup(1, 1)]
    bits, order = 1, 1
    while order < n:
        candidates = [(b, order * size // (bits & b).bit_count())
                      for b, size in seeds if b & ~bits]
        least = min(size for _, size in candidates)
        built: list[int] = []
        for b, size in candidates:
            if size != least:
                continue
            if bits & b == bits:                  # M + P = P
                built.append(b)
            elif not any(b & j == b for j in built):
                built.append(join(bits, b)[0])
        # same order: the sorted elements differ first at the least
        # element of the symmetric difference, and the set holding it
        # comes first
        bits = built[0]
        for j in built[1:]:
            x = bits ^ j
            if j & x & -x:
                bits = j
        order = least
        chain.append(Subgroup(order, bits))
    return chain


def _seeds(spec: FrobeniusSpec) -> list[tuple[int, int]]:
    """(bitset, order) of invariant subgroups that, with the whole kernel,
    generate every invariant subgroup under join: the divisor lattice for
    a cyclic kernel (pairwise coprime radices), else `_principal_subgroups`."""
    return _cyclic_subgroups(spec) if _is_cyclic(spec) else _principal_subgroups(spec)


def _joiner(spec: FrobeniusSpec):
    """join(a, b) -> (bits, order) of two invariant subgroups (bitsets).

    The kernel is abelian, so the join is the sum set, taken on the digit
    vectors of its operands, which `join` keeps (in the join closure b is
    always a seed, and a is the same member for several seeds in a row).
    The sum of subgroups A and B has order |A| |B| / |A ∩ B|, read off
    popcounts, so a join that is the whole kernel needs no sum set.
    """
    n = spec.kernel_order
    strides, radices = _radix_arrays(spec.radices)
    operands = cache(lambda bits: spec.digits[indices_of(bits)])

    def join(a: int, b: int) -> tuple[int, int]:
        order = a.bit_count() * b.bit_count() // (a & b).bit_count()
        if order == n:
            return (1 << n) - 1, n
        A, B = operands(a), operands(b)
        seen = np.zeros(n, dtype=bool)
        step = max(1, _SUMSET_CHUNK // len(B))
        for i in range(0, len(A), step):
            sums = A[i:i + step, None] + B
            sums %= radices
            seen[sums @ strides] = True
        return bits_of(seen), order

    return join


def _is_cyclic(spec: FrobeniusSpec) -> bool:
    """The kernel is cyclic exactly when its radices are pairwise coprime."""
    r = spec.radices
    return all(gcd(a, b) == 1 for i, a in enumerate(r) for b in r[i + 1:])


def _element_orders(spec: FrobeniusSpec) -> np.ndarray:
    """Additive order of every element, by index: the lcm over its digits
    of radix r // gcd(digit, r)."""
    idx = np.arange(spec.kernel_order, dtype=np.int64)
    orders = np.ones_like(idx)
    for r, st in zip(spec.radices, digit_strides(spec.radices)):
        orders = np.lcm(orders, r // np.gcd(idx // st % r, r))
    return orders


def _cyclic_subgroups(spec: FrobeniusSpec) -> list[tuple[int, int]]:
    """Divisor lattice as (bitset, order): every subgroup of a cyclic group
    is invariant, and the subgroup of order D holds the elements whose
    order divides D."""
    orders = _element_orders(spec)
    return [(bits_of(D % orders == 0), D) for D in divisors(spec.kernel_order)]


def _principal_subgroups(spec: FrobeniusSpec) -> list[tuple[int, int]]:
    """The trivial subgroup and every proper subgroup generated by the
    complement orbit of one element of prime power order, as (bitset, order).

    These generate the lattice under join: an invariant subgroup is the
    sum of its Sylow parts, each invariant and spanned by the orbits of
    its own elements, all of prime power order.

    One orbit is closed per class of the complement and the unit
    multiples.  Multiplication by an integer m is an endomorphism of the
    kernel that commutes with the complement, so the orbit of m x is m
    times the orbit of x and lies in the subgroup S that the orbit of x
    generates.  When gcd(m, ord x) = 1, some m' has m' m x = x, and every
    element of the orbit has the order of x, so the orbit of m x generates
    S as well.  The units modulo the exponent e of the kernel reduce onto
    the units modulo every element order, so the class of x is its
    complement orbit times the units modulo e, and its least element
    represents it.  All representatives' orbits are then closed together
    (`_close_orbits`).
    """
    n = spec.kernel_order
    kappa = spec.complement
    orders = _element_orders(spec)
    primary = np.isin(orders, [o for o in sorted_unique(orders).tolist() if prime_power(o)])
    strides, radices = _radix_arrays(spec.radices)
    # least[x]: least element of the class of x.  The orbit minimum is
    # constant on orbits; fold in the multiples by each new unit u, the
    # powers u^j for j < 2^i after i doubling steps.
    orbit_min = kappa.min(axis=0)
    least = orbit_min.copy()
    exponent = int(np.lcm.reduce(radices))
    reached = {1}
    for u in range(2, exponent):
        if gcd(u, exponent) == 1 and u not in reached:
            powers = [1]
            while (v := powers[-1] * u % exponent) != 1:
                powers.append(v)
            v, span = u, 1
            while span < len(powers):
                np.minimum(least, least[spec.digits * v % radices @ strides], out=least)
                v, span = v * v % exponent, 2 * span
            reached = {a * b % exponent for a in reached for b in powers}
    reps = np.flatnonzero(primary & (least == np.arange(n)))
    return [(1, 1)] + _close_orbits(spec, reps, orbit_min)


def _close_orbits(spec: FrobeniusSpec, reps: np.ndarray,
                  orbit_min: np.ndarray) -> list[tuple[int, int]]:
    """(bitset, order) of the subgroup S that the complement orbit of each
    of `reps` generates, for those that generate a proper subgroup, in
    the order of `reps`.

    S is complement-invariant, so it is 0 and a union of orbits, each of
    k elements (the complement fixes no nonzero element).  The search
    runs over orbits, named by their least elements (`orbit_min`), on
    keys row * n + orbit: adding every generator to one element of an
    orbit reaches the same orbits as adding them to all of it, since the
    generators form an orbit too.  A proper subgroup has order at most
    n/2, so a row whose closure passes that generates the whole kernel and
    is dropped from the search.  Each step takes at most _SUMSET_CHUNK
    sums at a time."""
    n = spec.kernel_order
    kappa = spec.complement
    k, rows = len(kappa), len(reps)
    gens = kappa[:, reps].T
    seen = np.zeros(rows * n, dtype=bool)     # orbits reached, by least element
    offsets = np.arange(rows, dtype=np.int64) * n
    frontier = offsets + reps
    seen[offsets] = seen[frontier] = True
    counts = np.full(rows, 1 + k)
    alive = counts <= n // 2
    found = [frontier]
    frontier = frontier[alive]
    step = max(1, _SUMSET_CHUNK // k)
    while frontier.size:
        keys = []
        for i in range(0, len(frontier), step):
            row, elem = np.divmod(frontier[i:i + step], n)
            sums = digit_add(elem[:, None], gens[row], spec.radices)
            keys.append((orbit_min[sums] + row[:, None] * n).ravel())
        nxt = sorted_unique(np.concatenate(keys))
        nxt = nxt[~seen[nxt]]
        seen[nxt] = True
        found.append(nxt)
        counts += k * np.bincount(nxt // n, minlength=rows)
        alive &= counts <= n // 2
        frontier = nxt[alive[nxt // n]]
    row, orbit = np.divmod(np.concatenate(found), n)
    keep = alive[row]
    members = np.zeros((int(alive.sum()), n), dtype=bool)
    members[:, 0] = True
    members[(np.cumsum(alive) - 1)[row[keep]], kappa[:, orbit[keep]]] = True
    packed = np.packbits(members, axis=1, bitorder="little")
    return [(int.from_bytes(bits.tobytes(), "little"), int(c))
            for bits, c in zip(packed, counts[alive])]


def _generator_tables(spec: FrobeniusSpec) -> list[np.ndarray]:
    """For each complement generator j, the image of every kernel index:
    a unit multiplies the digit of its cyclic factor, a matrix acts on the
    digit vector of its elementary abelian factor."""
    strides, _ = _radix_arrays(spec.radices)
    digits = spec.digits
    out = []
    for j in range(spec.num_generators):
        img = np.zeros(spec.kernel_order, dtype=np.int64)
        pos = 0
        for f in spec.kernel_factors:
            if isinstance(f, CyclicFactor):
                img += digits[:, pos] * f.units[j] % f.modulus * strides[pos]
                pos += 1
            else:
                cut = slice(pos, pos + f.dim)
                M = np.asarray(f.matrices[j], dtype=np.int64)
                img += digits[:, cut] @ M % f.p @ strides[cut]
                pos += f.dim
        out.append(img)
    return out


# -- principal sections -------------------------------------------------


class PrincipalSection(NamedTuple):
    """Quotient of consecutive members of a maximal invariant chain."""

    degree: int
    orbit_count: int          # complement orbits on the nonzero cosets
    prime: int
    exponent: int

    @property
    def rank(self) -> int:
        return 1 + self.orbit_count


def principal_sections(spec: FrobeniusSpec) -> list[PrincipalSection]:
    """The sections along `invariant_chain` (`chain_sections`)."""
    return chain_sections(spec, invariant_chain(spec))


def chain_sections(spec: FrobeniusSpec, chain: list[Subgroup]) -> list[PrincipalSection]:
    """The quotients of consecutive members of a maximal invariant chain.

    Each degree must be a prime power (principal sections are primitive of
    prime power degree); a violation raises, since it would contradict the
    fixed-point-free action.
    """
    kappa = spec.complement
    out = []
    for lo_s, hi_s in zip(chain, chain[1:]):
        lo = indices_of(lo_s.bits)
        hi = indices_of(hi_s.bits)
        degree = len(hi) // len(lo)
        # rep[h]: smallest element of the coset h + lo.  hi is ascending, so
        # the first element not yet in a coset is the minimum of its own.
        rep = np.full(spec.kernel_order, -1, dtype=np.int64)
        todo = hi
        while todo.size:
            rep[digit_add(todo[0], lo, spec.radices)] = todo[0]
            todo = todo[rep[todo] < 0]
        reps = sorted_unique(rep[hi])
        # The complement elements form a group, so the least image of a
        # coset under all of them names its orbit; the zero coset is an
        # orbit of its own.
        orbits = len(sorted_unique(rep[kappa[:, reps]].min(axis=0))) - 1
        pp = prime_power(degree)
        if pp is None:
            raise FrobeniusError("principal section of degree %d is not a prime power" % degree)
        out.append(PrincipalSection(degree=degree, orbit_count=orbits,
                                    prime=pp[0], exponent=pp[1]))
    return out


# -- properness profile (arithmetic classification) -----------------------


class ClassificationProfile(NamedTuple):
    """Arithmetic profile deciding whether proper pseudofrobenius schemes
    are excluded for this group's schemes."""

    n: int
    k: int
    pi: tuple[int, ...]
    d: int
    primitive: bool
    in_table: bool                     # (|pi|, d) in {1,2} x {2,3}
    section_degrees: tuple[int, ...]
    section_ranks: tuple[int, ...]
    d3_cases: tuple[str, ...]          # matching d=3 case labels, if any
    verdict: str                       # "excluded" | "open" | "primitive"


def thm2_profile(spec: FrobeniusSpec) -> ClassificationProfile:
    """(|pi|, d) table membership plus the d = 3 parameter cases
    (`d3_cases`), read off `invariant_chain`.  Anything else in the table
    stays "open" only for d = 2.
    """
    n = spec.kernel_order
    k = spec.complement_order
    chain = invariant_chain(spec)
    d = len(chain) - 1
    pi = prime_divisors(n)
    if d <= 1:
        return ClassificationProfile(
            n=n, k=k, pi=pi, d=d, primitive=True, in_table=False,
            section_degrees=(), section_ranks=(), d3_cases=(),
            verdict="primitive")
    sections = chain_sections(spec, chain)
    degrees = tuple(s.degree for s in sections)
    ranks = tuple(s.rank for s in sections)
    in_table = len(pi) in (1, 2) and d in (2, 3)
    cases = d3_cases(n, k, sections) if d == 3 else ()
    if not in_table:
        verdict = "excluded"
    elif d == 3 and not cases:
        verdict = "excluded"
    else:
        verdict = "open"
    return ClassificationProfile(
        n=n, k=k, pi=pi, d=d, primitive=False, in_table=in_table,
        section_degrees=degrees, section_ranks=ranks,
        d3_cases=cases, verdict=verdict)
