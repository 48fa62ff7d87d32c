"""Small finite fields F_{p^e} with deterministic construction.

Elements are integers 0..q-1 encoding polynomial coefficient vectors in
base p (index = sum c_i p^i).  The modulus is the monic irreducible of
degree e whose coefficient encoding is smallest, found by exhaustive
search, so two runs always build the same tables.
"""

from __future__ import annotations

import numpy as np

from .arith import is_prime, prime_power


class FiniteField:
    """F_q on the antilog and log tables of its smallest generator g: every
    product, power and inverse is a lookup.

    With L = q - 1, `exp` holds g^i at i < 2L and 0 from 2L to 4L, and
    `log[0]` is 2L, so log[a] + log[b] indexes a * b for every a and b,
    0 included.  Both tables are read-only int64.
    """

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        if e < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = self._smallest_irreducible() if e > 1 else (0, 1)
        L, powers = self.q - 1, self._generator_powers()
        self.exp = np.concatenate((powers, powers, np.zeros(2 * L + 1, dtype=np.int64)))
        self.log = np.full(self.q, 2 * L, dtype=np.int64)
        self.log[powers] = np.arange(L)
        self.exp.setflags(write=False)
        self.log.setflags(write=False)

    def _generator_powers(self) -> list[int]:
        """g^0, ..., g^(q-2): the first candidate whose orbit of 1, followed
        through its row of products, has q - 1 elements.  The constants
        0..p-1 have orders dividing p - 1, so for e > 1 the candidates
        start at p.  F_2 has no candidate: g = 1."""
        for g in range(2 if self.e == 1 else self.p, self.q):
            row = self._mul_row(g)
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = row[x]
            if len(powers) == self.q - 1:
                return powers
        return [1]

    def _mul_row(self, a: int) -> list[int]:
        """The q products a * b, b = 0..q-1, as polynomials reduced by the
        modulus: the one polynomial product, used to build the tables."""
        p, e, q = self.p, self.e, self.q
        digits = np.arange(q, dtype=np.int64)[:, None] // p ** np.arange(e) % p
        prod = np.zeros((q, 2 * e - 1), dtype=np.int64)
        for i, x in enumerate(self.coeffs(a)):
            prod[:, i:i + e] += x * digits
        prod %= p
        low = np.asarray(self.modulus[:-1], dtype=np.int64)
        for i in range(2 * e - 2, e - 1, -1):   # x^i = -x^(i-e) * (low part)
            prod[:, i - e:i] -= prod[:, i, None] * low
            prod[:, i - e:i] %= p
        return (prod[:, :e] @ (p ** np.arange(e))).tolist()

    # -- coefficient coding -------------------------------------------------

    def coeffs(self, a: int) -> list[int]:
        """Base-p digits of a, length e (coefficient of x^i at index i)."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, coeffs) -> int:
        a = 0
        for c in reversed(list(coeffs)):
            a = a * self.p + c % self.p
        return a

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return self.encode(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def neg(self, a: int) -> int:
        return self.encode(-x for x in self.coeffs(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        """a * b for ints or int arrays (broadcast together)."""
        return _value(self.exp[self.log[a] + self.log[b]])

    def pow(self, a, k):
        """a^k for ints or int arrays (broadcast together).

        0^0 = 1 and 0^k = 0 for k > 0; 0^k with k < 0 raises
        ZeroDivisionError.
        """
        a, k, L = np.asarray(a), np.asarray(k), self.q - 1
        if ((a == 0) & (k < 0)).any():
            raise ZeroDivisionError("0 has no inverse")
        i = self.log[a] * np.asarray(k % L, dtype=np.int64) % L     # k may pass int64
        return _value(np.where((a == 0) & (k != 0), 0, self.exp[i]))

    def inv(self, a):
        return self.pow(a, -1)

    def primitive_element(self) -> int:
        """The smallest generator of the multiplicative group."""
        return int(self.exp[1])

    def norm_to_subfield(self, a, s: int):
        """Norm into F_s for q = s^2: a^(s+1)."""
        if s * s != self.q:
            raise ValueError("norm target %d is not the square-root subfield of %d" % (s, self.q))
        return self.pow(a, s + 1)

    def frobenius(self, a, s: int):
        """a^s (the subfield-fixing automorphism when q = s^2)."""
        return self.pow(a, s)

    def mul_matrix(self, a: int) -> list[list[int]]:
        """Matrix of left multiplication by a on the F_p basis 1, x, ..., x^(e-1).

        Row convention: row i is the coefficient vector of a * x^i, so row
        vectors transform as v -> v M.
        """
        return [self.coeffs(x) for x in self.mul(self.p ** np.arange(self.e), a).tolist()]

    def _smallest_irreducible(self) -> tuple[int, ...]:
        """Coefficients (c_0..c_{e-1}, 1) of the chosen modulus."""
        p, e = self.p, self.e
        for code in range(p**e):
            coeffs = []
            c = code
            for _ in range(e):
                coeffs.append(c % p)
                c //= p
            if _is_irreducible(coeffs + [1], p):
                return tuple(coeffs + [1])
        raise RuntimeError("no irreducible polynomial found")  # pragma: no cover

    def __repr__(self) -> str:
        return "FiniteField(p=%d, e=%d)" % (self.p, self.e)


def _poly_mod(num: list[int], den: list[int], p: int) -> list[int]:
    num = list(num)
    dn = len(den) - 1
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dn -= 1
    inv_lead = pow(den[-1], p - 2, p)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] * inv_lead % p
        if c:
            for j in range(dn + 1):
                num[i - dn + j] = (num[i - dn + j] - c * den[j]) % p
    out = num[:dn]
    return out if out else [0]


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by all monic polynomials of degree <= deg/2."""
    e = len(poly) - 1
    if e == 1:
        return True
    for d in range(1, e // 2 + 1):
        for code in range(p**d):
            div = []
            c = code
            for _ in range(d):
                div.append(c % p)
                c //= p
            div.append(1)
            rem = _poly_mod(poly, div, p)
            if all(x == 0 for x in rem):
                return False
    return True


def _value(x):
    """A Python int for a 0-d result, else the array."""
    return int(x) if np.ndim(x) == 0 else x


_cache: dict[int, FiniteField] = {}


def GF(q: int) -> FiniteField:
    """Cached field constructor: GF(9) is F_9."""
    if q not in _cache:
        pe = prime_power(q)
        if pe is None:
            raise ValueError("%d is not a prime power" % (q,))
        _cache[q] = FiniteField(*pe)
    return _cache[q]
