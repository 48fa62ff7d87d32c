"""Small finite fields F_{p^e} with deterministic construction.

Elements are integers 0..q-1 encoding polynomial coefficient vectors in
base p (index = sum c_i p^i).  The modulus is the monic irreducible of
degree e whose coefficient encoding is smallest, found by exhaustive
search, so two runs always build the same tables.
"""

from __future__ import annotations

import numpy as np

from .arith import factorize, is_prime


class FiniteField:
    """F_q with tabulated products below the tabulation cutoff: one row of
    products per left factor, built when that factor is first used."""

    TABLE_CUTOFF = 256

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise ValueError("characteristic %r is not prime" % (p,))
        if e < 1:
            raise ValueError("extension degree must be positive")
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = self._smallest_irreducible() if e > 1 else (0, 1)
        self._rows: dict[int, list[int]] = {}      # a -> [a * b for every b]
        self._primitive: int | None = 1 if self.q == 2 else None

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

    def mul(self, a: int, b: int) -> int:
        if self.q > self.TABLE_CUTOFF:
            return self.mul_slow(a, b)
        row = self._rows.get(a)
        if row is None:
            row = self._rows[a] = self._mul_row(a)
        return row[b]

    def _mul_row(self, a: int) -> list[int]:
        """The q products mul_slow(a, b), b = 0..q-1, at once."""
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

    def mul_slow(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        ca, cb = self.coeffs(a), self.coeffs(b)
        prod = [0] * (2 * self.e - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self.encode(self._reduce(prod))

    def _reduce(self, poly: list[int]) -> list[int]:
        mod = self.modulus
        poly = list(poly)
        for i in range(len(poly) - 1, self.e - 1, -1):
            c = poly[i]
            if c:
                poly[i] = 0
                for j, m in enumerate(mod[:-1]):
                    poly[i - self.e + j] = (poly[i - self.e + j] - c * m) % self.p
        return poly[: self.e]

    def pow(self, a: int, k: int) -> int:
        out, base = 1, a
        if k < 0:
            base = self.inv(a)
            k = -k
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group, found once per field.

        a generates exactly when a^((q-1)/r) != 1 for every prime r
        dividing q - 1, which takes O(log q) multiplications per prime.
        The constants 0..p-1 have orders dividing p - 1, so for e > 1 the
        search starts at p.
        """
        if self._primitive is None:
            cofactors = [(self.q - 1) // r for r in factorize(self.q - 1)]
            self._primitive = next(a for a in range(2 if self.e == 1 else self.p, self.q)
                                   if all(self.pow(a, k) != 1 for k in cofactors))
        return self._primitive

    def norm_to_subfield(self, a: int, s: int) -> int:
        """Norm into F_s for q = s^2: a^(s+1)."""
        if s * s != self.q:
            raise ValueError("norm target %d is not the square-root subfield of %d" % (s, self.q))
        return self.pow(a, s + 1)

    def frobenius(self, a: int, s: int) -> int:
        """a^s (the subfield-fixing automorphism when q = s^2)."""
        return self.pow(a, s)

    def mul_matrix(self, a: int) -> list[list[int]]:
        """Matrix of left multiplication by a on the F_p basis 1, x, ..., x^(e-1).

        Row convention: row i is the coefficient vector of a * x^i, so row
        vectors transform as v -> v M.
        """
        rows = []
        for i in range(self.e):
            basis = self.encode([1 if j == i else 0 for j in range(self.e)])
            rows.append(self.coeffs(self.mul(basis, a)))
        return rows

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


_cache: dict[tuple[int, int], FiniteField] = {}


def GF(q_or_p: int, e: int | None = None) -> FiniteField:
    """Cached field constructor: GF(9) or GF(3, 2)."""
    if e is None:
        fac = factorize(q_or_p)
        if len(fac) != 1:
            raise ValueError("%d is not a prime power" % (q_or_p,))
        [(p, e)] = fac.items()
    else:
        p = q_or_p
    key = (p, e)
    if key not in _cache:
        _cache[key] = FiniteField(p, e)
    return _cache[key]
