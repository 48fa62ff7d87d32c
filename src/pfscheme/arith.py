"""Small exact number-theory helpers (trial division scale), the d = 3
parameter cases of the classification, and the mixed-radix index
arithmetic every translation scheme is built on.

The points of an abelian kernel H are indices in range(|H|), read as
little-endian mixed-radix digits with one radix per cyclic coordinate:
Z_n is one digit of radix n, (Z_p)^k is k digits of radix p, and a spread
vector (a, b) over F_q, q = p^e, is 2e base-p digits.  Addition in H is
digitwise (`digit_add`), and `difference_table` holds every difference.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, prod

import numpy as np


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1, got %r" % (n,))
    out: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_power(n: int):
    """Return (p, e) with n = p**e, or None if n is not a prime power."""
    if n < 2:
        return None
    f = factorize(n)
    if len(f) != 1:
        return None
    [(p, e)] = f.items()
    return p, e


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def mult_order(u: int, m: int) -> int:
    """Multiplicative order of u modulo m (u must be a unit)."""
    u %= m
    if gcd(u, m) != 1:
        raise ValueError("%d is not a unit modulo %d" % (u, m))
    k, x = 1, u
    while x != 1:
        x = x * u % m
        k += 1
    return k


def d3_cases(n: int, k: int, sections=None) -> tuple[str, ...]:
    """The d = 3 parameter cases that admit proper schemes.

    "one-prime-cube": |H| = (k+1)^3 with every section two-transitive of
    degree k+1.  "two-prime-double": |H| = (k+1)^2 (2k+1) with k+1 and
    2k+1 prime powers, sections of degrees k+1, k+1 (two-transitive) and
    2k+1 (rank 3).  Either shape fixes the number of primes of |H|.
    `sections` are the principal sections (anything with `degree` and
    `rank`); without them only the arithmetic is checked.
    """
    cases = []
    if n == (k + 1) ** 3 and prime_power(k + 1):
        if sections is None or all(s.degree == k + 1 and s.rank == 2 for s in sections):
            cases.append("one-prime-cube")
    if n == (k + 1) ** 2 * (2 * k + 1) and prime_power(k + 1) and prime_power(2 * k + 1):
        if sections is None or (
                sorted(s.degree for s in sections) == [k + 1, k + 1, 2 * k + 1]
                and all((s.degree == k + 1 and s.rank == 2)
                        or (s.degree == 2 * k + 1 and s.rank == 3) for s in sections)):
            cases.append("two-prime-double")
    return tuple(cases)


# -- mixed-radix indices ---------------------------------------------------


def digit_strides(radices) -> list[int]:
    """Place value of each digit of a little-endian mixed-radix index; these
    are also the indices of the unit vectors that generate H."""
    out, stride = [], 1
    for r in radices:
        out.append(stride)
        stride *= r
    return out


@lru_cache(maxsize=128)
def _radix_arrays(radices: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(strides, radices) of `radices` as read-only int64 arrays."""
    st = np.asarray(digit_strides(radices), dtype=np.int64)
    rs = np.asarray(radices, dtype=np.int64)
    st.setflags(write=False)
    rs.setflags(write=False)
    return st, rs


def digit_add(xs, ys, radices) -> np.ndarray:
    """Digitwise sum of index arrays (broadcast), each digit modulo its
    radix, as int64."""
    st, rs = _radix_arrays(tuple(radices))
    xs = np.asarray(xs, dtype=np.int64)[..., None]
    ys = np.asarray(ys, dtype=np.int64)[..., None]
    # One trailing axis runs over the digits, so a sum takes a few numpy
    # calls whatever the number of digits; xs // st is the digit plus a
    # multiple of r.
    sums = xs // st + ys // st
    sums %= rs
    return sums @ st


def difference_table(radices) -> np.ndarray:
    """D[a, b] = b - a digitwise, for every pair of indices, in the smallest
    dtype (int16 or int32) that holds the indices."""
    n = prod(radices)
    idx = np.arange(n, dtype=np.int16 if n <= np.iinfo(np.int16).max else np.int32)
    D = np.zeros((n, n), dtype=idx.dtype)
    for r, st in zip(radices, digit_strides(radices)):
        digit = idx // st % r
        D += (digit[None, :] - digit[:, None]) % r * st
    return D


def sorted_unique(x) -> np.ndarray:
    """The distinct values of an array, flattened and sorted: what plain
    `np.unique(x)` returns, without its masked-array test, which imports
    `numpy.ma`."""
    x = np.sort(x, axis=None)
    keep = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]
