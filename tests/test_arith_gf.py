"""Number-theory helpers and finite field arithmetic."""

import numpy as np
import pytest

from pfscheme.arith import (
    difference_table,
    digit_add,
    digit_strides,
    divisors,
    factorize,
    is_prime,
    mult_order,
    prime_divisors,
    prime_power,
)
from pfscheme.gf import FiniteField, GF
from pfscheme.wldim import exception_check


@pytest.mark.parametrize("radices", [[12], [2, 2, 2], [7, 2, 2], [3, 5, 3]])
def test_difference_table_inverts_digit_add(radices):
    D = difference_table(radices)
    idx = np.arange(len(D))
    assert D.dtype == np.int16
    assert (digit_add(idx[:, None], D, radices) == idx[None, :]).all()    # a + (b - a) = b
    assert (np.diagonal(D) == 0).all()
    # a unit vector adds one to its own digit and leaves the others alone
    for r, st in zip(radices, digit_strides(radices)):
        moved = digit_add(idx, st, radices)
        assert (moved // st % r == (idx // st + 1) % r).all()
        assert (moved - moved // st % r * st == idx - idx // st % r * st).all()


def test_factorize_small_range():
    for n in range(2, 500):
        fac = factorize(n)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert exception_check(360).omega == 3
    assert exception_check(360).big_omega == 6
    assert prime_divisors(360) == (2, 3, 5)


def test_prime_power():
    assert prime_power(81) == (3, 4)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_divisors():
    assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]
    assert divisors(7) == [1, 7]


def test_mult_order():
    assert mult_order(2, 9) == 6
    assert mult_order(8, 9) == 2
    assert mult_order(57, 65) == 4
    for u in range(1, 20):
        if u % 21 and factorize(21).keys().isdisjoint(factorize(u).keys() if u > 1 else ()):
            o = mult_order(u, 21)
            assert pow(u, o, 21) == 1
            for j in range(1, o):
                assert pow(u, j, 21) != 1


def test_gf_prime_field():
    F = GF(7)
    assert F.q == 7
    for a in range(7):
        for b in range(7):
            assert F.add(a, b) == (a + b) % 7
            assert F.mul(a, b) == (a * b) % 7


def test_gf9_field_axioms():
    F = GF(9)
    els = range(9)
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    # commutativity, associativity, distributivity on the full cube
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))


def poly_product(F, a, b):
    """a * b as polynomials over F_p, one coefficient at a time, reduced by
    the modulus: the product written independently of the field's tables."""
    p, e = F.p, F.e
    prod = [0] * (2 * e - 1)
    for i, x in enumerate(F.coeffs(a)):
        for j, y in enumerate(F.coeffs(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    for i in range(2 * e - 2, e - 1, -1):        # x^e = -(c_0 + ... + c_(e-1) x^(e-1))
        c, prod[i] = prod[i], 0
        for j, m in enumerate(F.modulus[:-1]):
            prod[i - e + j] = (prod[i - e + j] - c * m) % p
    return F.encode(prod[:e])


def poly_power(F, a, k):
    """a^k for k >= 0 by square and multiply on poly_product."""
    out = 1
    while k:
        if k & 1:
            out = poly_product(F, out, a)
        a = poly_product(F, a, a)
        k >>= 1
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 25, 27, 49, 64, 125, 256, 343, 1331, 2197])
def test_gf_arithmetic_matches_the_polynomial_product(q):
    F = GF(q)
    rng = np.random.default_rng(q)
    if q <= 125:
        a, b = (x.ravel() for x in np.meshgrid(np.arange(q), np.arange(q)))
    else:
        a, b = rng.integers(0, q, 3000), rng.integers(0, q, 3000)
    expected = [poly_product(F, x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert F.mul(a, b).tolist() == expected                 # one array product
    assert [F.mul(x, y) for x, y in zip(a.tolist()[:300], b.tolist()[:300])] == expected[:300]
    for x in rng.integers(0, q, 40).tolist():
        for k in (0, 1, 2, 5, q - 2, q, q + 3):
            assert F.pow(x, k) == poly_power(F, x, k), (x, k)
        if x:
            assert F.inv(x) == poly_power(F, x, q - 2)
            assert F.pow(x, -3) == poly_power(F, F.inv(x), 3)
    xs = np.arange(q)
    assert F.pow(xs, 5).tolist() == [poly_power(F, x, 5) for x in range(q)]
    assert F.pow(3 % q, xs).tolist() == [poly_power(F, 3 % q, k) for k in range(q)]


def test_gf_zero_products_and_powers():
    F = GF(25)
    assert F.mul(0, 7) == F.mul(7, 0) == F.mul(0, 0) == 0
    assert F.pow(0, 0) == 1 and F.pow(0, 1) == F.pow(0, 24) == 0
    assert F.pow(np.array([0, 0, 3]), np.array([0, 2, 0])).tolist() == [1, 0, 1]
    for k in (2**63 + 5, 10**30, -10**30):                   # past int64
        assert F.pow(3, k) == F.pow(3, k % 24) and F.pow(0, abs(k)) == 0
    for bad in (lambda: F.inv(0), lambda: F.pow(0, -1), lambda: F.pow(np.arange(3), -2)):
        with pytest.raises(ZeroDivisionError):
            bad()
    # scalars come back as Python ints, arrays as arrays
    assert type(F.mul(3, 4)) is int and type(F.pow(3, 4)) is int and type(F.inv(3)) is int
    assert F.mul(np.arange(25), 3).shape == (25,)


def test_gf_builds_its_tables_once_per_field(monkeypatch):
    from pfscheme import gf

    rows = []
    mul_row = FiniteField._mul_row
    monkeypatch.setattr(gf, "_cache", {})
    monkeypatch.setattr(FiniteField, "_mul_row",
                        lambda self, a: rows.append((self.q, a)) or mul_row(self, a))
    F = GF(343)
    g = F.primitive_element()
    # one row of products per candidate, from p up to the generator
    assert rows == [(343, a) for a in range(7, g + 1)]
    assert GF(343) is F
    F.mul(np.arange(343), g), F.pow(g, 100), F.inv(5), F.mul_matrix(g), F.frobenius(9, 7)
    assert rows == [(343, a) for a in range(7, g + 1)]
    assert not F.exp.flags.writeable and not F.log.flags.writeable


def element_order(F, a):
    """The multiplicative order of a unit a, one product at a time."""
    k, x = 1, a
    while x != 1:
        x = F.mul(x, a)
        k += 1
    return k


def test_gf_primitive_element_and_orders():
    for q in (4, 9, 16, 25):
        F = GF(q)
        g = F.primitive_element()
        assert element_order(F, g) == q - 1
        seen = set()
        x = 1
        for _ in range(q - 1):
            seen.add(x)
            x = F.mul(x, g)
        assert len(seen) == q - 1


def test_gf_primitive_element_is_the_smallest_generator():
    # reference: the first a whose order, stepped one product at a time, is q - 1
    for q in range(2, 344):
        if prime_power(q) is None:
            continue
        F = GF(q)
        expected = next((a for a in range(2, q) if element_order(F, a) == q - 1), 1)
        assert F.primitive_element() == expected, q


def test_gf_frobenius_and_norm():
    F = GF(9)
    # x -> x^3 is the nontrivial automorphism of GF(9)
    for a in range(9):
        for b in range(9):
            assert F.frobenius(F.add(a, b), 3) == F.add(F.frobenius(a, 3), F.frobenius(b, 3))
            assert F.frobenius(F.mul(a, b), 3) == F.mul(F.frobenius(a, 3), F.frobenius(b, 3))
    # norm to GF(3): multiplicative, onto, value a^(1+3)
    for a in range(1, 9):
        nm = F.norm_to_subfield(a, 3)
        assert nm == F.mul(a, F.frobenius(a, 3))
        assert nm in (1, 2)
    with pytest.raises(ValueError):
        GF(12)
