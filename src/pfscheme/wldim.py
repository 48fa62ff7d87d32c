"""Weisfeiler-Leman dimension classification for Frobenius circulants.

The pipeline certifies dimwl = 2 for a circulant graph whose coherent
closure is the scheme of a Frobenius group, provided the number of
vertices avoids the arithmetic exception set {p, p^2, p^3, pq, p^2*q}.
The chain of implications is: separable closure implies dimwl <= 2, and
a regular graph that is neither empty nor complete has dimwl >= 2.
The module never evaluates the logic definition of dimwl directly; when
the implication chain does not apply it reports the case as unresolved.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple, Optional

import numpy as np

from .arith import factorize
from .autgrp import FrobeniusCertificate, frobenius_certificate
from .circulants import (
    Circulant,
    CirculantSpec,
    certificate_unit_groups,
    color_matrix,
    frobenius_circulant,
)
from .parabolic import (
    SeparabilityVerdict,
    divide_check,
    indistinguishing_number,
    separability_verdict,
)
from .scheme import Scheme, partition_equal, wl_closure

EXCEPTION_SHAPES = {
    (1,): "p",
    (2,): "p^2",
    (3,): "p^3",
    (1, 1): "p*q",
    (2, 1): "p^2*q",
}

SEARCH_LIMIT = 256

_RUN = 1 << 14           # products per scatter of the crosscheck's large-prime pass


def factorization_string(n: int) -> str:
    return "*".join(
        str(p) if e == 1 else "%d^%d" % (p, e) for p, e in sorted(factorize(n).items())
    )


class ExceptionCheck(NamedTuple):
    """Membership of n in the exception set {p, p^2, p^3, pq, p^2*q}."""

    n: int
    in_exception_set: bool
    shape: Optional[str]
    omega: int
    big_omega: int
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "in_exception_set": self.in_exception_set,
            "shape": self.shape,
            "omega": self.omega,
            "big_omega": self.big_omega,
            "reason": self.reason,
        }


def exception_check(n: int) -> ExceptionCheck:
    """Decide whether n has one of the shapes p, p^2, p^3, pq, p^2*q.

    Equivalently n is outside the set exactly when it has at least three
    distinct prime factors or at least four prime factors with
    multiplicity.  Both formulations are computed and compared.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    fac = factorize(n)
    exponents = tuple(sorted(fac.values(), reverse=True))
    shape = EXCEPTION_SHAPES.get(exponents)
    omega = len(fac)
    big_omega = sum(fac.values())
    by_formula = not (omega >= 3 or big_omega >= 4)
    if (shape is not None) != by_formula:
        raise AssertionError(
            "shape and omega formulations disagree at n=%d" % n)
    if shape is not None:
        reason = "n = %s has shape %s" % (factorization_string(n), shape)
    elif omega >= 3:
        reason = "n = %s has %d distinct prime factors" % (
            factorization_string(n), omega)
    else:
        reason = "n = %s has %d prime factors with multiplicity" % (
            factorization_string(n), big_omega)
    return ExceptionCheck(n, shape is not None, shape, omega, big_omega, reason)


def _prime_table(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve)


def exception_set_crosscheck(limit: int = 10 ** 6) -> int:
    """Compare the two formulations of the exception set for all n <= limit.

    One side enumerates the shapes p, p^2, p^3, pq, p^2*q directly; the
    other sieves omega(n) and Omega(n) and applies the inequality test.
    The sieve splits the primes at isqrt(limit): a prime p below the split
    marks its multiples and those of its powers, one slice each; a prime
    above it divides n at most once, so the large primes are visited
    together by cofactor, n = m*p for m = 1 .. limit // (least large
    prime), in runs of cofactors.  Raises AssertionError at the first
    disagreement, otherwise returns the number of members.
    """
    primes = _prime_table(limit)
    split = int(np.searchsorted(primes, isqrt(limit), side="right"))
    small, large = primes[:split], primes[split:]

    omega = np.zeros(limit + 1, dtype=np.int8)
    big = np.zeros(limit + 1, dtype=np.int8)
    for p in small.tolist():
        omega[p::p] += 1
        pk = p
        while pk <= limit:
            big[pk::pk] += 1
            pk *= p
    if large.size:
        # The products m * p, scattered for runs of cofactors m with about
        # _RUN products at once: an increment through an index array counts
        # a repeated index once, and no n is m * p in two ways.
        ms = np.arange(1, limit // int(large[0]) + 1)
        counts = np.searchsorted(large, limit // ms, side="right")
        starts = np.concatenate(([0], np.cumsum(counts)))
        lo = 0
        while lo < ms.size:
            hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + _RUN, side="right")) - 1)
            # One cofactor is a plain slice of the primes: at m = 1 (78498
            # primes at limit 10^6) the index arrays of the general case would
            # lift the tracemalloc peak from 3.9 to 5.2 MB.
            if hi == lo + 1:
                multiples = ms[lo] * large[:counts[lo]]
            else:
                which = np.repeat(np.arange(lo, hi), counts[lo:hi])
                multiples = ms[which] * large[np.arange(starts[lo], starts[hi]) - starts[which]]
            omega[multiples] += 1
            big[multiples] += 1
            lo = hi
    # Only int8 counts and bool masks, and each count is dropped once read:
    # at limit 10^6 the peak stays near 4 MB.
    by_formula = omega <= 2
    del omega
    by_formula &= big <= 3
    del big
    by_formula[:2] = False

    by_shape = np.zeros(limit + 1, dtype=bool)
    by_shape[primes] = True
    by_shape[small * small] = True
    by_shape[small[small ** 3 <= limit] ** 3] = True
    # primes[i] = p; the primes q <= limit // p^k are primes[:end]
    ends = np.searchsorted(primes, limit // small, side="right").tolist()
    for i, p in enumerate(small.tolist()):
        by_shape[p * primes[i + 1:ends[i]]] = True
    ends = np.searchsorted(primes, limit // (small * small), side="right").tolist()
    for i, p in enumerate(small.tolist()):
        sq = p * p
        if 2 * sq > limit:
            break
        by_shape[sq * primes[:min(i, ends[i])]] = True
        by_shape[sq * primes[i + 1:ends[i]]] = True

    if not np.array_equal(by_formula, by_shape):
        bad = int(np.flatnonzero(by_formula != by_shape)[0])
        raise AssertionError("formulations disagree at n=%d" % bad)
    return int(by_shape.sum())


class FrobeniusScreen(NamedTuple):
    """Necessary numeric conditions for a scheme of a Frobenius group."""

    equivalenced: bool
    valency: Optional[int]
    indistinguishing_ok: bool
    divide_ok: bool

    @property
    def passed(self) -> bool:
        return self.equivalenced and self.indistinguishing_ok and self.divide_ok

    def to_json_dict(self) -> dict:
        return {
            "equivalenced": self.equivalenced,
            "valency": self.valency,
            "indistinguishing_ok": self.indistinguishing_ok,
            "divide_ok": self.divide_ok,
            "passed": self.passed,
        }


def frobenius_screen(scheme: Scheme) -> FrobeniusScreen:
    """Equivalenced with valency k >= 2, indistinguishing number k - 1, and
    the divide check on every nested pair of parabolics.
    """
    k = scheme.is_equivalenced()
    if k is None or k < 2:
        return FrobeniusScreen(False, k, False, False)
    indist_ok = indistinguishing_number(scheme) == k - 1
    divide_ok = all(rec.ok for rec in divide_check(scheme))
    return FrobeniusScreen(True, k, indist_ok, divide_ok)


class WlVerdict(NamedTuple):
    """Outcome of the dimwl classification of a circulant graph."""

    n: int
    factorization: str
    connection_size: int
    in_exception_set: bool
    closure_rank: int
    closure_valency: Optional[int]
    screen: FrobeniusScreen
    certification: Optional[str]
    group_order: Optional[int]
    separability: Optional[SeparabilityVerdict]
    verdict: str
    reason: str
    # n exceeds SEARCH_LIMIT and no construction certificate applies, so
    # the case is unresolved, not refuted; not part of the JSON report.
    search_limited: bool = False

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "factorization": self.factorization,
            "connection_size": self.connection_size,
            "in_exception_set": self.in_exception_set,
            "closure_rank": self.closure_rank,
            "closure_valency": self.closure_valency,
            "screen": self.screen.to_json_dict(),
            "certification": self.certification,
            "group_order": self.group_order,
            "separability": None
            if self.separability is None
            else self.separability.to_json_dict(),
            "verdict": self.verdict,
            "reason": self.reason,
        }


def _unit_orbit_labels(n: int, K) -> np.ndarray:
    """Label of each residue mod n by its orbit under multiplication by the
    unit group K, numbered 0, 1, ... in the order of the orbits' least
    members.

    Z_n x| K acts by x -> u*x + c, so the orbital of the pair (a, b) is
    fixed by the K-orbit of (b - a) mod n: the orbitals are the labels of
    the differences.
    """
    units = np.array(sorted(K), dtype=np.int64)
    least = (units[:, None] * np.arange(n, dtype=np.int64)) % n
    return np.unique(least.min(axis=0), return_inverse=True)[1]


def _construction_certificate(circ: Circulant, closure: Scheme):
    """Try to match the closure with the orbital scheme of Z_n x| K for a
    fixed-point-free unit group K read off from the connection set.

    Only composite n qualifies: there the semidirect product acts
    imprimitively, hence equals the full automorphism group of its own
    orbital scheme, so a partition match certifies the Frobenius property
    of the closure's automorphism group.

    The orbitals are the K-orbit labels of the differences (b - a) mod n.
    A closure that matches them is Z_n-invariant as they are, so its
    radices are (n,), and then row 0 decides the match on all pairs.
    """
    n = circ.n
    if factorize(n) == {n: 1} or not closure.cyclic:
        return None
    for K in certificate_unit_groups(circ):
        if partition_equal(_unit_orbit_labels(n, K), closure.colors[0]):
            return len(K), n * len(K)
    return None


def dimwl_verdict(circ) -> WlVerdict:
    """Classify the WL dimension of a circulant graph.

    Accepts a Circulant or a CirculantSpec.  Returns Exactly2 when the
    coherent closure is certified as the scheme of a Frobenius group and
    the separability criteria apply, ExceptionUnresolved when n lies in
    the arithmetic exception set, and NotFrobeniusCertified otherwise.
    """
    if isinstance(circ, CirculantSpec):
        circ = frobenius_circulant(circ)
    if not isinstance(circ, Circulant):
        raise TypeError("expected a Circulant or CirculantSpec")
    n = circ.n
    closure = wl_closure(color_matrix(circ))
    # The screen and the separability verdict share the closure's one
    # parabolic lattice, which the scheme keeps.
    screen = frobenius_screen(closure)
    exc = exception_check(n)

    def outcome(verdict: str, reason: str, certification=None, group_order=None,
                separability=None, search_limited=False) -> WlVerdict:
        return WlVerdict(
            n=n, factorization=factorization_string(n),
            connection_size=len(circ.connection),
            in_exception_set=exc.in_exception_set, closure_rank=closure.rank,
            closure_valency=screen.valency, screen=screen,
            certification=certification, group_order=group_order,
            separability=separability, verdict=verdict, reason=reason,
            search_limited=search_limited)

    if not screen.passed:
        return outcome("NotFrobeniusCertified", "closure fails the Frobenius screen")

    built = _construction_certificate(circ, closure)
    if built is not None:
        certification, group_order = "construction", built[1]
    elif n <= SEARCH_LIMIT:
        cert: FrobeniusCertificate = frobenius_certificate(closure)
        if not cert.frobenius:
            return outcome("NotFrobeniusCertified", "automorphism search: %s" % cert.reason)
        certification, group_order = "search", cert.group_order
    else:
        return outcome("NotFrobeniusCertified",
                       "no construction certificate and n exceeds the search limit %d"
                       % SEARCH_LIMIT, search_limited=True)

    if exc.in_exception_set:
        return outcome("ExceptionUnresolved", exc.reason, certification, group_order)

    sep = separability_verdict(closure)
    if not sep.separable:
        raise AssertionError(
            "certified Frobenius closure outside the exception set must be "
            "separable, n=%d" % n)
    if not 1 <= len(circ.connection) <= n - 2:
        raise AssertionError("empty or complete graph cannot reach Exactly2")
    return outcome("Exactly2", "Frobenius closure (%s) with separability certificate (%s)"
                   % (certification, sep.reason), certification, group_order, sep)
