"""t-vertex condition checker for association schemes (t = 3 or 4).

For every ordered point pair (alpha, beta) the histogram of color
patterns over all placements of the remaining t - 2 points is computed;
the condition holds when the histogram depends only on the color of
(alpha, beta).  Histograms are compared through 128-bit fingerprints,
with an exact recomparison on the first mismatch to produce a witness.

When `Scheme.translations` certifies that translations are automorphisms,
pair (a, b) has the histogram of (0, b - a), so only row 0 is scanned:
the reference pairs, the first deviating pair and the report are those
of the full row-major scan.  Without a certificate all n^2 pairs are
scanned.

t = 3 restates the intersection-number axiom, so it passes on any
coherent input; t = 4 is strictly stronger and separates some schemes
sharing a tensor (the spread constructions provide both outcomes).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .scheme import Scheme


@dataclass(frozen=True)
class TConditionWitness:
    """First (row-major) pair whose histogram deviates from its color's."""

    alpha: int
    beta: int
    color: int
    ref_alpha: int
    ref_beta: int
    code: int
    pattern: tuple
    ref_count: int
    count: int

    def pattern_dict(self) -> dict:
        if len(self.pattern) == 2:
            keys = ("alpha_g", "beta_g")
        else:
            keys = ("alpha_g3", "beta_g3", "alpha_g4", "beta_g4", "g3_g4")
        return dict(zip(keys, (int(x) for x in self.pattern)))

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta, "color": self.color,
            "ref_alpha": self.ref_alpha, "ref_beta": self.ref_beta,
            "pattern": self.pattern_dict(),
            "ref_count": self.ref_count, "count": self.count,
        }


@dataclass(frozen=True)
class TConditionReport:
    t: int
    passed: bool
    n: int
    rank: int
    scheme_fingerprint: str
    pairs_checked: int
    class_fingerprints: tuple[str, ...]
    witness: TConditionWitness | None = None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t, "passed": self.passed, "n": self.n, "rank": self.rank,
            "scheme_fingerprint": self.scheme_fingerprint,
            "pairs_checked": self.pairs_checked,
            "class_fingerprints": list(self.class_fingerprints),
            "witness": None if self.witness is None else self.witness.to_json_dict(),
        }


def _codes(P: np.ndarray, R: int, a: int, b: int, t: int) -> np.ndarray:
    """The pair's pattern codes, one per placement of the other points."""
    if t == 3:
        return P[a].astype(np.int64) * R + P[b]
    A = P[a][:, None].astype(np.int64)
    B = P[b][:, None]
    C = P[a][None, :]
    D = P[b][None, :]
    return ((((A * R + B) * R + C) * R + D) * R + P).ravel()


def _signature(P: np.ndarray, R: int, a: int, b: int, t: int):
    """Sorted (codes, counts) histogram of the pair's pattern codes."""
    return np.unique(_codes(P, R, a, b, t), return_counts=True)


def _fingerprint(vals: np.ndarray, counts: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(vals.tobytes())
    h.update(counts.astype(np.int64).tobytes())
    return h.hexdigest()


def _decode(code: int, R: int, t: int) -> tuple:
    width = 2 if t == 3 else 5
    digits = []
    for _ in range(width):
        digits.append(int(code % R))
        code //= R
    return tuple(reversed(digits))


def _witness(scheme: Scheme, a: int, b: int, ra: int, rb: int, t: int) -> TConditionWitness:
    """Exact comparison of the two pairs' sorted codes.

    Both have n^(t-2) codes, so their histograms differ first at the
    smaller of the two codes at the first index where the sorted arrays
    differ; below it every count agrees."""
    P, R = scheme.colors, scheme.rank
    s1 = _codes(P, R, ra, rb, t)
    s1.sort()
    s2 = _codes(P, R, a, b, t)
    s2.sort()
    neq = s1 != s2
    i = int(neq.argmax())
    if not neq[i]:
        raise AssertionError("fingerprint mismatch without histogram difference")
    code = int(min(s1[i], s2[i]))

    def count(s):
        return int(np.searchsorted(s, code, "right") - np.searchsorted(s, code, "left"))

    return TConditionWitness(alpha=a, beta=b, color=int(P[a, b]),
                             ref_alpha=ra, ref_beta=rb, code=code,
                             pattern=_decode(code, R, t),
                             ref_count=count(s1), count=count(s2))


_CODE_MAX = np.iinfo(np.int64).max


def _check_code_range(R: int, t: int) -> None:
    """Raise ValueError when the int64 pattern codes of rank R overflow."""
    width = 2 if t == 3 else 5
    if R ** width - 1 > _CODE_MAX:
        raise ValueError("rank %d is too large for t = %d: pattern codes reach "
                         "%d^%d - 1, beyond int64" % (R, t, R, width))


def _worker_count(workers: int, rows: int) -> int:
    """Threads worth starting: at most one per scanned row and per CPU."""
    return max(1, min(workers, rows, os.cpu_count() or 1))


def check_t_condition(scheme: Scheme, t: int, workers: int = 1) -> TConditionReport:
    """Scan ordered pairs row-major; stop at the first deviation.

    The reference histogram of each color comes from its first row-major
    pair.  A scheme certified by `Scheme.translations` is scanned in row 0
    only (see the module docstring); otherwise every row is scanned.
    pairs_checked is the row-major position of the witness, or n^2 on a
    pass, in both cases.  With workers > 1 (clamped to the scanned rows
    and the CPU count) the fingerprints of the scanned rows are computed
    up front in parallel; the comparison pass stays serial, so the
    reported witness does not depend on the worker count.  Raises
    ValueError for t other than 3 and 4, and before the scan when the
    pattern codes of the scheme's rank would overflow int64.
    """
    if t not in (3, 4):
        raise ValueError("only t = 3 and t = 4 are supported")
    P, R, n = scheme.colors, scheme.rank, scheme.n
    _check_code_range(R, t)
    rows = range(1) if scheme.translations is not None else range(n)
    ref_pair: dict[int, tuple[int, int]] = {}
    ref_fp: dict[int, str] = {}

    def fp_of(a: int, b: int) -> str:
        return _fingerprint(*_signature(P, R, a, b, t))

    table = None
    workers = _worker_count(workers, len(rows))
    if workers > 1:
        table = [[None] * n for _ in rows]

        def fill(chunk):
            for a in chunk:
                row = table[a]
                for b in range(n):
                    row[b] = fp_of(a, b)

        chunks = [rows[i::workers] for i in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as ex:
            list(ex.map(fill, chunks))

    for a in rows:
        for b in range(n):
            r = int(P[a, b])
            fp = table[a][b] if table is not None else fp_of(a, b)
            if r not in ref_fp:
                ref_fp[r] = fp
                ref_pair[r] = (a, b)
                continue
            if fp != ref_fp[r]:
                w = _witness(scheme, a, b, *ref_pair[r], t)
                return TConditionReport(
                    t=t, passed=False, n=n, rank=R,
                    scheme_fingerprint=scheme.fingerprint(),
                    pairs_checked=a * n + b + 1,
                    class_fingerprints=tuple(ref_fp[s] for s in sorted(ref_fp)),
                    witness=w)
    return TConditionReport(t=t, passed=True, n=n, rank=R,
                            scheme_fingerprint=scheme.fingerprint(),
                            pairs_checked=n * n,
                            class_fingerprints=tuple(ref_fp[s] for s in sorted(ref_fp)))


def four_condition_frobenius_verdict(report: TConditionReport,
                                     algebraically_frobenius: bool) -> str:
    """Classify a scheme sharing its tensor with a Frobenius scheme.

    Passing the 4-condition forces such a scheme to be a Frobenius scheme
    itself; failing it certifies a proper exemplar.  Without the tensor
    match the 4-condition alone decides nothing, hence "inapplicable".
    """
    if report.t != 4:
        raise ValueError("verdict needs a t = 4 report")
    if not algebraically_frobenius:
        return "inapplicable"
    return "frobenius" if report.passed else "proper"
