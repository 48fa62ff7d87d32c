"""t-vertex condition checker for association schemes (t = 3 or 4).

For every ordered point pair (alpha, beta) the histogram of color
patterns over all placements of the remaining t - 2 points is computed;
the condition holds when the histogram depends only on the color of
(alpha, beta).  Histograms are compared exactly: pairs are grouped by
color, and each pair's sorted pattern codes are compared with those of
its color's first row-major pair.  The codes are int32 when every code
of the rank fits, else int64, and a scan holds two arrays of them.  The
128-bit fingerprints in the report only name each color's reference
histogram; no verdict rests on them.

When `Scheme.radices` certifies that translations are automorphisms,
pair (a, b) has the histogram of (0, b - a), so only row 0 is scanned:
the reference pairs, the first deviating pair and the report are those
of the full row-major scan.  Without a certificate all n^2 pairs are
scanned.

t = 3 restates the intersection-number axiom, so it passes on any
coherent input; t = 4 is strictly stronger and separates some schemes
sharing a tensor (the spread constructions provide both outcomes).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .scheme import Scheme, blake2b_16


class TConditionWitness(NamedTuple):
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


class TConditionReport(NamedTuple):
    t: int
    passed: bool
    n: int
    rank: int
    scheme_fingerprint: str
    pairs_checked: int
    class_fingerprints: tuple[str, ...]
    witness: TConditionWitness | None = None


def _code_dtype(R: int, t: int):
    """int32 when every pattern code of rank R fits in it, else int64;
    ValueError when the codes pass int64."""
    width = 2 if t == 3 else 5
    top = R ** width - 1
    if top > np.iinfo(np.int64).max:
        raise ValueError("rank %d is too large for t = %d: pattern codes reach "
                         "%d^%d - 1, beyond int64" % (R, t, R, width))
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _sorted_codes(P: np.ndarray, R: int, a: int, b: int, t: int,
                  out: np.ndarray) -> np.ndarray:
    """The pair's pattern codes, one per placement of the other points,
    sorted, written into `out`, a buffer of n^(t-2) codes in
    `_code_dtype(R, t)`; equal arrays mean equal histograms."""
    n = len(P)
    ab = out if t == 3 else np.empty(n, dtype=out.dtype)
    np.multiply(P[a], R, out=ab, dtype=ab.dtype)    # widened: P is uint8 or uint16
    ab += P[b]
    if t == 4:
        codes = out.reshape(n, n)           # rows g3, columns g4
        np.add((ab * R)[:, None], P[a], out=codes, casting="same_kind")
        codes *= R
        codes += P[b]
        codes *= R
        codes += P              # cast buffer by buffer: no n^2 int64 temporary
    out.sort()
    return out


_CHUNK = 1 << 14      # codes compared per step of the run-length scan


def _run_ends(codes: np.ndarray):
    """Yield, one chunk of at most _CHUNK codes at a time, the positions of
    the last code of every run of equal codes in the sorted codes."""
    n = len(codes)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        nxt = codes[lo + 1:hi + 1]          # one code shorter in the last chunk
        last = np.ones(hi - lo, dtype=bool)
        np.not_equal(codes[lo:lo + len(nxt)], nxt, out=last[:len(nxt)])
        yield lo + np.flatnonzero(last)


def _fingerprint(codes: np.ndarray) -> str:
    """blake2b of the histogram of the sorted codes: the bytes of
    every distinct code, then those of its count, each as int64 (the
    `vals` and `counts` of `np.unique(codes, return_counts=True)`).  The
    run-length encoding is hashed chunk by chunk, so it is never stored."""
    h = blake2b_16()
    for ends in _run_ends(codes):
        h.update(codes[ends].astype(np.int64, copy=False))
    prev = -1
    for ends in _run_ends(codes):
        h.update(np.diff(ends, prepend=prev))
        if len(ends):
            prev = ends[-1]
    return h.hexdigest()


def _decode(code: int, R: int, t: int) -> tuple:
    width = 2 if t == 3 else 5
    digits = []
    for _ in range(width):
        digits.append(int(code % R))
        code //= R
    return tuple(reversed(digits))


def _witness(P: np.ndarray, R: int, t: int, pair: tuple, ref_pair: tuple,
             codes: np.ndarray, ref: np.ndarray) -> TConditionWitness:
    """The deviating histogram cell of pair against its reference pair.

    codes and ref are their sorted pattern codes, which differ.  Both have
    n^(t-2) codes, so the histograms differ first at the smaller of the
    two codes at the first index where the arrays differ; below it every
    count agrees."""
    i = int((ref != codes).argmax())
    code = min(ref[i], codes[i])    # of their dtype: for a Python int, searchsorted copies s to int64

    def count(s):
        return int(np.searchsorted(s, code, "right") - np.searchsorted(s, code, "left"))

    (a, b), (ra, rb) = pair, ref_pair
    return TConditionWitness(alpha=a, beta=b, color=int(P[a, b]),
                             ref_alpha=ra, ref_beta=rb, code=int(code),
                             pattern=_decode(int(code), R, t),
                             ref_count=count(ref), count=count(codes))


def check_t_condition(scheme: Scheme, t: int) -> TConditionReport:
    """Find the first row-major pair whose histogram deviates from its color's.

    The reference histogram of each color is that of its first row-major
    pair.  The scanned pairs (row 0 when `Scheme.radices` certifies
    the scheme, see the module docstring, else all of them) are grouped by
    color, one boolean mask per color, and the colors are visited in the
    order of their first pair.
    Within a color each pair's sorted codes are compared with the
    reference's, up to the first mismatch; pairs and colors at or after
    the earliest mismatch found so far are skipped, so the witness is the
    first deviating pair of the row-major scan.  pairs_checked is its
    row-major position plus one, or n^2 on a pass; class_fingerprints name
    the colors whose first pair precedes the witness.  Raises ValueError
    for t other than 3 and 4, and before the scan when the pattern codes of
    the scheme's rank would overflow int64.
    """
    if t not in (3, 4):
        raise ValueError("only t = 3 and t = 4 are supported")
    P, R, n = scheme.colors, scheme.rank, scheme.n
    dtype = _code_dtype(R, t)           # raises before anything is allocated
    # under a certificate every colour has its first pair in row 0
    scanned = P[0] if scheme.radices is not None else P.ravel()
    best = scanned.size                 # position of the earliest mismatch
    ref_fp: dict[int, str] = {}
    witness = None
    # the scan's only two n^(t-2) arrays, refilled for every pair
    ref, codes = (np.empty(n ** (t - 2), dtype=dtype) for _ in range(2))
    for first in np.sort(scheme._first).tolist():
        if first >= best:
            break
        color = int(scanned[first])
        ref_pair = divmod(first, n)
        _sorted_codes(P, R, *ref_pair, t, out=ref)
        ref_fp[color] = _fingerprint(ref)
        for pos in np.flatnonzero(scanned == color)[1:].tolist():
            if pos >= best:
                break
            pair = divmod(pos, n)
            _sorted_codes(P, R, *pair, t, out=codes)
            if not np.array_equal(codes, ref):
                best = pos
                witness = _witness(P, R, t, pair, ref_pair, codes, ref)
                break
    return TConditionReport(
        t=t, passed=witness is None, n=n, rank=R,
        scheme_fingerprint=scheme.fingerprint(),
        pairs_checked=n * n if witness is None else best + 1,
        class_fingerprints=tuple(ref_fp[c] for c in sorted(ref_fp)),
        witness=witness)


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
