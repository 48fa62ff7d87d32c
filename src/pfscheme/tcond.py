"""t-vertex condition checker for association schemes (t = 3 or 4).

For every ordered point pair (alpha, beta) the histogram of color
patterns over all placements of the remaining t - 2 points is computed;
the condition holds when the histogram depends only on the color of
(alpha, beta).  Histograms are compared exactly: pairs are grouped by
color, and each pair's sorted pattern codes are compared with those of
its color's first row-major pair.  The 128-bit fingerprints in the report
only name each color's reference histogram; no verdict rests on them.

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

from typing import NamedTuple

import numpy as np

from .scheme import Scheme


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

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha, "beta": self.beta, "color": self.color,
            "ref_alpha": self.ref_alpha, "ref_beta": self.ref_beta,
            "pattern": self.pattern_dict(),
            "ref_count": self.ref_count, "count": self.count,
        }


class TConditionReport(NamedTuple):
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


def _sorted_codes(P: np.ndarray, R: int, a: int, b: int, t: int) -> np.ndarray:
    """The pair's pattern codes, one per placement of the other points,
    sorted; equal arrays mean equal histograms."""
    ab = P[a] * R + P[b]                    # P is int64 (Scheme.colors)
    if t == 3:
        ab.sort()
        return ab
    codes = (ab * R)[:, None] + P[a]        # rows g3, columns g4
    codes *= R
    codes += P[b]
    codes *= R
    codes += P
    codes = codes.ravel()
    codes.sort()
    return codes


def _fingerprint(vals: np.ndarray, counts: np.ndarray) -> str:
    import hashlib      # here, so that jobs without fingerprints skip OpenSSL

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


def _witness(P: np.ndarray, R: int, t: int, pair: tuple, ref_pair: tuple,
             codes: np.ndarray, ref: np.ndarray) -> TConditionWitness:
    """The deviating histogram cell of pair against its reference pair.

    codes and ref are their sorted pattern codes, which differ.  Both have
    n^(t-2) codes, so the histograms differ first at the smaller of the
    two codes at the first index where the arrays differ; below it every
    count agrees."""
    i = int((ref != codes).argmax())
    code = int(min(ref[i], codes[i]))

    def count(s):
        return int(np.searchsorted(s, code, "right") - np.searchsorted(s, code, "left"))

    (a, b), (ra, rb) = pair, ref_pair
    return TConditionWitness(alpha=a, beta=b, color=int(P[a, b]),
                             ref_alpha=ra, ref_beta=rb, code=code,
                             pattern=_decode(code, R, t),
                             ref_count=count(ref), count=count(codes))


_CODE_MAX = np.iinfo(np.int64).max


def _check_code_range(R: int, t: int) -> None:
    """Raise ValueError when the int64 pattern codes of rank R overflow."""
    width = 2 if t == 3 else 5
    if R ** width - 1 > _CODE_MAX:
        raise ValueError("rank %d is too large for t = %d: pattern codes reach "
                         "%d^%d - 1, beyond int64" % (R, t, R, width))


def check_t_condition(scheme: Scheme, t: int) -> TConditionReport:
    """Find the first row-major pair whose histogram deviates from its color's.

    The reference histogram of each color is that of its first row-major
    pair.  The scanned pairs (row 0 when `Scheme.translations` certifies
    the scheme, see the module docstring, else all of them) are grouped by
    color, and the colors are visited in the order of their first pair.
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
    _check_code_range(R, t)
    scanned = P[0] if scheme.translations is not None else P.ravel()
    order = np.argsort(scanned, kind="stable")
    groups = np.split(order, np.cumsum(np.bincount(scanned, minlength=R))[:-1])
    best = scanned.size                 # position of the earliest mismatch
    ref_fp: dict[int, str] = {}
    witness = None
    for color in sorted(range(R), key=lambda c: groups[c][0]):
        first = int(groups[color][0])
        if first >= best:
            break
        ref_pair = divmod(first, n)
        ref = _sorted_codes(P, R, *ref_pair, t)
        ref_fp[color] = _fingerprint(*np.unique(ref, return_counts=True))
        for pos in groups[color][1:].tolist():
            if pos >= best:
                break
            pair = divmod(pos, n)
            codes = _sorted_codes(P, R, *pair, t)
            if not np.array_equal(codes, ref):
                best = pos
                witness = _witness(P, R, t, pair, ref_pair, codes, ref)
                break
        ref = codes = None      # free both before the next color's reference
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
