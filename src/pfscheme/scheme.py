"""Association schemes as color matrices, their intersection tensors, and
the coherent (2-dim Weisfeiler-Leman) closure of colored digraphs.

A scheme on n points is an n x n matrix of relation indices with the
diagonal as relation 0, closed under transposition (star), and with
pair-independent composition counts c[r][s][t] = |alpha r  intersect
beta s*| for (alpha, beta) in t.  All arithmetic is exact integer.

Every scheme the package builds is a translation scheme on its own point
indices: translation by an abelian group on range(n) is an automorphism.
The certificate is the group's radices, `Scheme.radices`: those
`translation_scheme` built the scheme at, or else Z_n or (Z_p)^k when
`translation_radices` finds that its difference table passes the row
test.  The kernels then compute row 0 only, since pair (a, b) behaves as
pair (0, b - a).  A difference table lives only inside this module's calls.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .arith import difference_table, prime_power, sorted_unique


_BLOCK = 1 << 16         # matrix entries per block of a row-blocked pass


def color_dtype(rank: int) -> np.dtype:
    """The least unsigned dtype holding the colours 0..rank-1: uint8 up to
    rank 256, uint16 up to 65536."""
    return np.min_scalar_type(rank - 1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def blake2b_16():
    """A new blake2b hash with a 16-byte digest.  CPython's hashlib.blake2b
    is _blake2.blake2b; importing it from there skips the OpenSSL module
    that `import hashlib` loads whatever the digest."""
    try:
        from _blake2 import blake2b
    except ImportError:         # an interpreter without the _blake2 module
        from hashlib import blake2b
    return blake2b(digest_size=16)


class SchemeError(ValueError):
    """Structural violation: not a scheme (axioms C1/C2 or shape)."""


class NotCoherentError(SchemeError):
    """Composition counts depend on the pair: witness for a C3 failure.

    Attributes r, s, t name the relations; pair1 is the representative
    pair of t, pair2 the offending pair, with their differing counts.
    """

    def __init__(self, r, s, t, pair1, pair2, count1, count2):
        self.r, self.s, self.t = r, s, t
        self.pair1, self.pair2 = pair1, pair2
        self.count1, self.count2 = count1, count2
        super().__init__(
            "c[%d][%d][%d] is not pair-independent: %d at %s vs %d at %s"
            % (r, s, t, count1, pair1, count2, pair2)
        )


class Scheme:
    """n x n relation-index matrix with validated C1/C2 axioms.

    `colors` is read-only, in the least unsigned dtype that holds the rank
    (`color_dtype`): one byte per pair up to rank 256, two up to 65536.
    Arithmetic on colours widens them first.  Indexing a table by uint8
    colours casts them one at a time, about four times slower than intp
    indices, so the repeated lookups at a block of colours use `take`,
    which converts the block to intp once.  An input that already is such
    an array, read-only, C-contiguous and owning its data, is kept without
    a copy; any other input is copied.
    """

    def __init__(self, colors):
        P = np.asarray(colors)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise SchemeError("colors must be a square matrix")
        if not np.issubdtype(P.dtype, np.integer):
            raise SchemeError("colors must be integers")
        n = P.shape[0]
        if n == 0:
            raise SchemeError("empty point set")
        rank = int(P.max()) + 1
        # rank <= n^2 also bounds the bincount of first_pairs
        if int(P.min()) < 0 or rank > P.size:
            raise SchemeError("colors must use every index in 0..rank-1")
        dt = color_dtype(rank)
        if not (P.dtype == dt and P.flags.c_contiguous and P.flags.owndata
                and not P.flags.writeable):
            P = _read_only(P.astype(dt, order="C"))
        first, counts = first_pairs(P)
        if not counts.all():
            raise SchemeError("colors must use every index in 0..rank-1")
        diag = np.diagonal(P)
        if not (diag == 0).all():
            raise SchemeError("diagonal must be relation 0")
        if n > 1 and counts[0] != n:
            raise SchemeError("relation 0 must be exactly the diagonal")
        # star: transposing a relation must land on one relation, the one
        # holding the transpose of its first pair.  Once every pair passes,
        # star is an involution fixing 0: transposing twice is the identity.
        a, b = np.divmod(first, n)
        stv = P[b, a].astype(np.int64)
        step = max(1, _BLOCK // n)      # rows per block: no n^2 temporary
        for lo in range(0, n, step):
            bad = np.argwhere(stv.take(P[lo:lo + step]) != P.T[lo:lo + step])
            if len(bad):
                a, b = lo + int(bad[0, 0]), int(bad[0, 1])
                raise SchemeError("transpose of relation %d is not a relation (pair %s)"
                                  % (int(P[a, b]), (a, b)))
        self.colors = P
        self.n = n
        self.rank = rank
        self.star = tuple(stv.tolist())
        self._first = first
        self._tensor: IntersectionTensor | None = None
        self._parabolics = None         # parabolic._parabolic_lattice, once built

    # -- basic structure -------------------------------------------------

    def valencies(self) -> tuple[int, ...]:
        """Out-valency of each relation (row counts, pair-independent)."""
        counts = np.bincount(self.colors[0], minlength=self.rank)
        return tuple(int(c) for c in counts)

    def is_equivalenced(self):
        """Common irreflexive valency k if equivalenced, else None."""
        vals = set(self.valencies()[1:])
        if len(vals) == 1:
            return vals.pop()
        return None

    def representative(self, s: int) -> tuple[int, int]:
        """First row-major pair of relation s."""
        return divmod(int(self._first[s]), self.n)

    @cached_property
    def radices(self) -> tuple | None:
        """The radices `translation_scheme` kept, else the colours' `translation_radices`."""
        return translation_radices(self.colors)

    @property
    def cyclic(self) -> bool:
        """Whether the certificate is Z_n: one digit of radix n."""
        return self.radices == (self.n,)

    def fingerprint(self) -> str:
        """Hex blake2b (16 bytes) of the colours, as native int64 in row-major
        order, followed by the star: one byte per relation up to rank 256,
        and one little-endian int64 per relation above it."""
        h = blake2b_16()
        step = max(1, _BLOCK // self.n)
        for lo in range(0, self.n, step):   # widened a row block at a time
            h.update(self.colors[lo:lo + step].astype(np.int64))
        h.update(bytes(self.star) if self.rank <= 256 else np.asarray(self.star, dtype="<i8"))
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scheme) and self.n == other.n
                and self.star == other.star
                and np.array_equal(self.colors, other.colors))

    def __hash__(self) -> int:
        return hash((self.n, self.rank, self.fingerprint()))

    def __repr__(self) -> str:
        return "Scheme(n=%d, rank=%d)" % (self.n, self.rank)

    # -- intersection numbers ---------------------------------------------

    def tensor(self) -> "IntersectionTensor":
        """Compute (and cache) the intersection tensor, verifying C3.

        The claimed counts come from one representative pair per relation;
        a vectorized pass then checks every pair against them (row 0 alone
        when `radices` certifies the rest), so acceptance doubles as full
        coherence verification.
        """
        if self._tensor is None:
            self._tensor = compute_tensor(self)
        return self._tensor

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rank": self.rank,
            "star": list(self.star),
            "colors": self.colors.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Scheme":
        for key in ("n", "rank", "star", "colors"):
            if key not in d:
                raise SchemeError("scheme JSON missing key %r" % key)
        sch = cls(d["colors"])
        if sch.n != d["n"] or sch.rank != d["rank"]:
            raise SchemeError("scheme JSON n/rank fields disagree with the matrix")
        if d["star"] != list(sch.star):
            raise SchemeError("scheme JSON star field is not the matrix's transpose map")
        return sch


class IntersectionTensor:
    """Exact composition counts c[r][s][t] plus valencies, fully verified.

    The stored form is `ref`, one row of n codes per relation: ref[t] is
    the sorted column of codes r * R + s, with r = P[a, g] and s = P[g, b],
    over the intermediate points g of the representative pair (a, b) of t.
    So c[r, s, t] is the number of times r * R + s occurs in ref[t], and
    the tensor takes R n codes in `_code_dtype(R)` instead of R^3 int64
    counts.  `slice(t)` and `T[r, s, t]` read counts off one row.
    """

    def __init__(self, ref: np.ndarray, valencies: tuple[int, ...],
                 star: tuple[int, ...], n: int):
        self.ref = ref               # (rank, n) sorted codes r * rank + s, read-only
        self.valencies, self.star, self.n = valencies, star, n

    @property
    def rank(self) -> int:
        return len(self.valencies)

    def slice(self, t: int) -> np.ndarray:
        """c[:, :, t] as an (R, R) int64 array."""
        R = self.rank
        return np.bincount(self.ref[t], minlength=R * R).reshape(R, R)

    def __getitem__(self, rst):
        r, s, t = rst
        row, code = self.ref[t], r * self.rank + s
        return int(np.searchsorted(row, code, "right") - np.searchsorted(row, code, "left"))

    def verify_triangle(self):
        """n_t c[r,s,t*] = n_r c[s,t,r*] = n_s c[t,r,s*] for all triples.

        With u = t*, the three counts are w(x), w(phi x) and w(phi^2 x) for
        x = (r, s, u), the weight w(r, s, u) = n_u c[r, s, u] and the
        order-3 map phi(r, s, u) = (s, u*, r*).  So the identities say that
        w is constant on every phi-orbit.  The distinct codes x of `ref`
        (at most R n of them, keyed u R^2 + r R + s) are the support of w;
        the identities hold exactly when phi maps the support onto itself
        and w(phi x) = w(x) on it, which one sort of the keys of phi x
        decides.  Otherwise every triple of an orbit on which w is not
        constant fails, such an orbit holds a nonzero count, and the error
        names the least failing (r, s, t).
        """
        R = self.rank
        nv = np.asarray(self.valencies, dtype=np.int64)
        st = np.asarray(self.star, dtype=np.int64)
        # ascending: ref is u-major with sorted rows
        keys = (self.ref + (np.arange(R, dtype=np.int64) * (R * R))[:, None]).ravel()
        new = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = np.flatnonzero(new)
        x = keys[first]
        del keys, new
        # w = run length of each code times n_u.  At most four arrays of the
        # m distinct codes are live at once; other temporaries are slices.
        w = np.empty_like(first)
        np.subtract(first[1:], first[:-1], out=w[:-1])
        w[-1] = self.ref.size - first[-1]
        del first
        y = np.empty_like(x)            # y[i]: key of phi x[i]
        for lo in range(0, x.size, _BLOCK):
            cut = slice(lo, lo + _BLOCK)
            w[cut] *= nv[x[cut] // (R * R)]
            y[cut] = _phi_keys(x[cut], st, R)
        order = np.argsort(y)
        held = all(np.array_equal(y[order[lo:lo + _BLOCK]], x[lo:lo + _BLOCK])
                   and np.array_equal(w[order[lo:lo + _BLOCK]], w[lo:lo + _BLOCK])
                   for lo in range(0, x.size, _BLOCK))
        del order
        if held:
            return

        def weight(at):
            i = np.searchsorted(x, at)
            i[i == x.size] = 0
            return np.where(x[i] == at, w[i], 0)

        y2 = _phi_keys(y, st, R)
        bad = (weight(y) != w) | (weight(y2) != w)
        u, rs = np.divmod(np.concatenate((x[bad], y[bad], y2[bad])), R * R)
        r, s = np.divmod(rs, R)
        t = st[u]
        i = np.lexsort((t, s, r))[0]
        raise SchemeError("triangle identity fails at (r,s,t)=%s"
                          % ((int(r[i]), int(s[i]), int(t[i])),))

    def verify_row_sums(self):
        """sum_t c[r,s,t] n_t = n_r n_s for all r, s: each code of ref[t]
        adds n_t to one (R, R) int64 accumulator."""
        nv = np.asarray(self.valencies, dtype=np.int64)
        lhs = np.zeros(self.rank * self.rank, dtype=np.int64)
        for t, row in enumerate(self.ref):
            np.add.at(lhs, row, nv[t])
        lhs = lhs.reshape(self.rank, self.rank)
        rhs = np.outer(nv, nv)
        if not np.array_equal(lhs, rhs):
            bad = np.argwhere(lhs != rhs)[0]
            raise SchemeError("row-sum identity fails at (r,s)=%s" % (tuple(int(x) for x in bad),))


def _phi_keys(keys: np.ndarray, st: np.ndarray, R: int) -> np.ndarray:
    """The keys u R^2 + r R + s of phi(r, s, u) = (s, u*, r*), given the
    keys of (r, s, u) and the star permutation st."""
    u, rs = np.divmod(keys, R * R)
    r, s = np.divmod(rs, R)
    return (st[r] * R + s) * R + st[u]


def _certified_tables(P: np.ndarray):
    """Yield (radices, D) for each candidate abelian group on range(n)
    whose difference table D passes the row test: Z_n, then, when
    n = p^k with k > 1, (Z_p)^k.  Tables are built one at a time."""
    n = P.shape[0]
    candidates = [(n,)]
    pe = prime_power(n)
    if pe is not None and pe[1] > 1:
        candidates.append((pe[0],) * pe[1])
    for radices in candidates:
        D = difference_table(radices)
        if _translates_row_zero(P, D):
            yield radices, D
        del D                           # before the next candidate is built


def _translates_row_zero(P: np.ndarray, D: np.ndarray) -> bool:
    """The row test P[a, b] == P[0, D[a, b]], in row blocks.  For a
    difference table D, x -> x + c then preserves P, so the pair (a, b) has
    the colour and the counts through intermediate points of (0, D[a, b]):
    every colour, its first row-major pair and the first pair at which any
    such count breaks all lie in row 0."""
    n, P0 = P.shape[0], P[0]
    step = max(1, _BLOCK // n)          # rows per compared block
    return all(np.array_equal(P[lo:lo + step], P0[D[lo:lo + step]])
               for lo in range(0, n, step))


def translation_radices(P) -> tuple | None:
    """The radices of the first candidate of `_certified_tables`: the group
    whose translations are certified automorphisms, or None."""
    return next(_certified_tables(np.asarray(P)), (None, None))[0]


def first_pairs(P):
    """(first, counts) for the colours 0..max of a non-negative colour matrix
    P: the row-major flat index of each colour's first pair (-1 when it has
    none) and its number of pairs.  Rows are scanned only until every
    colour has been met, which is row 0 for a homogeneous scheme."""
    P = np.asarray(P)
    size = int(P.max()) + 1
    # bincount widens its input to intp: row blocks keep that copy small
    step = max(1, _BLOCK // P.shape[1])
    counts = sum(np.bincount(P[lo:lo + step].ravel(), minlength=size)
                 for lo in range(0, len(P), step))
    first = np.full(size, -1, dtype=np.int64)
    missing = np.count_nonzero(counts)
    for a, row in enumerate(P):
        cols, idx = np.unique(row, return_index=True)
        new = first[cols] < 0
        first[cols[new]] = a * P.shape[1] + idx[new]
        missing -= int(new.sum())
        if missing == 0:
            break
    return first, counts


def _code_dtype(R: int):
    """Smallest signed integer dtype holding the pair codes 0..R*R-1."""
    for dt in (np.int16, np.int32):
        if R * R - 1 <= np.iinfo(dt).max:
            return dt
    return np.int64


def _signature_blocks(P: np.ndarray, R: int, rows):
    """Yield (a, lo, S) for the points a of rows and the columns
    b = lo, lo + 1, ... of a block, in row-major order, where row i of S is
    the signature of the pair (a, lo + i): S[i, 0] = P[a, lo + i] and
    S[i, 1:] is the sorted column of codes P[a, g] * R + P[g, lo + i] over
    all g.

    Two pairs with equal signatures have the same colour and the same
    multiset of colour pairs through every intermediate point.  A block
    holds `_BLOCK // n` columns (at least one), and S is a C-contiguous
    view of one buffer in the smallest dtype that holds the codes, reused
    (overwritten) for every block.  One row reads its columns off the
    strided view P.T, with no n^2 copy; more rows share one copy of P.T
    cast to that dtype, as contiguous reads pay for it over every row.
    """
    n, dt = P.shape[0], _code_dtype(R)
    step = max(1, _BLOCK // n)
    QT = P.T if len(rows) == 1 else P.T.astype(dt, order="C")   # QT[b, g] = P[g, b]
    buf = np.empty((min(step, n), n + 1), dtype=dt)
    for a in rows:
        row = P[a].astype(dt)
        codes = row * R
        for lo in range(0, n, step):
            S = buf[:min(step, n - lo)]
            S[:, 0] = row[lo:lo + step]
            np.add(codes, QT[lo:lo + step], out=S[:, 1:])
            S[:, 1:].sort(axis=1)
            yield a, lo, S


def compute_tensor(scheme: Scheme) -> IntersectionTensor:
    """Intersection numbers with exhaustive pair-independence verification.

    The representative pair of each relation gives its reference
    signature: the sorted column of codes (r, s) over intermediate points,
    which is row t of the returned tensor's `ref` (R rows of n codes; the
    dense R^3 counts are not built).  The pair signatures are then
    compared with the references of their relations, a block of columns
    at a time (`_signature_blocks`); on the first row-major pair whose
    code column differs, its histogram names the first (r, s) that differs
    from the claimed bincount of the reference, and NotCoherentError
    carries both counts.

    When `Scheme.radices` certifies the scheme, only row 0 is
    compared: every other pair has the signature of its translate in row
    0, so the verdict and the first mismatching pair are those of the full
    pass.  Without a certificate every row is compared.
    """
    P = scheme.colors
    n, R = scheme.n, scheme.rank
    reps = [scheme.representative(t) for t in range(R)]
    ref = np.empty((R, n), dtype=_code_dtype(R))
    for t, (a, b) in enumerate(reps):
        ref[t] = np.sort(P[a].astype(np.int64) * R + P[:, b])
    rows = [0] if scheme.radices is not None else range(n)
    expect = None
    for a, lo, S in _signature_blocks(P, R, rows):
        V = S[:, 1:]                    # row i: the code column of the pair (a, lo + i)
        if expect is None:              # one buffer, the shape of a full block
            expect = np.empty(V.shape, dtype=ref.dtype)
        E = np.take(ref, P[a, lo:lo + len(V)], axis=0, out=expect[:len(V)])
        if not np.array_equal(V, E):
            i = int(np.nonzero((V != E).any(axis=1))[0][0])
            b = lo + i
            t = int(P[a, b])
            hist = np.bincount(V[i], minlength=R * R)
            claimed = np.bincount(ref[t], minlength=R * R)
            cell = int(np.nonzero(hist != claimed)[0][0])
            r, s = divmod(cell, R)
            raise NotCoherentError(r, s, t, reps[t], (a, b),
                                   int(claimed[cell]), int(hist[cell]))
    ref.setflags(write=False)
    # n_s = c[s, s*, 0] is the row-0 bincount by construction: ref[0] holds
    # the codes P[0, g] R + P[g, 0] of the pair (0, 0), Scheme has checked
    # P[g, 0] = star(P[0, g]), so s R + s* occurs once per g with P[0, g] = s
    out = IntersectionTensor(ref=ref, valencies=scheme.valencies(), star=scheme.star, n=n)
    out.verify_triangle()
    out.verify_row_sums()
    return out


def canonical_relabel(colors) -> Scheme:
    """Scheme with relations renumbered canonically.

    Relation 0 is the diagonal; the rest are ordered by (valency, smallest
    pair row-major).  Input must already partition into scheme relations.
    """
    P = np.asarray(colors)
    diag_color = int(P[0, 0])
    if not (np.diagonal(P) == diag_color).all():
        raise SchemeError("diagonal is not a single class")
    first, total = first_pairs(P)
    lut = _canonical_lut(first, total // len(P), diag_color)
    return Scheme(_read_only(lut.astype(color_dtype(int(lut.max()) + 1))[P]))


def _canonical_lut(first, valency, diag) -> np.ndarray:
    """Canonical number of each label (`first_pairs` of the labels, their
    valencies): `diag` first, the others by (valency, first pair)."""
    old = np.flatnonzero(first >= 0)
    lut = np.zeros(len(first), dtype=np.int64)
    lut[old[np.lexsort((first[old], valency[old], old != diag))]] = np.arange(len(old))
    return lut


def translation_scheme(labels, radices) -> Scheme:
    """The scheme colouring (a, b) by labels[b - a], the difference taken
    digitwise in the radices (`arith`), for non-negative labels, labels[0]
    naming only the diagonal: `_gather` at their difference table."""
    return _gather(labels, tuple(radices), difference_table(radices))


def _gather(labels, radices: tuple, D: np.ndarray) -> Scheme:
    """`translation_scheme` at D, the difference table of the radices.  The
    labels are numbered as `canonical_relabel` numbers the matrix, off row
    0, which holds each colour's first pair and valency, and gathered once
    in `color_dtype`, the Scheme's only n^2 array.  The radices certify it
    without the row test, which cannot fail: P[a, b] = row[D[a, b]] and
    D[0] = arange(n), so P[0, D[a, b]] = row[D[a, b]] = P[a, b]."""
    labels = np.asarray(labels)
    first, valency = first_pairs(labels[None, :])
    row = _canonical_lut(first, valency, int(labels[0]))[labels]
    scheme = Scheme(_read_only(row.astype(color_dtype(int(row.max()) + 1))[D]))
    scheme.radices = radices
    return scheme


def partition_equal(first, second) -> bool:
    """True when two integer labelings of the same cells induce the same
    partition (labels may differ, the fibers must coincide)."""
    A = np.asarray(first, dtype=np.int64)
    B = np.asarray(second, dtype=np.int64)
    if A.shape != B.shape:
        return False
    combo = A * (int(B.max()) + 1) + B
    return len(sorted_unique(combo)) == len(sorted_unique(A)) == len(sorted_unique(B))


def _carries(g: np.ndarray, colors: np.ndarray, image: np.ndarray) -> bool:
    """Whether the point map g is a bijection with colors[g a, g b] ==
    image[a, b] on all n^2 pairs.  For a colour map psi from P1 to P2,
    image is psi[P1], which a scan of many maps computes once."""
    g = np.asarray(g)
    return (np.array_equal(np.sort(g), np.arange(len(image)))
            and np.array_equal(colors[g][:, g], image))


def from_orbitals(group) -> Scheme:
    """Scheme of the 2-orbits of a transitive permutation group."""
    n = group.degree
    return canonical_relabel(group.orbitals().reshape(n, n))


def frobenius_scheme(spec) -> Scheme:
    """The orbital scheme of a Frobenius spec's group, without the group:
    `from_orbitals(build_frobenius(spec))`, computed from tables.  The
    kernel is abelian and regular and the stabilizer of 0 is the
    complement, so the orbital of (a, b) is named by the least member of
    the complement orbit of b - a: row 0 is the column minima of the table
    `spec.validate()` checks and returns, on the kernel's radices."""
    return translation_scheme(spec.validate().min(axis=0), spec.radices)


def wl_closure(colors) -> Scheme:
    """Coherent closure of an initial n x n pair coloring.

    Pre-splits classes by the key (a == b) base^2 + M[a, b] base + M[b, a],
    base = max + 1, so the stable partition is star-closed, then refines
    each pair by its exact signature (`_signature_blocks`: its color and
    the sorted multiset of color pairs over intermediate points) until the
    class count stops growing.  New classes are numbered in row-major
    order of first appearance, one dict lookup per pair on the signature's
    bytes.  The keys are distinct and fit int64 when the colours are
    non-negative and 2 base^2 <= 2^63, that is, at most 2^31 - 1; other
    colours raise SchemeError.

    When `_certified_tables` yields a table D for the initial colouring
    (the first to pass the row test), the pre-split and each iteration compute row 0 only
    and set P[a, b] = P[0, D[a, b]]: the pre-split key of (a, b) is read
    off M[a, b], M[b, a] and a == b, so every key occurs in row 0 and the
    keys of row 0 number as all n^2 keys do; refinement commutes with the
    translations, and every class first appears in row 0, so the closure
    is the `translation_scheme` of its row 0 and D's radices, numbered as
    by the full pass and gathered at D.  Only row 0 and column 0 of M are
    widened for its keys.
    Raises SchemeError if the stable configuration is not homogeneous
    (cannot happen for vertex-transitive inputs).
    """
    M = np.asarray(colors)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise SchemeError("initial coloring must be a square matrix")
    if not np.issubdtype(M.dtype, np.integer):
        raise SchemeError("initial coloring must be integers")
    n = M.shape[0]
    base = int(M.max()) + 1
    if int(M.min()) < 0 or 2 * base * base > 1 << 63:
        raise SchemeError("initial colors must lie in 0..%d" % ((1 << 31) - 1))
    radices, D = next(_certified_tables(M), (None, None))
    rows = range(n) if D is None else [0]
    keys = np.add(M[rows].astype(np.int64) * base, M.T[rows], dtype=np.int64)
    keys[range(len(rows)), rows] += base * base         # the diagonal marker
    distinct, newP = np.unique(keys, return_inverse=True)
    R, newR = 0, len(distinct)
    while newR != R:                    # until the class count stops growing
        P, R = newP.reshape(len(rows), n).astype(color_dtype(newR)), newR
        if D is not None:
            P = P[0][D]
        sig_ids: dict[bytes, int] = {}
        newP = np.empty(len(rows) * n, dtype=np.int64)
        at = 0
        for _, _, S in _signature_blocks(P, R, rows):   # row-major: fills newP in order
            keys = S.view(np.dtype((np.void, S.itemsize * (n + 1)))).ravel().tolist()
            newP[at:at + len(keys)] = [sig_ids.setdefault(k, len(sig_ids)) for k in keys]
            at += len(keys)
        newR = len(sig_ids)
    if D is not None:
        return _gather(P[0], radices, D)
    if len(sorted_unique(np.diagonal(P))) != 1:
        raise SchemeError("stable coloring is not homogeneous (diagonal splits)")
    return canonical_relabel(P)
