"""Scheme axioms, intersection tensors, WL closure, and serialization."""

import json

import numpy as np
import pytest

from pfscheme.arith import difference_table
from pfscheme.catalog import batch_specs
from pfscheme.frobenius import CyclicFactor, FrobeniusSpec, build_frobenius
from pfscheme.perms import Permutation, PermGroup
from pfscheme.scheme import (
    IntersectionTensor,
    Scheme,
    SchemeError,
    NotCoherentError,
    _carries,
    canonical_relabel,
    partition_equal,
    from_orbitals,
    frobenius_scheme,
    wl_closure,
    compute_tensor,
)
from pfscheme.spreads import desarguesian_spread, spread_scheme


def cyclic_colors(n):
    """Difference-class coloring of Z_n folded by negation."""
    label = {}
    nxt = 0
    M = np.zeros((n, n), dtype=np.int64)
    for d in range(n):
        key = min(d, (-d) % n)
        if key not in label:
            label[key] = nxt
            nxt += 1
        for i in range(n):
            M[i][(i + d) % n] = label[key]
    return M


def test_cyclic_scheme_axioms_and_valencies():
    for n in (3, 5, 7, 9, 12):
        s = Scheme(cyclic_colors(n))
        assert s.n == n
        assert s.rank == n // 2 + 1
        v = s.valencies()
        assert v[0] == 1
        assert sum(v) == n
        T = s.tensor()
        T.verify_triangle()
        T.verify_row_sums()


def test_diagonal_must_be_color_zero():
    M = cyclic_colors(5)
    M = (M + 1) % 3
    with pytest.raises(SchemeError):
        Scheme(M)


@pytest.mark.parametrize("M", [[[0, 2], [2, 0]], [[0, -1], [-1, 0]],
                               [[0, 10 ** 12], [10 ** 12, 0]]])
def test_colors_must_use_every_index(M):
    with pytest.raises(SchemeError, match="every index"):
        Scheme(np.array(M))


def test_star_must_permute_colors():
    # asymmetric single off-diagonal class on 3 points is fine (directed triangle)
    M = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    s = Scheme(M)
    assert s.star[1] == 2 and s.star[2] == 1
    # break the star pairing: the transpose of color 1 meets both classes
    M2 = np.array([[0, 1, 1], [1, 0, 2], [2, 2, 0]])
    with pytest.raises(SchemeError):
        Scheme(M2)


def test_incoherent_coloring_rejected_by_tensor():
    # path graph P_4 coloring (edge/non-edge) is not coherent
    A = np.zeros((4, 4), dtype=np.int64)
    for i, j in ((0, 1), (1, 2), (2, 3)):
        A[i][j] = A[j][i] = 1
    for i in range(4):
        for j in range(4):
            if i != j and A[i][j] == 0:
                A[i][j] = 2
    s = Scheme(A)
    with pytest.raises(NotCoherentError):
        s.tensor()


def test_tensor_identities_on_petersen():
    # Petersen graph: strongly regular (10,3,0,1), so 2 classes + diagonal
    verts = [frozenset(p) for p in
             ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
              (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))]
    n = 10
    M = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i == j:
                M[i][j] = 0
            elif verts[i] & verts[j]:
                M[i][j] = 2
            else:
                M[i][j] = 1
    s = Scheme(M)
    T = s.tensor()
    T.verify_triangle()
    T.verify_row_sums()
    # p^1_{11} = lambda = 0 and p^2_{11} = mu = 1 for the adjacency class 1
    assert T[1, 1, 1] == 0
    assert T[1, 1, 2] == 1
    assert s.valencies() == (1, 3, 6)


def test_tensor_matches_direct_count():
    s = Scheme(cyclic_colors(9))
    T = s.tensor()
    M = s.colors
    n = s.n
    for r in range(s.rank):
        for t in range(s.rank):
            xs, ys = np.nonzero(M == t)
            x, y = int(xs[0]), int(ys[0])
            for ss in range(s.rank):
                direct = sum(1 for z in range(n)
                             if M[x][z] == r and M[z][y] == ss)
                assert T[r, ss, t] == direct


def test_from_orbitals_matches_cyclic_construction():
    n = 9
    rot = Permutation([(i + 1) % n for i in range(n)])
    neg = Permutation([(-i) % n for i in range(n)])
    G = PermGroup([rot, neg], n)
    s = from_orbitals(G)
    t = canonical_relabel(cyclic_colors(n))
    assert canonical_relabel(s.colors) == t


def test_frobenius_scheme_is_the_orbital_scheme():
    # the complement orbits of the differences name the orbitals of H x| K
    specs = [spec for _, spec in batch_specs()]
    assert len(specs) == 64
    for spec in specs + [FrobeniusSpec((CyclicFactor(521, (3,)),), 520)]:
        direct, orbital = frobenius_scheme(spec), from_orbitals(build_frobenius(spec))
        assert np.array_equal(direct.colors, orbital.colors)
        assert direct.star == orbital.star
        # the kernel's own table is the certificate, mixed radices included
        assert np.array_equal(direct.translations, difference_table(spec.radices))
        assert direct.cyclic == (len(spec.radices) == 1)


def test_wl_closure_is_idempotent_and_refines():
    # closure of the 9-cycle adjacency recovers the full dihedral scheme
    n = 9
    A = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        A[i][(i + 1) % n] = A[(i + 1) % n][i] = 1
    for i in range(n):
        for j in range(n):
            if i != j and A[i][j] == 0:
                A[i][j] = 2
    c = wl_closure(A)
    assert c.rank == 5
    assert canonical_relabel(c.colors) == canonical_relabel(cyclic_colors(n))
    again = wl_closure(c.colors)
    assert partition_equal(again.colors, c.colors)


def test_wl_closure_of_complete_graph():
    n = 6
    A = np.full((n, n), 1, dtype=np.int64)
    np.fill_diagonal(A, 0)
    c = wl_closure(A)
    assert c.rank == 2
    assert c.valencies() == (1, 5)


def test_partition_equal_ignores_label_names():
    M = cyclic_colors(7)
    perm = np.array([0, 3, 1, 2])
    assert partition_equal(M, perm[M])
    # refining one class breaks equality
    M2 = M.copy()
    cells = np.nonzero(M2 == 1)
    M2[cells[0][0], cells[1][0]] = 9
    assert not partition_equal(M, M2)
    assert not partition_equal(M2, M)


def test_partition_equal_with_gapped_labels_in_either_order():
    gapped, dense = np.array([[0, 2], [2, 0]]), np.array([[0, 1], [1, 0]])
    assert partition_equal(gapped, dense) and partition_equal(dense, gapped)
    finer = np.array([[0, 5], [7, 0]])
    assert not partition_equal(finer, dense) and not partition_equal(dense, finer)
    assert partition_equal(finer, np.array([[3, 1], [0, 3]]))


def test_carries_checks_the_bijection_and_every_pair():
    n = 9
    P = cyclic_colors(n)
    shift = (np.arange(n) + 1) % n
    double = (2 * np.arange(n)) % n             # x -> 2x: classes 1 -> 2 -> 4 -> 1
    assert _carries(shift, P, P)
    lut = np.array([0, 2, 4, 3, 1])             # the colour map that doubling induces
    assert _carries(double, P, lut[P]) and not _carries(double, P, P)
    assert not _carries(np.zeros(n, dtype=np.int64), P, P)      # not a bijection
    assert not _carries(shift[:-1], P, P)                       # wrong length
    swap = np.arange(n)
    swap[[1, 2]] = 2, 1
    assert not _carries(swap, P, P)             # a bijection that breaks colours


def test_json_round_trip_preserves_scheme():
    s = Scheme(cyclic_colors(12))
    d = s.to_json_dict()
    assert set(d) == {"n", "rank", "star", "colors"}
    t = Scheme.from_json_dict(d)
    assert t == s
    assert Scheme.from_json_dict(json.loads(json.dumps(d))) == s


def test_fingerprint_canonical_after_relabel():
    M = cyclic_colors(11)
    perm = np.array([0, 2, 1, 4, 3, 5])
    # raw fingerprints are content hashes, so relabeling changes them
    assert Scheme(M).fingerprint() != Scheme(perm[M]).fingerprint()
    a = canonical_relabel(M).fingerprint()
    b = canonical_relabel(perm[M]).fingerprint()
    assert a == b


def test_fingerprint_hashes_the_star_by_rank():
    # one byte per relation up to rank 256, one little-endian int64 above
    import hashlib

    for n, star_bytes in ((256, bytes), (257, lambda st: np.asarray(st, dtype="<i8").tobytes())):
        s = Scheme(zn_table(n))
        # the colours are hashed as int64 whatever dtype holds them
        h = hashlib.blake2b(s.colors.astype(np.int64).tobytes(), digest_size=16)
        h.update(star_bytes(s.star))
        assert s.rank == n and s.fingerprint() == h.hexdigest()


FROZEN_FINGERPRINTS = {           # the digests int64 colours gave
    "Z_256 (uint8, rank 256)": ("992009c76b91acb0049a37f2ce2c88e1",
                                lambda: Scheme(zn_table(256))),
    "Z_257 (uint16)": ("2db4763f39ba6ff78c153dd2824ea49e", lambda: Scheme(zn_table(257))),
    "thin Z_300 (uint16)": ("a82bf2afce9b5e955b0aa787200aabd4", lambda: Scheme(zn_table(300))),
    "Desarguesian q = 16": ("efd05b36171a914ede7802c7ab0f13bf",
                            lambda: spread_scheme(desarguesian_spread(16))),
    "mixed-7-4": ("b9cd0d2f1e55ba2228f0591460bf3f3b",
                  lambda: frobenius_scheme(dict(batch_specs())["mixed-7-4"])),
}


@pytest.mark.parametrize("name", FROZEN_FINGERPRINTS)
def test_fingerprints_at_the_colour_dtype_boundaries_are_frozen(name):
    digest, build = FROZEN_FINGERPRINTS[name]
    assert build().fingerprint() == digest


def test_is_equivalenced():
    s = Scheme(cyclic_colors(9))
    assert s.is_equivalenced() == 2
    t = Scheme(cyclic_colors(12))
    assert not t.is_equivalenced()


def test_compute_tensor_standalone():
    s = Scheme(cyclic_colors(5))
    T = compute_tensor(s)
    assert T.rank == s.rank


# -- the sorted-column kernel against the per-point reference loops ------


def reference_tensor(scheme):
    """compute_tensor as a per-point n x R^2 histogram pass (the reference),
    on the colours widened to int64."""
    P = scheme.colors.astype(np.int64)
    n, R = scheme.n, scheme.rank
    reps = [scheme.representative(t) for t in range(R)]
    claimed = np.zeros((R, R * R), dtype=np.int64)
    for t, (a, b) in enumerate(reps):
        claimed[t] = np.bincount(P[a, :] * R + P[:, b], minlength=R * R)
    offsets = np.arange(n, dtype=np.int64)[None, :] * (R * R)
    for a in range(n):
        codes = P[a, :, None] * R + P
        hist = np.bincount((codes + offsets).ravel(), minlength=n * R * R)
        hist = hist.reshape(n, R * R)
        expect = claimed[P[a]]
        if not np.array_equal(hist, expect):
            b = int(np.nonzero((hist != expect).any(axis=1))[0][0])
            cell = int(np.nonzero(hist[b] != expect[b])[0][0])
            r, s = divmod(cell, R)
            t = int(P[a, b])
            raise NotCoherentError(r, s, t, reps[t], (a, b),
                                   int(expect[b, cell]), int(hist[b, cell]))
    return claimed.reshape(R, R, R).transpose(1, 2, 0)


def reference_wl_closure(colors):
    """wl_closure with one Python dict lookup per pair (the reference)."""
    M = np.asarray(colors, dtype=np.int64)
    n = M.shape[0]
    base = int(M.max()) + 1
    keys = np.eye(n, dtype=np.int64) * (base * base) + M * base + M.T
    _, P = np.unique(keys, return_inverse=True)
    P = P.reshape(n, n).astype(np.int64)
    R = int(P.max()) + 1
    while True:
        sig_ids = {}
        newP = np.empty((n, n), dtype=np.int64)
        for a in range(n):
            V = P[a, :, None] * R + P
            V.sort(axis=0)
            cols = V.T.copy()
            for b in range(n):
                newP[a, b] = sig_ids.setdefault((int(P[a, b]), cols[b].tobytes()),
                                                len(sig_ids))
        if len(sig_ids) == R:
            break
        P, R = newP, len(sig_ids)
    return canonical_relabel(P)


def graph_coloring(n, edges):
    """0 on the diagonal, 1 on the (symmetric) edges, 2 elsewhere."""
    M = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(M, 0)
    for i, j in edges:
        M[i, j] = M[j, i] = 1
    return M


def petersen_coloring():
    verts = [frozenset(p) for p in
             ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2),
              (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))]
    return graph_coloring(10, [(i, j) for i in range(10) for j in range(10)
                               if i != j and not verts[i] & verts[j]])


def cycle_coloring(n):
    return graph_coloring(n, [(i, (i + 1) % n) for i in range(n)])


def dense_tensor(T):
    """The dense (R, R, R) int64 array c[r, s, t] of a tensor, one
    `slice(t)` per t (the test oracle for readers of the counts)."""
    c = np.empty((T.rank,) * 3, dtype=np.int64)
    for t in range(T.rank):
        c[:, :, t] = T.slice(t)
    return c


def kernel_tensor(scheme):
    return dense_tensor(compute_tensor(scheme))


def outcome(fn, scheme):
    """The tensor fn returns, or every field of the error it raises."""
    try:
        c = np.asarray(fn(scheme))
    except NotCoherentError as exc:
        return ("NotCoherentError", exc.r, exc.s, exc.t, exc.pair1, exc.pair2,
                exc.count1, exc.count2)
    return ("tensor", c.shape, c.tobytes())


def kernel_inputs():
    from pfscheme.circulants import CirculantSpec, color_matrix, frobenius_circulant
    from pfscheme.spreads import hall_spread, spread_scheme

    for n in range(12, 61):
        yield "cycle-%d" % n, cycle_coloring(n)
    for spec in (CirculantSpec(105, (104,), (1, 2)), CirculantSpec(91, (16,), (1,))):
        yield "units-%d" % spec.n, color_matrix(frobenius_circulant(spec))
    yield "hall-9", spread_scheme(hall_spread(9)).colors
    yield "petersen", petersen_coloring()


def test_closures_and_tensors_match_the_reference_loops():
    for name, M in kernel_inputs():
        closure = wl_closure(M)
        assert closure == reference_wl_closure(M), name
        assert outcome(kernel_tensor, closure) == outcome(reference_tensor, closure), name


def swap_symmetric_pairs(P, rng):
    """Swap the colours of two pairs of different colours, and of their
    transposes, so the result is still a valid (but rarely coherent) scheme."""
    n = P.shape[0]
    Q = P.copy()
    while True:
        a, b, c, d = (int(x) for x in rng.integers(0, n, size=4))
        if a != b and c != d and {a, b} != {c, d} and Q[a, b] != Q[c, d]:
            break
    Q[a, b], Q[c, d] = Q[c, d], Q[a, b]
    Q[b, a], Q[d, c] = Q[d, c], Q[b, a]
    return Scheme(Q)


def test_not_coherent_witness_matches_the_reference_on_perturbed_closures():
    closures = [wl_closure(cycle_coloring(n)) for n in (12, 17, 24, 30, 45)]
    closures.append(wl_closure(petersen_coloring()))
    failures = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        s = swap_symmetric_pairs(closures[seed % len(closures)].colors, rng)
        got = outcome(kernel_tensor, s)
        assert got == outcome(reference_tensor, s), seed
        failures += got[0] == "NotCoherentError"
    assert failures >= 50


def test_int32_codes_on_the_thin_scheme_of_z190():
    from pfscheme.scheme import _code_dtype

    assert _code_dtype(181) == np.int16 and _code_dtype(182) == np.int32
    n = 190
    idx = np.arange(n)
    thin = (idx[None, :] - idx[:, None]) % n
    s = Scheme(thin)
    assert _code_dtype(s.rank) == np.int32
    c = kernel_tensor(s)                     # c[r, s, t] = 1 iff r + s = t
    assert (c.sum(axis=2) == 1).all()
    assert np.array_equal(c.argmax(axis=2), (idx[:, None] + idx[None, :]) % n)
    assert wl_closure(thin) == reference_wl_closure(thin)
    # a swap touching row 0 fails there, so the reference stops after one row
    Q = thin.copy()
    Q[0, 1], Q[0, 5] = Q[0, 5], Q[0, 1]
    Q[1, 0], Q[5, 0] = Q[5, 0], Q[1, 0]
    bad = Scheme(Q)
    got = outcome(kernel_tensor, bad)
    assert got[0] == "NotCoherentError"
    assert got == outcome(reference_tensor, bad)


# -- the translation certificate ------------------------------------------


def zn_table(n):
    idx = np.arange(n)
    return (idx[None, :] - idx[:, None]) % n


def digit_table(p, k):
    """D[a, b] = b - a in (Z_p)^k on little-endian base-p digits."""
    n = p ** k
    D = np.zeros((n, n), dtype=np.int64)
    for j in range(k):
        digit = np.arange(n) // p ** j % p
        D += (digit[None, :] - digit[:, None]) % p * p ** j
    return D


def spread_schemes():
    from pfscheme.spreads import desarguesian_spread, hall_spread, spread_scheme

    for q in (9, 16):
        for make in (desarguesian_spread, hall_spread):
            yield "%s-%d" % (make.__name__, q), spread_scheme(make(q))


def test_translation_table_recognises_cyclic_and_digit_translations():
    from pfscheme.circulants import CirculantSpec, color_matrix, frobenius_circulant
    from pfscheme.scheme import translation_table

    cyclic = [wl_closure(cycle_coloring(n)) for n in (12, 17, 30)]
    cyclic.append(wl_closure(color_matrix(frobenius_circulant(CirculantSpec(105, (104,), (1, 2))))))
    for s in cyclic:
        assert np.array_equal(s.translations, zn_table(s.n)), s
    for name, s in spread_schemes():
        p, k = {81: (3, 4), 256: (2, 8)}[s.n]
        assert np.array_equal(s.translations, digit_table(p, k)), name
        assert s.translations is s.translations
        assert np.array_equal(translation_table(s.colors), s.translations)
        assert not np.array_equal(s.colors, s.colors[0][zn_table(s.n)]), name


def test_the_row_test_rejects_a_forged_table():
    from pfscheme.scheme import _translates_row_zero
    from pfscheme.spreads import hall_spread, spread_scheme

    Q = swapped_thin_scheme()
    assert not _translates_row_zero(Q, zn_table(len(Q)))
    hall = spread_scheme(hall_spread(9))
    assert not _translates_row_zero(hall.colors, zn_table(hall.n))
    assert _translates_row_zero(hall.colors, hall.translations)


def test_a_built_scheme_keeps_its_table_only_after_the_row_test(monkeypatch):
    import pfscheme.scheme as scheme_mod

    spec = dict(batch_specs())["mixed-7-4"]
    tested = []
    monkeypatch.setattr(scheme_mod, "_translates_row_zero",
                        lambda P, D: tested.append(D.shape) or False)
    s = frobenius_scheme(spec)
    assert s.translations is None and tested[0] == (112, 112)


def test_mixed_kernel_certificate_equals_the_exact_path(monkeypatch):
    import pfscheme.scheme as scheme_mod
    from pfscheme.parabolic import enumerate_parabolics
    from pfscheme.tcond import check_t_condition

    specs = dict(batch_specs())
    for name, ts in (("mixed-7-4", (3, 4)), ("double-3-5-2", (3,))):
        s = frobenius_scheme(specs[name])
        assert s.translations is not None and not s.cyclic, name
        assert Scheme(s.colors).translations is None, name    # as loaded from a file

        def results(scheme):
            return (scheme.tensor().ref.tobytes(), enumerate_parabolics(scheme),
                    [check_t_condition(scheme, t) for t in ts])

        certified = results(s)
        with monkeypatch.context() as m:
            m.setattr(scheme_mod, "translation_table", lambda P: None)
            exact = Scheme(s.colors)
            assert exact.translations is None
            assert results(exact) == certified, name


def test_translation_table_is_none_without_a_certificate():
    from pfscheme.spreads import desarguesian_spread, spread_scheme

    assert Scheme(petersen_coloring()).translations is None
    P = spread_scheme(desarguesian_spread(9)).colors.copy()
    a, b, c, d = 1, 5, 2, 40           # two symmetric pairs off row 0
    assert P[a, b] != P[c, d]
    P[a, b], P[c, d] = P[c, d], P[a, b]
    P[b, a], P[d, c] = P[d, c], P[b, a]
    assert Scheme(P).translations is None


def test_translation_table_compares_every_row_block():
    from pfscheme.scheme import _BLOCK, translation_table

    n = 600                              # rows in blocks of _BLOCK // n
    assert 2 < n // (_BLOCK // n) < n
    Q = zn_table(n)
    assert np.array_equal(translation_table(Q), Q)
    Q[n - 2, n - 1], Q[n - 1, n - 2] = Q[n - 1, n - 2], Q[n - 2, n - 1]
    assert translation_table(Q) is None


def swapped_thin_scheme(n=12):
    """The thin scheme of Z_n with two symmetric pairs swapped off row 0.

    Every colour occurs once in row 0, so row 0 alone agrees with its own
    references; the full pass must find the swap."""
    Q = zn_table(n)
    Q[1, 3], Q[2, 7] = Q[2, 7], Q[1, 3]
    Q[3, 1], Q[7, 2] = Q[7, 2], Q[3, 1]
    return Q


def test_kernels_take_the_full_path_without_a_certificate(monkeypatch):
    import pfscheme.scheme as scheme_mod

    seen = []
    blocks_of = scheme_mod._signature_blocks

    def spy(P, R, rows):
        seen.append((list(rows), len(P)))
        return blocks_of(P, R, rows)

    monkeypatch.setattr(scheme_mod, "_signature_blocks", spy)
    Q = swapped_thin_scheme()
    assert Scheme(Q).translations is None
    got = outcome(kernel_tensor, Scheme(Q))
    assert got[0] == "NotCoherentError" and got[5][0] > 0
    assert got == outcome(reference_tensor, Scheme(Q))
    assert wl_closure(petersen_coloring()) == reference_wl_closure(petersen_coloring())
    assert seen and all(rows == list(range(n)) for rows, n in seen)
    seen.clear()
    wl_closure(cycle_coloring(12)).tensor()
    assert seen and all(rows == [0] for rows, _ in seen)


def test_signature_blocks_of_every_width_match_the_reference_loops(monkeypatch):
    import pfscheme.scheme as scheme_mod

    rng = np.random.default_rng(5)
    perm = rng.permutation(15)
    permuted_thin = zn_table(15)[np.ix_(perm, perm)]      # thin Z_15, points shuffled
    cycle = cycle_coloring(13)
    tensors = [Scheme(swapped_thin_scheme()), wl_closure(cycle), wl_closure(petersen_coloring()),
               Scheme(permuted_thin)]
    closures = [cycle, petersen_coloring(), permuted_thin]
    assert Scheme(permuted_thin).translations is None and Scheme(cycle).translations is not None
    expected = ([outcome(reference_tensor, s) for s in tensors]
                + [reference_wl_closure(M) for M in closures])
    assert expected[0][0] == "NotCoherentError"
    for width in (1, 2, 3, 4, 7):       # columns per block; 7 divides none of n = 10, 12, 13, 15
        got = []
        for s in tensors:
            monkeypatch.setattr(scheme_mod, "_BLOCK", width * s.n + s.n - 1)
            got.append(outcome(kernel_tensor, Scheme(s.colors)))
        for M in closures:
            monkeypatch.setattr(scheme_mod, "_BLOCK", width * len(M) + len(M) - 1)
            got.append(wl_closure(M))
        assert got == expected, width


def test_wl_closure_rejects_colours_its_keys_cannot_hold():
    directed = np.array([[0, 1, 2], [2, 0, 1], [1, 2, 0]])     # the directed 3-cycle
    shifted = 2 - directed                  # -directed, coloured 0/-1/-2, shifted by 2
    assert wl_closure(shifted) == wl_closure(directed) == reference_wl_closure(shifted)
    assert wl_closure(shifted).rank == 3
    for M in (-directed, np.array([[0, 1 << 31, 1 << 32]] * 3, dtype=np.int64)):
        with pytest.raises(SchemeError, match="must lie in"):
            wl_closure(M)
    top = np.where(directed == 2, (1 << 31) - 1, directed)   # the largest colour allowed
    assert wl_closure(top) == wl_closure(directed) == reference_wl_closure(top)


def test_certified_presplit_keeps_the_diagonal_apart():
    # the diagonal colour recurs off the diagonal, so only the diagonal
    # marker of the pre-split keys tells the two apart
    from pfscheme.scheme import translation_table

    adjacency = (zn_table(12) == 1) | (zn_table(12) == 11)
    for M in (np.zeros((7, 7), dtype=np.int64), adjacency.astype(np.int64)):
        assert translation_table(M) is not None
        assert wl_closure(M) == reference_wl_closure(M)


def random_circulant_schemes():
    """Schemes of symmetric Z_n-invariant colourings, mostly not coherent."""
    rng = np.random.default_rng(7)
    for n in (9, 14, 21, 32):
        for k in (2, 3, 4):
            half = rng.integers(1, k + 1, size=n // 2 + 1)
            col = np.array([0] + [half[min(d, n - d)] for d in range(1, n)])
            yield "random-%d-%d" % (n, k), canonical_relabel(col[zn_table(n)])


def certified_inputs():
    """(name, initial colouring, scheme) triples whose schemes carry a
    translation certificate; some schemes are not coherent."""
    for name, M in kernel_inputs():
        if name != "petersen":
            yield name, M, wl_closure(M)
    for name, s in spread_schemes():
        yield name, s.colors, s
    for n in (6, 9, 16):
        yield "cycle-graph-%d" % n, cycle_coloring(n), Scheme(cycle_coloring(n))
    for name, s in random_circulant_schemes():
        yield name, s.colors, s


def test_certified_row_zero_equals_the_full_path(monkeypatch):
    import pfscheme.scheme as scheme_mod

    inputs = list(certified_inputs())
    assert all(s.translations is not None for _, _, s in inputs)

    def results():
        return [(name, wl_closure(M), outcome(kernel_tensor, Scheme(s.colors)))
                for name, M, s in inputs]

    reduced = results()
    assert sum(r[2][0] == "NotCoherentError" for r in reduced) >= 8
    with monkeypatch.context() as m:
        m.setattr(scheme_mod, "translation_table", lambda P: None)
        full = results()
    assert reduced == full


def reference_verify_triangle(T):
    """verify_triangle on four R^3 temporaries (the reference)."""
    nv = np.asarray(T.valencies, dtype=np.int64)
    st = np.asarray(T.star)
    D = dense_tensor(T)[:, :, st]
    a = nv[None, None, :] * D
    b = nv[:, None, None] * D.transpose(2, 0, 1)
    cc = nv[None, :, None] * D.transpose(1, 2, 0)
    if not (np.array_equal(a, b) and np.array_equal(a, cc)):
        bad = np.argwhere((a != b) | (a != cc))[0]
        raise SchemeError("triangle identity fails at (r,s,t)=%s" % (tuple(int(x) for x in bad),))


def test_verify_triangle_matches_the_reference_on_perturbed_tensors():
    assert_verify_triangle_matches_the_reference()


@pytest.mark.parametrize("block", [1, 3, 7])
def test_verify_triangle_in_blocks_matches_the_reference(monkeypatch, block):
    # every slice of the weights, the phi keys and the sorted comparison
    # is one block of this many codes
    import pfscheme.scheme as scheme_mod

    monkeypatch.setattr(scheme_mod, "_BLOCK", block)
    assert_verify_triangle_matches_the_reference()


def assert_verify_triangle_matches_the_reference():
    """verify_triangle and the dense reference agree on 60 perturbed
    tensors, at least 50 of which fail."""
    def error(check, T):
        try:
            check(T)
        except SchemeError as exc:
            return str(exc)
        return None

    rng = np.random.default_rng(3)
    failures = 0
    for M in (cycle_coloring(13), petersen_coloring(), zn_table(8)):
        T = compute_tensor(wl_closure(M))
        for _ in range(20):
            ref = T.ref.copy()
            t, g = rng.integers(0, T.rank), rng.integers(0, T.n)
            ref[t, g] = rng.integers(0, T.rank * T.rank)
            ref[t].sort()
            bad = IntersectionTensor(ref, T.valencies, T.star, T.n)
            expected = error(reference_verify_triangle, bad)
            assert error(type(bad).verify_triangle, bad) == expected
            failures += expected is not None
    assert failures >= 50


# -- the stored reference codes -------------------------------------------


def test_reference_codes_give_the_counts_of_the_dense_tensor():
    from pfscheme.parabolic import indistinguishing_number
    from pfscheme.spreads import hall_spread, spread_scheme

    schemes = [wl_closure(petersen_coloring()), spread_scheme(hall_spread(9))]
    schemes += [wl_closure(cycle_coloring(n)) for n in (12, 17, 30)]
    schemes.append(Scheme(zn_table(9)))            # thin: s* != s
    assert any(s.star != tuple(range(s.rank)) for s in schemes)
    for s in schemes:
        T = s.tensor()
        R = T.rank
        assert T.ref.shape == (R, s.n) and not T.ref.flags.writeable
        assert np.array_equal(np.sort(T.ref, axis=1), T.ref)
        c = reference_tensor(s)
        for t in range(R):
            assert np.array_equal(T.slice(t), c[:, :, t])
        assert [T[r, x, t] for r in range(R) for x in range(R) for t in range(R)] == c.ravel().tolist()
        st = np.asarray(s.star)
        assert T.valencies == tuple(c[np.arange(R), st, 0].tolist()) == s.valencies()
        totals = c[np.arange(R), st, :].sum(axis=0)       # sum_s c[s][s*][t]
        assert indistinguishing_number(s) == totals[1:].max()


def test_compute_tensor_peak_memory_on_the_c243_closure():
    import tracemalloc

    s = wl_closure(cycle_coloring(243))
    assert s.rank == 122 and s.translations is not None
    tracemalloc.start()
    try:
        compute_tensor(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6           # the dense int64 tensor alone is 14.5 MB
