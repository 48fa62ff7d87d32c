"""Scheme axioms, intersection tensors, WL closure, and serialization."""

import json
from math import isqrt

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
    _translates_row_zero,
    canonical_relabel,
    partition_equal,
    from_orbitals,
    frobenius_scheme,
    wl_closure,
    compute_tensor,
)
import corpus
from corpus import (
    complete_colors,
    cycle_coloring,
    cyclic_colors,
    permuted,
    petersen_coloring,
    swap_pairs,
    swap_symmetric_pairs,
    swapped_thin_scheme,
    zn_table,
)
from oracles import (
    kernel_tensor,
    reference_digit_table,
    reference_tensor,
    reference_translation_table,
    reference_verify_triangle,
    reference_wl_closure,
)


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
    s = corpus.scheme("petersen")
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
        # the kernel's own radices are the certificate, mixed ones included
        assert direct.radices == spec.radices
        assert _translates_row_zero(direct.colors, difference_table(direct.radices))
        assert direct.cyclic == (len(spec.radices) == 1)


def test_wl_closure_is_idempotent_and_refines():
    # closure of the 9-cycle adjacency recovers the full dihedral scheme
    c = wl_closure(cycle_coloring(9))
    assert c.rank == 5
    assert canonical_relabel(c.colors) == canonical_relabel(cyclic_colors(9))
    again = wl_closure(c.colors)
    assert partition_equal(again.colors, c.colors)


def test_wl_closure_of_complete_graph():
    c = wl_closure(complete_colors(6))
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
        s = corpus.scheme("thin%d" % n)
        # the colours are hashed as int64 whatever dtype holds them
        h = hashlib.blake2b(s.colors.astype(np.int64).tobytes(), digest_size=16)
        h.update(star_bytes(s.star))
        assert s.rank == n and s.fingerprint() == h.hexdigest()


FROZEN_FINGERPRINTS = {           # the digests int64 colours gave, by corpus name
    "Z_256 (uint8, rank 256)": ("992009c76b91acb0049a37f2ce2c88e1", "thin256"),
    "Z_257 (uint16)": ("2db4763f39ba6ff78c153dd2824ea49e", "thin257"),
    "thin Z_300 (uint16)": ("a82bf2afce9b5e955b0aa787200aabd4", "thin300"),
    "Desarguesian q = 16": ("efd05b36171a914ede7802c7ab0f13bf", "desarguesian16"),
    "mixed-7-4": ("b9cd0d2f1e55ba2228f0591460bf3f3b", "mixed-7-4"),
}


@pytest.mark.parametrize("name", FROZEN_FINGERPRINTS)
def test_fingerprints_at_the_colour_dtype_boundaries_are_frozen(name):
    digest, scheme_name = FROZEN_FINGERPRINTS[name]
    assert corpus.scheme(scheme_name).fingerprint() == digest


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


def outcome(fn, scheme):
    """The tensor fn returns, or every field of the error it raises."""
    try:
        c = np.asarray(fn(scheme))
    except NotCoherentError as exc:
        return ("NotCoherentError", exc.r, exc.s, exc.t, exc.pair1, exc.pair2,
                exc.count1, exc.count2)
    return ("tensor", c.shape, c.tobytes())


def kernel_inputs():
    from pfscheme.circulants import color_matrix

    for n in range(12, 61):
        yield "cycle-%d" % n, cycle_coloring(n)
    for name in corpus.names("units", max_n=105):
        yield name, color_matrix(corpus.CIRCULANTS[name])
    yield "hall-9", corpus.scheme("hall9").colors
    yield "petersen", petersen_coloring()


def test_closures_and_tensors_match_the_reference_loops():
    for name, M in kernel_inputs():
        closure = wl_closure(M)
        assert closure == reference_wl_closure(M), name
        assert outcome(kernel_tensor, closure) == outcome(reference_tensor, closure), name


def test_not_coherent_witness_matches_the_reference_on_perturbed_closures():
    closures = [corpus.scheme(name) for name in
                ("cycle12", "cycle17", "cycle24", "cycle30", "cycle45", "petersen")]
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


def test_translation_table_recognises_cyclic_and_digit_translations():
    from pfscheme.scheme import translation_radices

    for name in ("cycle12", "cycle17", "cycle30", "units-105"):
        s = corpus.scheme(name)
        assert s.radices == (s.n,), name
        assert np.array_equal(difference_table(s.radices), zn_table(s.n)), name
        assert _translates_row_zero(s.colors, difference_table(s.radices)), name
    for name in corpus.names("spread"):
        s = corpus.scheme(name)
        p, k = {9: (3, 2), 81: (3, 4), 256: (2, 8)}[s.n]
        assert s.radices == (p,) * k, name
        assert np.array_equal(difference_table(s.radices), reference_digit_table(p, k)), name
        assert _translates_row_zero(s.colors, difference_table(s.radices)), name
        loaded = Scheme(s.colors)
        assert loaded.radices is loaded.radices
        assert translation_radices(s.colors) == s.radices
        assert not np.array_equal(s.colors, s.colors[0][zn_table(s.n)]), name


def test_the_row_test_rejects_a_forged_table():
    Q = swapped_thin_scheme()
    assert not _translates_row_zero(Q, zn_table(len(Q)))
    hall = corpus.scheme("hall9")
    assert not _translates_row_zero(hall.colors, zn_table(hall.n))
    assert _translates_row_zero(hall.colors, difference_table(hall.radices))


def test_every_built_scheme_carries_a_table_that_passes_the_row_test():
    # translation_scheme keeps its radices without the row test, which
    # D[0] = arange(n) makes certain to pass on their difference table D:
    # so it holds for every builder output of the corpus, the catalog's
    # frobenius_scheme, the spreads and the WL closures of the circulants.
    # The radices are the kernel's, and colors is the one 2-D array kept
    from pfscheme.arith import prime_power

    specs, spreads = dict(batch_specs()), corpus.names("spread")
    names = corpus.names("catalog", max_n=200) + spreads + corpus.names("cycle", "units")
    assert len(names) > 100
    for name in names:
        s = corpus.build(name)
        assert "radices" in vars(s), name               # set by the builder
        if name in specs:
            expected = specs[name].radices
        elif name in spreads:
            p, e = prime_power(isqrt(s.n))
            expected = (p,) * (2 * e)
        else:
            expected = (s.n,)
        assert s.radices == expected, name
        assert [k for k, v in vars(s).items()
                if isinstance(v, np.ndarray) and v.ndim == 2] == ["colors"], name
        D = difference_table(s.radices)
        assert np.array_equal(D[0], np.arange(s.n)), name
        assert _translates_row_zero(s.colors, D), name


def test_cyclic_is_the_probe_of_the_z_n_table():
    # Z_n is the one difference table with D[-1, 0] = 1 (from n = 2 on,
    # as in the whole corpus): the certificate a builder keeps, and the one
    # found for the colours alone, as loaded from a file (up to n = 300,
    # as the reference row-tests int64 tables)
    for name in corpus.names():
        s = corpus.scheme(name)
        kept = None if s.radices is None else difference_table(s.radices)
        assert s.cyclic == (kept is not None and kept[-1, 0] == 1), name
        if s.n <= 300:
            loaded, found = Scheme(s.colors), reference_translation_table(s.colors)
            assert loaded.cyclic == (found is not None and found[-1, 0] == 1), name
            assert (loaded.radices is None) == (found is None), name
            if found is not None:
                assert np.array_equal(difference_table(loaded.radices), found), name


def test_mixed_kernel_certificate_equals_the_exact_path(monkeypatch):
    import pfscheme.scheme as scheme_mod
    from pfscheme.parabolic import enumerate_parabolics
    from pfscheme.tcond import check_t_condition

    for name, ts in (("mixed-7-4", (3, 4)), ("double-3-5-2", (3,))):
        s = corpus.scheme(name)
        assert s.radices is not None and not s.cyclic, name
        assert Scheme(s.colors).radices is None, name         # as loaded from a file

        def results(scheme):
            return (scheme.tensor().ref.tobytes(), enumerate_parabolics(scheme),
                    [check_t_condition(scheme, t) for t in ts])

        certified = results(s)
        with monkeypatch.context() as m:
            m.setattr(scheme_mod, "translation_radices", lambda P: None)
            exact = Scheme(s.colors)
            assert exact.radices is None
            assert results(exact) == certified, name


def test_translation_table_is_none_without_a_certificate():
    assert corpus.scheme("petersen").radices is None
    P = corpus.scheme("desarguesian9").colors
    a, b, c, d = 1, 5, 2, 40           # two symmetric pairs off row 0
    assert P[a, b] != P[c, d]
    assert Scheme(swap_pairs(P, (a, b), (c, d))).radices is None


def test_translation_table_compares_every_row_block():
    from pfscheme.scheme import _BLOCK, translation_radices

    n = 600                              # rows in blocks of _BLOCK // n
    assert 2 < n // (_BLOCK // n) < n
    Q = zn_table(n)
    assert translation_radices(Q) == (n,)
    Q[n - 2, n - 1], Q[n - 1, n - 2] = Q[n - 1, n - 2], Q[n - 2, n - 1]
    assert translation_radices(Q) is None


def test_kernels_take_the_full_path_without_a_certificate(monkeypatch):
    import pfscheme.scheme as scheme_mod

    seen = []
    blocks_of = scheme_mod._signature_blocks

    def spy(P, R, rows):
        seen.append((list(rows), len(P)))
        return blocks_of(P, R, rows)

    monkeypatch.setattr(scheme_mod, "_signature_blocks", spy)
    Q = swapped_thin_scheme()
    assert Scheme(Q).radices is None
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

    permuted_thin = permuted(Scheme(zn_table(15)), seed=5).colors     # thin Z_15, shuffled
    cycle = cycle_coloring(13)
    tensors = [Scheme(swapped_thin_scheme()), wl_closure(cycle), wl_closure(petersen_coloring()),
               Scheme(permuted_thin)]
    closures = [cycle, petersen_coloring(), permuted_thin]
    assert Scheme(permuted_thin).radices is None and Scheme(cycle).radices is not None
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
    from pfscheme.scheme import translation_radices

    adjacency = (zn_table(12) == 1) | (zn_table(12) == 11)
    for M in (np.zeros((7, 7), dtype=np.int64), adjacency.astype(np.int64)):
        assert translation_radices(M) is not None
        assert wl_closure(M) == reference_wl_closure(M)


def certified_inputs():
    """(name, initial colouring, scheme) triples whose schemes carry a
    translation certificate; some schemes are not coherent."""
    for name, M in kernel_inputs():
        if name != "petersen":
            yield name, M, wl_closure(M)
    for name in (corpus.names("spread", "random")
                 + ["cycle-graph-%d" % n for n in (6, 9, 16)]):
        s = corpus.scheme(name)
        yield name, s.colors, s


def test_certified_row_zero_equals_the_full_path(monkeypatch):
    import pfscheme.scheme as scheme_mod

    inputs = list(certified_inputs())
    assert all(s.radices is not None for _, _, s in inputs)

    def results():
        return [(name, wl_closure(M), outcome(kernel_tensor, Scheme(s.colors)))
                for name, M, s in inputs]

    reduced = results()
    assert sum(r[2][0] == "NotCoherentError" for r in reduced) >= 8
    with monkeypatch.context() as m:
        # no candidate passes, for Scheme.radices and wl_closure alike
        m.setattr(scheme_mod, "_certified_tables", lambda P: iter(()))
        full = results()
    assert reduced == full


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

    # thin9: s* != s
    schemes = [corpus.scheme(name) for name in
               ("petersen", "hall9", "cycle12", "cycle17", "cycle30", "thin9")]
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

    s = corpus.scheme("cycle243")
    assert s.rank == 122 and s.radices is not None
    tracemalloc.start()
    try:
        compute_tensor(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5e6           # the dense int64 tensor alone is 14.5 MB
