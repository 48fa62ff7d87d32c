"""Permutations, Schreier-Sims order, and orbitals on small groups."""

import itertools

import numpy as np
import pytest

from pfscheme.catalog import batch_specs
from pfscheme.frobenius import build_frobenius
from pfscheme.perms import Permutation, PermGroup
from pfscheme.scheme import partition_equal


def reference_orbitals(G: PermGroup) -> list[int]:
    """Orbital labels of all n^2 pairs by BFS over every generator."""
    n = G.degree
    labels = [-1] * (n * n)
    gens = [g.images for g in G.generators]
    cls = 0
    for start in range(n * n):
        if labels[start] != -1:
            continue
        labels[start] = cls
        frontier = [start]
        while frontier:
            nxt = []
            for code in frontier:
                a, b = divmod(code, n)
                for img in gens:
                    c = img[a] * n + img[b]
                    if labels[c] == -1:
                        labels[c] = cls
                        nxt.append(c)
            frontier = nxt
        cls += 1
    return labels


def assert_orbitals_match_reference(G: PermGroup):
    n = G.degree
    labels = G.orbitals()
    assert labels.dtype == np.int64 and labels.shape == (n * n,)
    # numbered 0..R-1 without gaps
    assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))
    ref = np.asarray(reference_orbitals(G))
    assert partition_equal(labels, ref) and partition_equal(ref, labels)


def _cyclic(n):
    return Permutation([(i + 1) % n for i in range(n)])


def _reflection(n):
    return Permutation([(-i) % n for i in range(n)])


SMALL_GROUPS = {
    "cyclic-7": ([_cyclic(7)], 7),
    "cyclic-12": ([_cyclic(12)], 12),
    "agl-1-5": ([_cyclic(5), Permutation([(2 * x) % 5 for x in range(5)])], 5),
    "trivial-1": ([], 1),
    **{"dihedral-%d" % n: ([_cyclic(n), _reflection(n)], n) for n in (3, 4, 5, 6, 9)},
    **{"symmetric-%d" % n: ([_cyclic(n), Permutation([1, 0] + list(range(2, n)))], n)
       for n in range(2, 8)},
}


@pytest.mark.parametrize("name", sorted(SMALL_GROUPS))
def test_orbitals_match_the_reference_bfs_on_small_groups(name):
    gens, n = SMALL_GROUPS[name]
    assert_orbitals_match_reference(PermGroup(gens, n))


def test_orbitals_match_the_reference_bfs_on_catalog_groups():
    checked = 0
    for _, spec in batch_specs():
        if spec.kernel_order <= 200:
            assert_orbitals_match_reference(build_frobenius(spec))
            checked += 1
    assert checked >= 40


def test_orbitals_reject_an_intransitive_group():
    G = PermGroup([Permutation([1, 2, 0, 4, 5, 3])], 6)
    with pytest.raises(ValueError, match="transitive"):
        G.orbitals()
    with pytest.raises(ValueError, match="transitive"):
        PermGroup([], 2).orbitals()


def test_permutation_compose_inverse():
    a = Permutation([1, 2, 0])
    b = Permutation([0, 2, 1])
    assert not a.is_identity() and (a * a * a).is_identity()     # a * a inverts a
    # composition acts left-to-right on points: (a*b)(x) == b(a(x))
    ab = a * b
    for x in range(3):
        assert ab(x) == b(a(x))


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 1, 3])


def test_permutation_cycles_and_fixed_points():
    c = Permutation([1, 2, 3, 4, 0])
    assert sorted(map(len, c.cycles())) == [5]
    t = Permutation([1, 0, 2])
    assert (t * t).is_identity()
    assert t.cycles() == [(0, 1)] and t.cycle_string() == "(0 1)"


def test_group_order_symmetric_and_cyclic():
    # S_n from a transposition and an n-cycle
    for n in range(2, 8):
        cyc = Permutation([(i + 1) % n for i in range(n)])
        swap = Permutation([1, 0] + list(range(2, n)))
        G = PermGroup([cyc, swap], n)
        expected = 1
        for i in range(2, n + 1):
            expected *= i
        assert G.order() == expected
    # C_12
    cyc = Permutation([(i + 1) % 12 for i in range(12)])
    assert PermGroup([cyc], 12).order() == 12


def test_group_order_dihedral():
    for n in (3, 4, 5, 6, 9):
        rot = Permutation([(i + 1) % n for i in range(n)])
        ref = Permutation([(-i) % n for i in range(n)])
        G = PermGroup([rot, ref], n)
        assert G.order() == 2 * n


def test_orbitals_of_regular_cyclic_group():
    n = 7
    g = Permutation([(i + 1) % n for i in range(n)])
    G = PermGroup([g], n)
    labels = G.orbitals()
    # regular action: orbitals are the difference classes, n of them
    assert len(set(labels)) == n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert labels[((i + k) % n) * n + ((j + k) % n)] == labels[i * n + j]


def test_orbitals_count_matches_rank_of_frobenius_group():
    # AGL(1,5) on 5 points: x -> ax+b, 2-transitive, orbital rank 2
    pts = list(range(5))
    add = Permutation([(x + 1) % 5 for x in pts])
    mul = Permutation([(2 * x) % 5 for x in pts])
    G = PermGroup([add, mul], 5)
    assert G.order() == 20
    assert len(set(G.orbitals())) == 2


def test_membership_agrees_with_brute_force_closure():
    n = 6
    rot = Permutation([(i + 1) % n for i in range(n)])
    ref = Permutation([(-i) % n for i in range(n)])
    G = PermGroup([rot, ref], n)
    # brute-force closure of the dihedral generators
    frontier = {rot.images, ref.images}
    closure = set(frontier)
    while frontier:
        nxt = set()
        for a in frontier:
            for b in (rot, ref):
                c = (Permutation(a) * b).images
                if c not in closure:
                    closure.add(c)
                    nxt.add(c)
        frontier = nxt
    assert len(closure) == 12 == G.order()
    # p lies in G exactly when adding it to the generators keeps the order
    inside = {p for p in itertools.permutations(range(n))
              if PermGroup([rot, ref, Permutation(p)], n).order() == 12}
    assert inside == closure
