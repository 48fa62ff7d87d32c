"""Spread constructions and circulant generators."""

import numpy as np
import pytest

from pfscheme.catalog import scalar_spec
from pfscheme.circulants import (
    CirculantSpec,
    certificate_unit_groups,
    circulant_from_connection,
    color_matrix,
    fixed_point_free,
    frobenius_circulant,
    preserving_units,
    unit_closure,
)
from pfscheme.frobenius import build_frobenius
from pfscheme.scheme import SchemeError, canonical_relabel, from_orbitals
from pfscheme.spreads import (
    Spread,
    desarguesian_spread,
    hall_spread,
    spread_scheme,
    verify_spread,
)
import corpus
from oracles import dense_tensor, pairwise_spread_scheme, reference_closed, reference_spread_colors


# -- spreads ----------------------------------------------------------------


def test_desarguesian_spread_axioms():
    for q in (3, 4, 5, 9):
        sp = desarguesian_spread(q)
        verify_spread(sp)
        assert len(sp.components) == q + 1
        assert sp.n == q * q
        # components partition the nonzero vectors
        comp = sp.component_of()
        assert (comp[1:] >= 0).all()
        assert comp[0] == -1


def test_hall_differs_from_desarguesian_in_a_norm_class():
    desarg = desarguesian_spread(9)
    hall = hall_spread(9)
    verify_spread(hall)
    d = set(desarg.components)
    h = set(hall.components)
    # sqrt(q) + 1 = 4 lines are replaced
    assert len(d - h) == 4
    assert len(h - d) == 4
    assert len(d & h) == 6


def test_hall_rejects_an_order_that_is_not_a_square():
    for q in (3, 8, 27):
        with pytest.raises(ValueError, match="derived spreads need q to be a square"):
            hall_spread(q)


SPREADS = {"desarguesian%d" % q: (desarguesian_spread, q) for q in (3, 4, 5, 7, 8, 9, 16, 25)}
SPREADS.update({"hall%d" % q: (hall_spread, q) for q in (9, 16, 25)})


@pytest.mark.parametrize("name", SPREADS)
def test_spread_scheme_matches_the_scalar_field_construction(name):
    make, q = SPREADS[name]
    spread = make(q)
    assert reference_closed(spread)
    built, pairwise = spread_scheme(spread), pairwise_spread_scheme(spread)
    assert np.array_equal(built.colors, reference_spread_colors(spread))
    # the row-0 build numbers and certifies as the n^2 build and the search do
    assert built == pairwise
    assert np.array_equal(built.translations, pairwise.translations)


def test_verify_spread_catches_corruption():
    sp = desarguesian_spread(3)
    comps = list(sp.components)
    # swap one nonzero vector between two components
    a = list(comps[0])
    b = list(comps[1])
    a[1], b[1] = b[1], a[1]
    comps[0], comps[1] = tuple(sorted(a)), tuple(sorted(b))
    broken = Spread(q=sp.q, p=sp.p, e=sp.e, components=tuple(comps))
    assert not reference_closed(broken)
    with pytest.raises(SchemeError, match="not closed under addition"):
        verify_spread(broken)


def test_spread_scheme_shape():
    for q in (3, 4, 5):
        s = spread_scheme(desarguesian_spread(q))
        assert s.n == q * q
        assert s.rank == q + 2
        assert s.valencies() == tuple([1] + [q - 1] * (q + 1))
        s.tensor()


def test_desarguesian_scheme_is_the_scalar_orbital_scheme():
    for q in (3, 4, 5):
        via_spread = spread_scheme(desarguesian_spread(q))
        via_group = from_orbitals(build_frobenius(scalar_spec(q)))
        assert canonical_relabel(via_spread.colors) == canonical_relabel(via_group.colors)


def test_spread_schemes_all_share_the_desarguesian_tensor():
    desarg, hall = corpus.scheme("desarguesian9"), corpus.scheme("hall9")
    assert np.array_equal(dense_tensor(desarg.tensor()), dense_tensor(hall.tensor()))
    assert desarg.fingerprint() != hall.fingerprint()


# -- circulants ---------------------------------------------------------------


def test_unit_closure_and_fpf():
    assert unit_closure(9, [8]) == frozenset({1, 8})
    assert unit_closure(65, [57]) == frozenset({1, 57, 64, 8})
    assert fixed_point_free(9, {1, 8}) is None
    # 4 fixes 21 modulo 63 (gcd(3, 63) > 1)
    assert fixed_point_free(63, {1, 4, 16}) == 4


def test_frobenius_circulant_connection_is_orbit_union():
    spec = CirculantSpec(9, (8,), (1,))
    circ = frobenius_circulant(spec)
    assert circ.connection == frozenset({1, 8})
    assert circ.symmetric
    spec2 = CirculantSpec(63, (62,), (1, 2))
    circ2 = frobenius_circulant(spec2)
    assert circ2.connection == frozenset({1, 62, 2, 61})


def test_frobenius_circulant_rejects_fixed_points():
    with pytest.raises(ValueError) as info:
        frobenius_circulant(CirculantSpec(63, (4,), (1,)))
    assert "fixes nonzero residue 21" in str(info.value)
    with pytest.raises(ValueError):
        frobenius_circulant(CirculantSpec(9, (1,), (1,)))


def test_circulant_from_connection_normalizes():
    circ = circulant_from_connection(63, [1, -1])
    assert circ.connection == frozenset({1, 62})
    with pytest.raises(ValueError):
        circulant_from_connection(9, [0, 1])


def test_color_matrix_is_cayley():
    circ = circulant_from_connection(7, [1, 6])
    M = color_matrix(circ)
    assert M.shape == (7, 7)
    for i in range(7):
        for j in range(7):
            assert M[i][j] == (1 if (j - i) % 7 in {1, 6} else 0)


def test_preserving_units_of_cycle():
    circ = circulant_from_connection(9, [1, 8])
    assert preserving_units(circ) == frozenset({1, 8})
    groups = certificate_unit_groups(circ)
    assert groups
    assert groups[0] == frozenset({1, 8})


def test_certificate_groups_exclude_fixed_point_units():
    # connection {3, 60} mod 63 is preserved by units fixing residues,
    # e.g. 22 (22 * 3 = 66 = 3); such units cannot enter a certificate
    circ = circulant_from_connection(63, [3, 60])
    U = preserving_units(circ)
    assert 22 in U
    for K in certificate_unit_groups(circ):
        assert fixed_point_free(63, K) is None
        assert len(K) >= 2
        for u in K:
            assert all(u * c % 63 in circ.connection for c in circ.connection)
