"""Frobenius specs: validation, indexing, lattices, sections, classification."""

import json

import numpy as np
import pytest

from pfscheme import cli, frobenius
from pfscheme.arith import digit_add, digit_strides
from pfscheme.catalog import (
    batch_specs,
    negation_spec,
    cyclic_unit_spec,
    field_cube_spec,
    double_prime_spec,
    mixed_spec,
    scalar_spec,
)
from pfscheme.frobenius import (
    CyclicFactor,
    ElementaryAbelianFactor,
    FrobeniusError,
    FrobeniusSpec,
    build_frobenius,
    invariant_chain,
    invariant_lattice,
    principal_sections,
    thm2_profile,
)
from pfscheme.parabolic import separability_verdict
from pfscheme.perms import PermGroup, Permutation
from pfscheme.scheme import from_orbitals
import corpus
from oracles import (
    _lattice_route,
    _least_cover_chain,
    reference_principal_subgroup_list,
    reference_principal_subgroups,
)


def test_cyclic_factor_rejects_non_units():
    with pytest.raises(FrobeniusError):
        CyclicFactor(9, (3,))
    with pytest.raises(FrobeniusError):
        CyclicFactor(1, (1,))
    assert CyclicFactor(9, (8,)).size == 9


def test_elementary_abelian_factor_validation():
    with pytest.raises(FrobeniusError):
        ElementaryAbelianFactor(4, 2, (((1, 0), (0, 1)),))
    with pytest.raises(FrobeniusError):
        ElementaryAbelianFactor(3, 2, (((1, 1), (1, 1)),))
    f = ElementaryAbelianFactor(3, 2, (((2, 0), (0, 2)),))
    assert f.size == 9


def test_spec_rejects_fixed_points():
    # 4 fixes 5 modulo 15 (4*5 = 20 = 5), so x -> 4x is not fixed point free
    spec = FrobeniusSpec((CyclicFactor(15, (4,)),), 2)
    with pytest.raises(FrobeniusError) as info:
        spec.validate()
    assert "fixes nonzero kernel element (index 5)" in str(info.value)
    assert info.value.witness == ((4,), 5)


def test_spec_rejects_wrong_complement_order():
    # x -> 2x mod 9 has order 6, not 3
    spec = FrobeniusSpec((CyclicFactor(9, (2,)),), 3)
    with pytest.raises(FrobeniusError):
        spec.validate()


def test_specs_past_the_table_bound_are_refused_before_any_table(monkeypatch):
    negation = tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4))
    cases = ((FrobeniusSpec((ElementaryAbelianFactor(3, 4, (negation,)),), 2), 81 * 4),
             (cyclic_unit_spec(65, 57), 65 * 4))      # digits: n len(radices); complement: k n
    for spec, entries in cases:
        with monkeypatch.context() as m:
            m.setattr(frobenius, "MAX_TABLE_ENTRIES", entries - 1)
            m.setattr(frobenius, "_generator_tables", lambda spec: pytest.fail("table built"))
            for build in (lambda: spec.digits, lambda: spec.complement, spec.validate):
                with pytest.raises(FrobeniusError, match="need %d entries" % entries):
                    build()
        with monkeypatch.context() as m:
            m.setattr(frobenius, "MAX_TABLE_ENTRIES", entries)
            assert spec.validate().shape == (spec.complement_order, spec.kernel_order)


def test_negation_spec_validates_for_odd_moduli():
    for m in (9, 15, 21, 25, 27, 33):
        spec = negation_spec(m)
        elems = spec.validate()
        assert len(elems) == 2


def test_kernel_index_arithmetic_mixed_kernel():
    # Z_7 + (Z_2)^4: digit 0 has radix 7, then four base-2 digits
    spec = mixed_spec(7, 2, 4)
    n = spec.kernel_order
    assert n == 7 * 16
    assert spec.radices == (7, 2, 2, 2, 2)
    idx = np.arange(n)

    def digits(i):
        return np.stack([i % 7] + [(i // 7 >> d) & 1 for d in range(4)])

    sums = digit_add(idx[:, None], idx[None, :], spec.radices)
    radix = np.array([7, 2, 2, 2, 2])[:, None, None]
    assert (digits(sums) == (digits(idx)[:, :, None] + digits(idx)[:, None, :]) % radix).all()
    assert (np.sort(sums, axis=1) == idx).all()      # each row is a bijection
    # the translations by the basis indices generate a regular group
    basis = digit_strides(spec.radices)
    assert basis == [1, 7, 14, 28, 56]
    translations = PermGroup(
        [Permutation(digit_add(idx, b, spec.radices).tolist()) for b in basis], n)
    assert len(translations.orbit(0)) == n and translations.order() == n
    assert build_frobenius(spec).order() == n * spec.complement_order


def test_spec_rejects_fixed_points_elementary_abelian():
    # negation on Z_5 times diag(2, 1) on (Z_3)^2 fixes (0, (0, 1)): index 5 * 3
    spec = FrobeniusSpec((CyclicFactor(5, (4,)),
                          ElementaryAbelianFactor(3, 2, (((2, 0), (0, 1)),))), 2)
    with pytest.raises(FrobeniusError) as info:
        spec.validate()
    assert info.value.witness == ((4, 10, 15), 15)
    assert "(index 15)" in str(info.value)


def test_build_frobenius_order_and_rank():
    spec = negation_spec(9)
    G = build_frobenius(spec)
    assert G.order() == 18
    s = from_orbitals(G)
    assert s.n == 9
    assert s.rank == 1 + (9 - 1) // 2
    assert s.is_equivalenced() == 2

    spec = cyclic_unit_spec(65, 57)
    G = build_frobenius(spec)
    assert G.order() == 65 * 4
    s = from_orbitals(G)
    assert s.rank == 1 + 64 // 4
    assert s.is_equivalenced() == 4


def test_invariant_lattice_cyclic_is_divisor_lattice():
    lat = invariant_lattice(negation_spec(105))
    orders = sorted(s.order for s in lat.subgroups)
    assert orders == [1, 3, 5, 7, 15, 21, 35, 105]
    assert lat.d == 3
    assert lat.pi == (3, 5, 7)
    assert lat.chain_lengths_equal

    lat9 = invariant_lattice(negation_spec(9))
    assert [s.order for s in lat9.subgroups] == [1, 3, 9]
    assert lat9.d == 2
    assert lat9.pi == (3,)


def test_invariant_lattice_general_matches_cyclic_on_crt_split():
    # Z_45 as one cyclic factor vs Z_9 x Z_5: same kernel, same lattice shape
    one = invariant_lattice(negation_spec(45))
    spec = FrobeniusSpec((CyclicFactor(9, (8,)), CyclicFactor(5, (4,))), 2)
    two = invariant_lattice(spec)
    assert sorted(s.order for s in one.subgroups) == sorted(s.order for s in two.subgroups)
    assert one.d == two.d == 3
    assert one.pi == two.pi == (3, 5)


def test_invariant_lattice_elementary_abelian_negation():
    # (Z_3)^2 with -I invariant under every subgroup: 4 lines + trivial + full
    spec = FrobeniusSpec(
        (ElementaryAbelianFactor(3, 2, (((2, 0), (0, 2)),)),), 2)
    lat = invariant_lattice(spec)
    assert sorted(s.order for s in lat.subgroups) == [1, 3, 3, 3, 3, 9]
    assert lat.d == 2
    # two cyclic factors Z_3 x Z_3 with negation hit the general path too
    alt = FrobeniusSpec((CyclicFactor(3, (2,)), CyclicFactor(3, (2,))), 2)
    lat2 = invariant_lattice(alt)
    assert sorted(s.order for s in lat2.subgroups) == [1, 3, 3, 3, 3, 9]


def test_invariant_lattice_scalar_action_keeps_only_line_orbits():
    # scalars of order 4 on F_9^2: invariant subgroups are spanned by
    # F_9-lines closed under the scalar orbit
    spec = scalar_spec(9)
    lat = invariant_lattice(spec)
    assert lat.subgroups[0].order == 1
    assert lat.subgroups[-1].order == 81
    assert lat.d >= 2


def test_principal_sections_negation():
    secs = principal_sections(negation_spec(105))
    assert sorted(s.degree for s in secs) == [3, 5, 7]
    by_degree = {s.degree: s for s in secs}
    assert by_degree[3].rank == 2
    assert by_degree[5].rank == 3
    assert by_degree[7].rank == 4
    assert all(s.exponent == 1 for s in secs)

    secs9 = principal_sections(negation_spec(9))
    assert [s.degree for s in secs9] == [3, 3]
    assert all(s.rank == 2 for s in secs9)


def test_thm2_profile_frozen_examples():
    # |pi| = 3 leaves the table no matter what d is
    prof = thm2_profile(negation_spec(105))
    assert (len(prof.pi), prof.d) == (3, 3)
    assert not prof.in_table
    assert prof.verdict == "excluded"

    # d = 4 leaves the table even with one prime
    prof81 = thm2_profile(negation_spec(81))
    assert (len(prof81.pi), prof81.d) == (1, 4)
    assert prof81.verdict == "excluded"

    # (1, 2) stays open
    prof9 = thm2_profile(negation_spec(9))
    assert (len(prof9.pi), prof9.d) == (1, 2)
    assert prof9.verdict == "open"
    assert prof9.d3_cases == ()

    # full scalar group acts 2-transitively: no proper invariant subgroup
    full = FrobeniusSpec(
        (ElementaryAbelianFactor(3, 2, (((0, 1), (1, 1)),)),), 8)
    proffull = thm2_profile(full)
    assert proffull.primitive
    assert proffull.verdict == "primitive"


def test_thm2_profile_d3_one_prime_cube():
    # |H| = 7^3 = (6+1)^3 with k = 6: every section two-transitive of degree 7
    prof = thm2_profile(field_cube_spec(7, 6))
    assert prof.d == 3
    assert prof.in_table
    assert prof.d3_cases == ("one-prime-cube",)
    assert prof.verdict == "open"
    assert set(prof.section_degrees) == {7}
    assert set(prof.section_ranks) == {2}

    # same kernel with a smaller complement misses the case
    prof2 = thm2_profile(field_cube_spec(7, 3))
    assert prof2.d == 3
    assert prof2.d3_cases == ()
    assert prof2.verdict == "excluded"


def test_thm2_profile_d3_two_prime_double():
    # |H| = (k+1)^2 (2k+1) = 9 * 5 = 45 with k = 2: negation on F_3^2 x Z_5
    spec = FrobeniusSpec(
        (ElementaryAbelianFactor(3, 2, (((2, 0), (0, 2)),)),
         CyclicFactor(5, (4,))), 2)
    prof = thm2_profile(spec)
    assert prof.d == 3
    assert len(prof.pi) == 2
    assert prof.d3_cases == ("two-prime-double",)
    assert prof.verdict == "open"
    assert sorted(prof.section_degrees) == [3, 3, 5]

    # the square kernel (Z_3)^2 x (Z_5)^2 has d = 4 and leaves the table
    prof2 = thm2_profile(double_prime_spec(3, 5, 2))
    assert prof2.d == 4
    assert prof2.verdict == "excluded"


# -- the invariant chain against the whole lattice -------------------------


CHAIN_SPECS = [*batch_specs(),
               ("scalar-3-4", scalar_spec(3, 4)), ("scalar-4-3", scalar_spec(4, 3)),
               ("double-13-5-12", double_prime_spec(13, 5, 12)),
               ("z343-19", FrobeniusSpec((CyclicFactor(343, (19,)),), 6)),
               ("z49-18", FrobeniusSpec((CyclicFactor(49, (18,)),), 3))]


@pytest.mark.parametrize("name, spec", CHAIN_SPECS, ids=[name for name, _ in CHAIN_SPECS])
def test_the_invariant_chain_is_the_least_cover_chain_of_the_lattice(name, spec):
    lat = invariant_lattice(spec)
    chain = invariant_chain(spec)
    assert [s.bits for s in chain] == [lat.subgroups[i].bits for i in _least_cover_chain(lat)]
    assert [s.order for s in chain] == [s.bits.bit_count() for s in chain]
    assert len(chain) - 1 == lat.d
    sections, profile, verdict = _lattice_route(spec)
    assert principal_sections(spec) == sections
    assert thm2_profile(spec) == profile
    assert separability_verdict(spec) == verdict


@pytest.mark.parametrize("name", ["scalar-7", "cube-7-6"])
def test_a_chain_step_that_is_not_a_multiple_of_k_is_refused(monkeypatch, name):
    # repeating the top adds a step of index 1 (step 0), which a valid spec
    # cannot have: the verdict refuses it and never falls back to the lattice
    spec = dict(batch_specs())[name]
    chain, lattices = invariant_chain(spec), []
    monkeypatch.setattr(frobenius, "invariant_chain", lambda s: chain + chain[-1:])
    monkeypatch.setattr(frobenius, "invariant_lattice",
                        lambda s: lattices.append(s) or invariant_lattice(s))
    with pytest.raises(AssertionError, match="positive multiples"):
        separability_verdict(spec)
    assert lattices == []


def test_spec_json_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    for spec in (negation_spec(21), mixed_spec(7, 2, 4), scalar_spec(9)):
        path.write_text(json.dumps(corpus.spec_document(spec)))
        again = cli._load_spec(str(path))
        assert again == spec
        assert again.kernel_order == spec.kernel_order


def test_principal_subgroups_skip_the_orbits_of_unit_multiples():
    from pfscheme.catalog import batch_specs
    from pfscheme.frobenius import _is_cyclic, _principal_subgroups

    checked = 0
    for name, spec in batch_specs():
        if _is_cyclic(spec):
            continue
        assert set(_principal_subgroups(spec)) == reference_principal_subgroups(spec), name
        checked += 1
    assert checked == 26
    # each of the 183 invariant lines of F_13^3 is met as two orbits of the
    # order-6 complement, x and 2x, and closed once
    lines = _principal_subgroups(dict(batch_specs())["cube-13-6"])
    assert len(lines) == len(set(lines)) == 184
    assert {order for _, order in lines} == {1, 13}


def test_principal_subgroups_close_one_orbit_per_class_in_order():
    from pfscheme.catalog import batch_specs
    from pfscheme.frobenius import _is_cyclic, _principal_subgroups

    # negation on (Z_11)^2 and on Z_9 x Z_3: the units do most of the merging
    negation = [("neg-11^2", FrobeniusSpec(
                    (ElementaryAbelianFactor(11, 2, (((10, 0), (0, 10)),)),), 2)),
                ("neg-9x3", FrobeniusSpec((CyclicFactor(9, (8,)), CyclicFactor(3, (2,))), 2))]
    for name, spec in batch_specs() + negation:
        if not _is_cyclic(spec):
            assert _principal_subgroups(spec) == reference_principal_subgroup_list(spec), name


def test_an_irreducible_complement_leaves_only_the_trivial_seed():
    # F_16 as (Z_2)^4 under the multiplications of order 5 (orbits of 5
    # elements, under n/2, that span the whole kernel) and of order 15
    from pfscheme.frobenius import _principal_subgroups
    from pfscheme.gf import GF

    F = GF(16)
    for k in (5, 15):
        w = F.pow(F.primitive_element(), 15 // k)
        spec = FrobeniusSpec((ElementaryAbelianFactor(2, 4, (F.mul_matrix(w),)),), k)
        assert _principal_subgroups(spec) == [(1, 1)]
        assert reference_principal_subgroups(spec) == {(1, 1)}
        assert [s.order for s in invariant_lattice(spec).subgroups] == [1, 16]
