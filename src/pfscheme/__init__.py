"""Association schemes of Frobenius type: construction, checking, classification.

Subpackage map:
    arith       number-theory helpers and mixed-radix index arithmetic
    perms       permutations, Schreier-Sims groups, orbitals from a Schreier tree
    scheme      association schemes, intersection tensors, WL closure
    lattice     shared join-closure engine for subgroup and parabolic lattices
    gf          finite field arithmetic GF(p^e)
    frobenius   Frobenius group specs, invariant lattices, classification profile
    parabolic   parabolic (closed-subset) lattice, separability criteria
    tcond       the t-condition checker on flag counts
    algiso      algebraic isomorphisms, base triples, schurity testing
    spreads     translation plane spreads (Desarguesian, Andre, Hall)
    circulants  circulant graphs and unit-group certificates
    autgrp      exact automorphism search with Frobenius certification
    wldim       WL-dimension classification of circulants
    catalog     batch of named Frobenius specs for survey runs
    verify      the nine acceptance criteria
"""

from .arith import divisors, factorize, is_prime, mult_order, prime_power
from .perms import Permutation, PermGroup, group_order
from .scheme import (
    Scheme,
    SchemeError,
    NotCoherentError,
    IntersectionTensor,
    compute_tensor,
    canonical_relabel,
    partition_equal,
    from_orbitals,
    wl_closure,
)
from .gf import GF, FiniteField
from .frobenius import (
    FrobeniusError,
    CyclicFactor,
    ElementaryAbelianFactor,
    FrobeniusSpec,
    build_frobenius,
    InvariantLattice,
    invariant_lattice,
    PrincipalSection,
    principal_sections,
    ClassificationProfile,
    thm2_profile,
)
from .parabolic import (
    Parabolic,
    parabolic_closure,
    enumerate_parabolics,
    is_primitive,
    DivideRecord,
    divide_check,
    indistinguishing_number,
    SeparabilityVerdict,
    separability_verdict,
)
from .tcond import (
    TConditionWitness,
    TConditionReport,
    check_t_condition,
    four_condition_frobenius_verdict,
)
from .algiso import (
    RelationBijection,
    find_algebraic_isomorphisms,
    algebraic_automorphisms,
    BaseTriple,
    base_triples,
    CoordinateMap,
    base_coordinates,
    InducedIsomorphism,
    induced_isomorphism,
    SchurityResult,
    schurity_via_base_triples,
)
from .spreads import (
    Spread,
    verify_spread,
    desarguesian_spread,
    andre_spread,
    hall_spread,
    spread_scheme,
    scalar_spec,
)
from .circulants import (
    CirculantSpec,
    Circulant,
    frobenius_circulant,
    circulant_from_connection,
    color_matrix,
    preserving_units,
    certificate_unit_groups,
)
from .autgrp import FrobeniusCertificate, frobenius_certificate, automorphism_stabilizer
from .wldim import (
    ExceptionCheck,
    exception_check,
    exception_set_crosscheck,
    FrobeniusScreen,
    frobenius_screen,
    WlVerdict,
    dimwl_verdict,
)

__version__ = "0.1.0"
