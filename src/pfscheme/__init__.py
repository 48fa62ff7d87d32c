"""Association schemes of Frobenius type: construction, checking, classification.

Subpackage map:
    arith       number-theory helpers and mixed-radix index arithmetic
    perms       reference permutation groups: Schreier-Sims order, orbitals
    scheme      association schemes, intersection tensors, WL closure
    lattice     shared join-closure engine for subgroup and parabolic lattices
    gf          finite field arithmetic GF(p^e)
    frobenius   Frobenius group specs, invariant lattices, classification profile
    parabolic   parabolic (closed-subset) lattice, separability criteria
    tcond       the t-condition checker on flag counts
    algiso      algebraic isomorphisms, base triples, schurity testing
    spreads     translation plane spreads (Desarguesian, Hall)
    circulants  circulant graphs and unit-group certificates
    autgrp      exact automorphism search with Frobenius certification
    wldim       WL-dimension classification of circulants
    catalog     Frobenius spec builders and the named batch for survey runs
    verify      the nine acceptance criteria
    cli         the command-line interface

Every subpackage but `cli` is registered lazily: it is in `sys.modules` and
an attribute of this package at once, but its code is compiled and run
only when one of its attributes is first read.  So a process compiles only
the modules its work uses; a module loads its own imports when it loads.
The names below are served from their modules on first use.
"""

import importlib.util
import sys

_EXPORTS = {
    "arith": ("divisors", "factorize", "is_prime", "mult_order", "prime_power"),
    "perms": ("Permutation", "PermGroup"),
    "scheme": ("Scheme", "SchemeError", "NotCoherentError", "IntersectionTensor",
               "compute_tensor", "canonical_relabel", "partition_equal",
               "from_orbitals", "frobenius_scheme", "wl_closure"),
    "gf": ("GF", "FiniteField"),
    "frobenius": ("FrobeniusError", "CyclicFactor", "ElementaryAbelianFactor",
                  "FrobeniusSpec", "build_frobenius", "InvariantLattice",
                  "invariant_lattice", "PrincipalSection", "principal_sections",
                  "ClassificationProfile", "thm2_profile"),
    "parabolic": ("Parabolic", "parabolic_closure", "enumerate_parabolics",
                  "DivideRecord", "divide_check", "indistinguishing_number",
                  "SeparabilityVerdict", "separability_verdict"),
    "tcond": ("TConditionWitness", "TConditionReport", "check_t_condition",
              "four_condition_frobenius_verdict"),
    "algiso": ("RelationBijection", "find_algebraic_isomorphisms", "BaseTriple",
               "CoordinateMap", "base_coordinates", "InducedIsomorphism",
               "induced_isomorphism", "SchurityResult", "schurity_via_base_triples"),
    "spreads": ("Spread", "verify_spread", "desarguesian_spread", "hall_spread",
                "spread_scheme"),
    "catalog": ("scalar_spec",),
    "circulants": ("CirculantSpec", "Circulant", "frobenius_circulant",
                   "circulant_from_connection", "color_matrix", "preserving_units",
                   "certificate_unit_groups"),
    "autgrp": ("FrobeniusCertificate", "frobenius_certificate", "automorphism_stabilizer"),
    "wldim": ("ExceptionCheck", "exception_check", "exception_set_crosscheck",
              "FrobeniusScreen", "frobenius_screen", "WlVerdict", "dimwl_verdict"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

# `cli` is imported the usual way when asked for: `python -m pfscheme.cli`
# runs it as __main__, and runpy warns and runs it twice when a copy is
# already in sys.modules.
for _name in ("arith", "perms", "scheme", "lattice", "gf", "frobenius", "parabolic",
              "tcond", "algiso", "spreads", "circulants", "autgrp", "wldim",
              "catalog", "verify"):
    _spec = importlib.util.find_spec("%s.%s" % (__name__, _name))
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)        # makes it lazy; runs no module code
del _name, _spec, _module


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


__version__ = "0.1.0"
