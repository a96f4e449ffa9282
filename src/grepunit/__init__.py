"""Exact invariants of generalized repunit numerical semigroups.

The semigroup S_a(b, n) is generated by a_i = r_b(n) + a*r_b(i-1) where
r_b(l) is the base-b repunit of length l.  Every invariant (Frobenius
number, genus, Apéry set, pseudo-Frobenius numbers, type, factorization
structure) has a closed formula here, plus an independent brute-force
engine to verify it against.
"""

from .arith import GrepunitParams, repunit, validate
from .closed_form import (
    InvariantReport,
    apery_maximals,
    apery_set,
    apery_set_recursive,
    apery_sum,
    coefficient_tuples,
    frobenius,
    genus,
    invariant_report,
    lattice_matrix,
    maximal_minors,
    pseudo_frobenius,
)
from .errors import (
    CapacityError,
    GrepunitError,
    InvalidBaseError,
    InvalidLengthError,
    InvalidParametersError,
    InvalidShiftError,
    NotCoprimeError,
    NotNumericalSemigroupError,
    RouteDisagreementError,
    UnsupportedDimensionError,
)
from .verify import CHECK_NAMES, SweepSpec, VerifyOutcome, run_checks, sweep

__version__ = "0.1.0"

__all__ = [
    "CHECK_NAMES",
    "CapacityError",
    "GrepunitError",
    "GrepunitParams",
    "InvalidBaseError",
    "InvalidLengthError",
    "InvalidParametersError",
    "InvalidShiftError",
    "InvariantReport",
    "NotCoprimeError",
    "NotNumericalSemigroupError",
    "RouteDisagreementError",
    "SweepSpec",
    "UnsupportedDimensionError",
    "VerifyOutcome",
    "apery_maximals",
    "apery_set",
    "apery_set_recursive",
    "apery_sum",
    "coefficient_tuples",
    "frobenius",
    "genus",
    "invariant_report",
    "lattice_matrix",
    "maximal_minors",
    "pseudo_frobenius",
    "repunit",
    "run_checks",
    "sweep",
    "validate",
]
