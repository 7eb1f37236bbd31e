"""Cyclic bar constructions of truncated polynomial monoids.

The package computes, exactly over the integers:

* the weight components of the cyclic bar construction of the pointed
  multiplicative monoid {0, 1, x, ..., x^(k-1)} with x^k = 0,
* their integral homology via Smith normal forms of the boundary maps,
* the closed-form relative periodic topological cyclic homology of
  F_p[x]/(x^k) relative to (x), together with nil-invariance verdicts.

See the ``cycbar`` command line tool for report generation.
"""

from .cyclic_bar import (
    BASEPOINT,
    CyclicBar,
    WeightComponent,
    identity_report,
    identity_violations,
    is_degenerate,
    simplex_weight,
)
from .homology import (
    AbelianGroup,
    ChainComplex,
    WeightPieceReport,
    chain_complex,
    expected_reduced_homology,
    homology_groups,
    lambda_dim,
    smith_normal_form,
    verify_weight_piece,
)
from .tate_tp import (
    CyclicFactor,
    NilInvariance,
    TPReport,
    exponent_sup,
    nil_invariance_report,
    p_adic_valuation,
    relative_tp,
    tate_cpn_homotopy,
    weight_piece_exponent,
    weight_piece_tp,
)

__version__ = "0.1.0"

__all__ = [
    "BASEPOINT",
    "AbelianGroup",
    "ChainComplex",
    "CyclicBar",
    "CyclicFactor",
    "NilInvariance",
    "TPReport",
    "WeightComponent",
    "WeightPieceReport",
    "chain_complex",
    "exponent_sup",
    "expected_reduced_homology",
    "homology_groups",
    "identity_report",
    "identity_violations",
    "is_degenerate",
    "lambda_dim",
    "nil_invariance_report",
    "p_adic_valuation",
    "relative_tp",
    "simplex_weight",
    "smith_normal_form",
    "tate_cpn_homotopy",
    "verify_weight_piece",
    "weight_piece_exponent",
    "weight_piece_tp",
]
