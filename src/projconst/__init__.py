"""Projection constants of subspaces of l1^d / linf^d.

Computes lower bounds for (and at small d exact values of) maximal
relative projection constants via sign-matrix search, constructs
almost-minimal orthogonal projections by Perron-weight rationalization
and graph blow-ups, and certifies results through row-sum statistics,
Perron radii, trace duality, and exact linear programming.
"""

from .almostmin import (Certificate, PipelineResult, almost_minimal, certify,
                        eta_of_eps)
from .blowup import (BlockProjection, BlowupSpec, blow_up, lift_eigenvectors,
                     weighted_equivalent)
from .eigsum import (CuccSelection, EqualityCase, GapBound, cucc_selection,
                     equality_case, kyfan_sum, pi_n_general,
                     spectral_gap_bound)
from .errors import (GuardRefusal, InvariantViolation, NumericalError,
                     PreconditionError, ProjconstError, ResourceExhausted,
                     WitnessConstraintError, WitnessNormalizationError)
from .matcore import (OrthoProjection, RowSumStats, SignMatrix, Spectrum,
                      SymMatrix, WeightVector, eig_sym, matrix_from_json,
                      matrix_to_json, perron, row_sum_stats, sign_matrix_of,
                      validate_projection)
from .rationalize import RationalWeights, choose_k, dirichlet_approx
from .relproj import (AttainmentResult, DualityWitness, LpProjection,
                      SubspaceBasis, attainment_check, min_projection_norm,
                      nu1, operator_norm, trace_certificate)
from .search import (SearchResult, alternate_maximize, alternating_pi,
                     etf_bound, exhaustive_pi, gruenbaum_floor)
from .seeds import C_ICOSA, SEEDS, get_seed

__version__ = "0.1.0"

__all__ = [
    "AttainmentResult", "BlockProjection", "BlowupSpec", "C_ICOSA",
    "Certificate", "CuccSelection", "DualityWitness", "EqualityCase",
    "GapBound", "GuardRefusal", "InvariantViolation", "LpProjection",
    "NumericalError", "OrthoProjection", "PipelineResult", "PreconditionError",
    "ProjconstError", "RationalWeights", "ResourceExhausted", "RowSumStats",
    "SEEDS", "SearchResult", "SignMatrix", "Spectrum",
    "SubspaceBasis", "SymMatrix", "WeightVector", "WitnessConstraintError",
    "WitnessNormalizationError", "almost_minimal", "alternate_maximize",
    "alternating_pi", "attainment_check", "blow_up", "certify", "choose_k",
    "cucc_selection", "dirichlet_approx", "eig_sym", "equality_case",
    "eta_of_eps", "etf_bound", "exhaustive_pi", "get_seed",
    "gruenbaum_floor", "kyfan_sum", "lift_eigenvectors", "matrix_from_json",
    "matrix_to_json", "min_projection_norm", "nu1", "operator_norm",
    "perron", "pi_n_general", "row_sum_stats", "sign_matrix_of",
    "spectral_gap_bound", "trace_certificate", "validate_projection",
    "weighted_equivalent",
]
