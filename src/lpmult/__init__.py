"""Lower-bound certification toolkit for Lp norms of Fourier multipliers.

Certified bounds come from explicit test functions: extremal perturbed
martingale transforms found by exact enumeration and gradient search, lifted
to sign-function witnesses on product tori and verified through FFT-based
multiplier application, with Gaussian transference and shear-invariance
checks connecting the discrete model to the continuous operators.
"""

from .exponents import ExponentConfig
from .grid import TorusGrid
from .symbols import MultiplierSymbol
from .catalog import (OperatorFamilyParam, TargetConstants, beurling,
                      beurling_imag, beurling_matrix, beurling_real,
                      complex_vs_matrix_path, family_symbol, identity_symbol,
                      rotated, target_constant, tau_admissible,
                      vector_perturbation)
from .martingale import (MartingaleDifferenceSequence, SearchBudget,
                         SearchResult, TransformConfig, evaluate_sequence,
                         extend_with_zero, perturbed_ratio_exact,
                         search_extremal)
from .tensor import (TensorGridFunction, l2_operator_norm, operator_ratio,
                     shear_norm_check, tensor_lift_apply, p2_lift_bound_check)
from .transference import (GaussianPairingConfig, gaussian_damped_pairing,
                           multiplier_deviation)
from .witness import WitnessSpec, build_matrix_witness, build_witness
from .report import CertReport, StoreError, TOOLKIT_VERSION

__version__ = TOOLKIT_VERSION

__all__ = [
    "ExponentConfig", "TorusGrid", "MultiplierSymbol", "l2_operator_norm",
    "operator_ratio", "OperatorFamilyParam", "TargetConstants", "beurling",
    "beurling_imag", "beurling_matrix", "beurling_real",
    "complex_vs_matrix_path", "family_symbol", "identity_symbol", "rotated",
    "target_constant", "tau_admissible", "vector_perturbation",
    "MartingaleDifferenceSequence", "SearchBudget", "SearchResult",
    "TransformConfig", "evaluate_sequence", "extend_with_zero",
    "perturbed_ratio_exact", "search_extremal", "TensorGridFunction",
    "shear_norm_check", "tensor_lift_apply", "p2_lift_bound_check",
    "GaussianPairingConfig", "gaussian_damped_pairing",
    "multiplier_deviation", "WitnessSpec",
    "build_matrix_witness", "build_witness",
    "CertReport", "StoreError", "TOOLKIT_VERSION",
]
