"""Lower-bound certification toolkit for Lp norms of Fourier multipliers.

Certified bounds come from explicit test functions: extremal perturbed martingale
transforms found by exact enumeration and gradient search, lifted to sign-function
witnesses on product tori by one checked call, `build_witness`, whose premise is p0 <= p
and the symbol's exact value on the coordinate axes, with Gaussian transference and
shear-invariance checks connecting the discrete model to the continuous operators.
An operator family is its name and one value (`family_symbol`, `target_constant`).
"""

from .exponents import ExponentConfig
from .grid import TorusGrid
from .symbols import MultiplierSymbol
from .catalog import (beurling, beurling_imag, beurling_matrix, beurling_real, c_tau,
                      family_symbol, identity_symbol, rotated, target_constant,
                      tau_admissible)
from .martingale import (MartingaleDifferenceSequence, SearchBudget, SearchResult,
                         TransformConfig, perturbed_ratio_exact, search_extremal)
from .tensor import TensorGridFunction, shear_norm_check, tensor_lift_apply
from .transference import (GaussianPairingConfig, gaussian_damped_pairing,
                           multiplier_deviation)
from .witness import build_witness
from .report import StoreError, TOOLKIT_VERSION

__version__ = TOOLKIT_VERSION

__all__ = [
    "ExponentConfig", "TorusGrid", "MultiplierSymbol",
    "beurling", "beurling_imag", "beurling_matrix", "beurling_real",
    "family_symbol", "identity_symbol", "rotated",
    "c_tau", "target_constant", "tau_admissible",
    "MartingaleDifferenceSequence", "SearchBudget", "SearchResult",
    "TransformConfig", "perturbed_ratio_exact", "search_extremal", "TensorGridFunction",
    "shear_norm_check", "tensor_lift_apply",
    "GaussianPairingConfig", "gaussian_damped_pairing",
    "multiplier_deviation", "build_witness",
    "StoreError", "TOOLKIT_VERSION",
]
