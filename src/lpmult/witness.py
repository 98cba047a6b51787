"""Sign-function witnesses turning martingale extremizers into multiplier bounds.

A depth-N martingale instance is realized on (T^2)^(N+1) as
Phi = sum_k psi_k(theta_k) d_k(psi_0, ..., psi_{k-1}): block k carries the
axis sign psi_k = sign(theta_k2) where beta_k = +1 and sign(theta_k1) where
beta_k = -1, and block 0 seeds the d_k arguments with sign(theta_02).  On the
half-cell offset grid each axis sign is balanced +-1, so (psi_0, ..., psi_N)
is uniform on the sign hypercube {+-1}^(N+1).

The certificate is one call, `build_witness`.  Its premise, `check_premise`,
is p0 <= p and a symbol exactly +1 on the theta_2 axis and -1 on the theta_1
axis (Re B, or +-I for its matrix form).  Each axis sign is then an
eigenfunction, the lift of Phi_k in block k is beta_k Phi_k, and the torus
witness is the martingale and its transform under that law: its ratio, the
certified number, is the enumerated `perturbed_ratio_exact`, with no FFT and
no torus array.  A failed axis value raises `CrossCheckError`.  Memory is
O(2^(N+1)), the enumeration's, so certification runs to the enumeration cap.
"""

from __future__ import annotations

import numpy as np

from .exponents import ExponentConfig
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact
from .report import CrossCheckError
from .symbols import MultiplierSymbol
# Unused: perfbench/tracing.py resolves this site, and CI's "tracer sites resolve" step checks it.
from .tensor import tensor_lift_apply  # noqa: F401

# The axis frequencies +-(0, 1) and +-(1, 0), and the symbol value each needs.
_AXES = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
_AXIS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def check_premise(symbol: MultiplierSymbol, exps: ExponentConfig) -> None:
    """The certificate's premise, checked before any martingale is sought:
    p0 <= p (ValueError), then the exact axis values (CrossCheckError)."""
    if exps.p0 > exps.p:
        raise ValueError("the witness transference requires p0 <= p")
    want = _AXIS_SIGNS
    if symbol.m > 1:
        want = want[:, None, None] * np.eye(symbol.m)
    if not np.array_equal(symbol.evaluate(_AXES), want):  # refuses a symbol not on R^2
        raise CrossCheckError(f"symbol {symbol.name} is not exactly +1 on the theta_2 "
                              "axis and -1 on the theta_1 axis")


def build_witness(symbol: MultiplierSymbol, sequence: MartingaleDifferenceSequence,
                  beta: tuple[int, ...], tau: float, exps: ExponentConfig) -> float:
    """Certified ratio of the sign-function witness for the stacked multiplier (symbol, tau)^T.

    The axis signs are exact eigenfunctions, so the witness ratio equals the
    enumerated martingale ratio and is itself the certified bound.  A scalar
    symbol takes scalar tables.  The m x m matrix symbol acts as the scalar
    sign on every component, so it takes C^m tables, or scalar ones standing
    for their zero-padded C^m embedding, whose ratio is the same.
    """
    check_premise(symbol, exps)
    if symbol.m == 1 and sequence.m != 1:
        raise ValueError("scalar witnesses need scalar (m = 1) martingale tables")
    if sequence.m not in (1, symbol.m):
        raise ValueError("martingale value dimension must be 1 or the matrix size")
    return perturbed_ratio_exact(sequence, TransformConfig(beta, tau), exps)
