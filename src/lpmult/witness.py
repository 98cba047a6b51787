"""Sign-function witnesses turning martingale extremizers into multiplier bounds.

A depth-N martingale instance is realized on (T^2)^(N+1) as
Phi = sum_k psi_k(theta_k) d_k(psi_0, ..., psi_{k-1}): block k carries the
axis sign psi_k = sign(theta_k2) where beta_k = +1 and sign(theta_k1) where
beta_k = -1, and block 0 seeds the d_k arguments with sign(theta_02).  On the
half-cell offset grid each axis sign is balanced +-1, so (psi_0, ..., psi_N)
is uniform on the sign hypercube {+-1}^(N+1).

The certificate's one premise, `check_axis_values`, is that the symbol is
exactly +1 on the theta_2 axis and -1 on the theta_1 axis (Re B, or +-I for
its matrix form).  Each axis sign is then an eigenfunction, the lift of Phi_k
in block k is beta_k Phi_k, and the torus witness is the martingale and its
transform under that law: its ratio, the certified number, is the enumerated
`perturbed_ratio_exact`, with no FFT and no torus array.  A failed premise
raises `CrossCheckError`.  Memory is O(2^(N+1)), the enumeration's, so
certification runs to the enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentConfig
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact
from .report import CrossCheckError
from .symbols import MultiplierSymbol
# Unused: perfbench/tracing.py resolves this site, and CI's "tracer sites resolve" step checks it.
from .tensor import tensor_lift_apply  # noqa: F401

__all__ = ["WitnessSpec", "build_witness", "build_matrix_witness", "check_axis_values",
           "check_exponents"]

# The axis frequencies +-(0, 1) and +-(1, 0), and the symbol value each needs.
_AXES = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
_AXIS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


@dataclass(frozen=True)
class WitnessSpec:
    """Everything a sign-function witness needs; the enumeration checks beta."""

    exps: ExponentConfig
    tau: float
    symbol: MultiplierSymbol
    sequence: MartingaleDifferenceSequence
    beta: tuple[int, ...]

    def __post_init__(self):
        check_axis_values(self.symbol)


def check_axis_values(symbol: MultiplierSymbol) -> None:
    """The certificate's one premise, checked before any martingale is sought."""
    want = _AXIS_SIGNS
    if symbol.shape != "scalar":
        want = want[:, None, None] * np.eye(symbol.m)
    if not np.array_equal(symbol.evaluate(_AXES), want):  # refuses a symbol not on R^2
        raise CrossCheckError(f"symbol {symbol.name} is not exactly +1 on the theta_2 "
                              "axis and -1 on the theta_1 axis")


def check_exponents(exps: ExponentConfig) -> None:
    """The witness transference needs p0 <= p; checked before any martingale is sought."""
    if exps.p0 > exps.p:
        raise ValueError("the witness transference requires p0 <= p")


def _build(ws: WitnessSpec) -> float:
    """The factored certificate: the hypercube ratio (the spec checked the axis values)."""
    check_exponents(ws.exps)
    return perturbed_ratio_exact(ws.sequence, TransformConfig(ws.beta, ws.tau), ws.exps)


def build_witness(ws: WitnessSpec) -> float:
    """Certified ratio of the scalar-symbol witness for the stacked multiplier (m, tau)^T.

    The axis signs are exact eigenfunctions, so the witness ratio equals
    the enumerated martingale ratio and is itself the certified bound.
    """
    if ws.symbol.shape != "scalar":
        raise ValueError("build_witness takes a scalar symbol")
    if ws.sequence.m != 1:
        raise ValueError("scalar witnesses need scalar (m = 1) martingale tables")
    return _build(ws)


def build_matrix_witness(ws: WitnessSpec) -> float:
    """Certified ratio of the matrix-symbol witness (+I on the theta_2 axis, -I on theta_1).

    Each block then acts as the scalar sign on every component, so the
    ratio coincides with the enumerated C^m-valued martingale ratio.  Scalar
    (m = 1) tables stand for their zero-padded C^m embedding, whose ratio is
    the same.
    """
    if ws.symbol.shape != "matrix":
        raise ValueError("build_matrix_witness takes a matrix symbol")
    if ws.sequence.m not in (1, ws.symbol.m):
        raise ValueError("martingale value dimension must be 1 or the matrix size")
    return _build(ws)
