"""Sign-function witnesses turning martingale extremizers into multiplier bounds.

A depth-N martingale instance is realized on (T^2)^(N+1) as
Phi = sum_k psi_k(theta_k) d_k(psi_0, ..., psi_{k-1}): block k carries the
axis sign psi_k = sign(theta_k2) where beta_k = +1 and sign(theta_k1) where
beta_k = -1, and block 0 seeds the d_k arguments with sign(theta_02).  The
symbol must be exactly +1 on the theta_2 axis and -1 on the theta_1 axis (Re B,
or +-I for its matrix form): `WitnessSpec` checks it at the axis frequencies.

Every psi_k is one of two axis signs, {+1: sign(theta_2), -1: sign(theta_1)},
so the certificate is factored instead of evaluated on the G^(2(N+1)) torus
points.  It checks two premises on each axis sign, on the 2 x 2 grid:

1. it is +-1-valued with an exact zero sum, so under the product measure
   (psi_0, ..., psi_N) is uniform on the sign hypercube {+-1}^(N+1);
2. T psi = b psi by one lift on the J = 1 grid (one per component for
   matrix symbols), so the lift of Phi_k in block k is beta_k Phi_k.

The torus witness is then the martingale and its transform under that law,
and its ratio, the certified number, is the enumerated
`perturbed_ratio_exact`.  A failed premise raises `CrossCheckError`.
Memory is O(2^(N+1)), the enumeration's, so certification runs to the
enumeration cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentConfig
from .grid import TorusGrid
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact
from .report import CrossCheckError
from .symbols import MultiplierSymbol
from .tensor import TensorGridFunction, tensor_lift_apply

__all__ = ["WitnessSpec", "build_witness", "build_matrix_witness", "check_exponents"]

# The axis frequencies +-(0, 1) and +-(1, 0), and the symbol value each needs.
_AXES = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
_AXIS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

EIGEN_TOL = 1e-12
G = 2  # points per axis of the premise grid, where each axis sign has one frequency


@dataclass(frozen=True)
class WitnessSpec:
    """Everything a sign-function witness needs; the enumeration checks beta."""

    exps: ExponentConfig
    tau: float
    symbol: MultiplierSymbol
    sequence: MartingaleDifferenceSequence
    beta: tuple[int, ...]

    def __post_init__(self):
        sym = self.symbol  # evaluate refuses a symbol not on R^2
        want = _AXIS_SIGNS
        if sym.shape != "scalar":
            want = want[:, None, None] * np.eye(sym.m)
        if not np.array_equal(sym.evaluate(_AXES), want):
            raise CrossCheckError(f"symbol {sym.name} is not exactly +1 on the theta_2 "
                                  "axis and -1 on the theta_1 axis")


def _axis_signs(grid: TorusGrid) -> dict[int, np.ndarray]:
    """The axis sign of each eigenvalue: {+1: sign(theta_2), -1: sign(theta_1)}."""
    theta = grid.mesh()
    return {1: np.sign(theta[..., 1]), -1: np.sign(theta[..., 0])}


def _check_axis_signs(symbol: MultiplierSymbol) -> None:
    """Premises 1 and 2 for both axis signs; neither depends on the martingale."""
    grid = TorusGrid(2, G)
    matrix = symbol.shape == "matrix"
    for b, s in _axis_signs(grid).items():
        if not np.all(np.abs(s) == 1.0) or np.sum(s) != 0:
            raise CrossCheckError(f"axis sign {b:+d} is not a balanced +-1 function")
        # A matrix symbol must act as b on every component separately.
        for vals in [s[..., None] * e for e in np.eye(symbol.m)] if matrix else [s]:
            out = tensor_lift_apply(TensorGridFunction(grid, 1, vals), symbol, 0).values
            err = np.max(np.abs(out - b * vals))
            if not err <= EIGEN_TOL:
                raise CrossCheckError(f"axis sign {b:+d} is not an eigenfunction of "
                                      f"{symbol.name} with eigenvalue {b} "
                                      f"(error {err:.3g})")


def check_exponents(exps: ExponentConfig) -> None:
    """The witness transference needs p0 <= p; checked before any martingale is sought."""
    if exps.p0 > exps.p:
        raise ValueError("the witness transference requires p0 <= p")


def _build(ws: WitnessSpec) -> float:
    """The factored certificate: the two axis signs, then the hypercube ratio."""
    check_exponents(ws.exps)
    _check_axis_signs(ws.symbol)
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
