"""Sign-function witnesses turning martingale extremizers into multiplier bounds.

A depth-N martingale instance is realized on (T^2)^(N+1) as
Phi = sum_k psi_k(theta_k) d_k(psi_0, ..., psi_{k-1}): block k carries the
axis sign psi_k = sign(theta_k2) where beta_k = +1 and sign(theta_k1) where
beta_k = -1, and block 0 seeds the d_k arguments with sign(theta_02).  The
symbol must be +1 on the theta_2 axis and -1 on the theta_1 axis (Re B, or
+-I for its matrix form).

The certificate is factored instead of evaluated on the G^(2(N+1)) torus
points.  It checks three premises:

1. every psi_k is +-1-valued with an exact zero sum, so under the product
   measure (psi_0, ..., psi_N) is uniform on the sign hypercube {+-1}^(N+1);
2. T psi_k = beta_k psi_k on one block, by one lift on the J = 1 grid per
   distinct sign (per component for matrix symbols), so the lift of Phi_k
   in block k is beta_k Phi_k;
3. the torus witness is then the martingale and its transform under that
   law, and its ratio is the enumerated `perturbed_ratio_exact`.

A failed premise raises `CrossCheckError`.  Memory is O(2^(N+1)), the
enumeration's, so certification runs to the enumeration cap.
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

__all__ = ["WitnessSpec", "WitnessResult", "build_witness", "build_matrix_witness"]

# The axis frequencies +-(0, 1) and +-(1, 0), and the symbol value each needs.
_AXES = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
_AXIS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

EIGEN_TOL = 1e-12


@dataclass(frozen=True)
class WitnessSpec:
    """Everything needed to assemble a sign-function witness."""

    exps: ExponentConfig
    tau: float
    symbol: MultiplierSymbol
    sequence: MartingaleDifferenceSequence
    beta: tuple[int, ...]
    G: int = 2

    def __post_init__(self):
        sym = self.symbol
        if sym.d != 2:
            raise ValueError(f"witness symbols act on R^2, got d={sym.d}")
        want = _AXIS_SIGNS
        if sym.shape != "scalar":
            want = want[:, None, None] * np.eye(sym.m)
        if not np.array_equal(sym.evaluate(_AXES), want):
            raise ValueError(f"symbol {sym.name} is not exactly +1 on the theta_2 "
                             "axis and -1 on the theta_1 axis")
        beta = tuple(int(b) for b in self.beta)
        if len(beta) != self.sequence.N or any(b not in (-1, 1) for b in beta):
            raise ValueError("beta must be a +-1 vector of the martingale depth")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class WitnessResult:
    ratio: float
    certified_lower_bound: float
    martingale_ratio: float


def _sign_blocks(ws: WitnessSpec):
    """The grid and the axis sign psi_k of each block k = 0..N.

    Block 0 and every block with beta_k = +1 take sign(theta_2); blocks
    with beta_k = -1 take sign(theta_1).  Each sign has shape (G, G).
    """
    grid = TorusGrid(2, ws.G)
    theta = grid.mesh()
    axis_sign = {1: np.sign(theta[..., 1]), -1: np.sign(theta[..., 0])}
    return grid, [axis_sign[b] for b in (1,) + ws.beta]


def _check_sign_law(signs) -> None:
    """Premise 1: each psi_k is +-1 with exact zero sum (sums of +-1 are exact)."""
    for k, s in enumerate(signs):
        if not np.all(np.abs(s) == 1.0) or np.sum(s) != 0:
            raise CrossCheckError(f"sign block psi_{k} is not a balanced +-1 function")


def _check_eigenrelation(ws: WitnessSpec, grid: TorusGrid, signs) -> None:
    """Premise 2: T psi_k = beta_k psi_k for k = 1..N, one lift per distinct sign."""
    matrix = ws.symbol.shape == "matrix"
    checked = []
    for k, (b, s) in enumerate(zip(ws.beta, signs[1:]), start=1):
        if any(b == cb and np.array_equal(s, cs) for cb, cs in checked):
            continue
        checked.append((b, s))
        # A matrix symbol must act as beta_k on every component separately.
        inputs = [s[..., None] * e for e in np.eye(ws.symbol.m)] if matrix else [s]
        for vals in inputs:
            out = tensor_lift_apply(TensorGridFunction(grid, 1, vals), ws.symbol, 0).values
            err = np.max(np.abs(out - b * vals))
            if not err <= EIGEN_TOL:
                raise CrossCheckError(f"sign block psi_{k} is not an eigenfunction of "
                                      f"{ws.symbol.name} with eigenvalue {b} "
                                      f"(error {err:.3g})")


def _build(ws: WitnessSpec) -> WitnessResult:
    """The factored certificate: sign law, one-block eigenrelation, hypercube ratio."""
    if ws.exps.p0 > ws.exps.p:
        raise ValueError("the witness transference requires p0 <= p")
    if ws.symbol.shape != "matrix" and ws.sequence.m != 1:
        raise ValueError("scalar witnesses need scalar (m = 1) martingale tables")
    grid, signs = _sign_blocks(ws)
    _check_sign_law(signs)
    _check_eigenrelation(ws, grid, signs)
    ratio = perturbed_ratio_exact(ws.sequence, TransformConfig(ws.beta, ws.tau), ws.exps)
    return WitnessResult(ratio=ratio, certified_lower_bound=ratio, martingale_ratio=ratio)


def build_witness(ws: WitnessSpec) -> WitnessResult:
    """Scalar-symbol witness for the stacked multiplier (m, tau)^T.

    The axis signs are exact eigenfunctions, so the witness ratio equals
    the enumerated martingale ratio and is itself the certified bound.
    """
    if ws.symbol.shape != "scalar":
        raise ValueError("build_witness takes a scalar symbol")
    return _build(ws)


def build_matrix_witness(ws: WitnessSpec) -> WitnessResult:
    """Matrix-symbol witness; the symbol is +I on the theta_2 axis, -I on theta_1.

    Each block then acts as the scalar sign on every component, so the
    ratio coincides with the enumerated C^m-valued martingale ratio.
    """
    if ws.symbol.shape != "matrix":
        raise ValueError("build_matrix_witness takes a matrix symbol")
    if ws.sequence.m != ws.symbol.m:
        raise ValueError("martingale value dimension must match the matrix size")
    return _build(ws)
