"""Sign-function witnesses turning martingale extremizers into multiplier bounds.

A depth-N martingale instance is realized on (T^2)^(N+1): block k carries
the axis sign psi_k(theta_k) = sign(theta_k2) where beta_k = +1 and
sign(theta_k1) where beta_k = -1, and block 0 seeds the d_k arguments with
sign(theta_02).  The symbol must be +1 on the theta_2 axis and -1 on the
theta_1 axis (Re B, or +-I for its matrix form); on the offset grid the
axis signs are then exact eigenfunctions, so the witness ratio reproduces
the enumerated martingale ratio to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentConfig
from .grid import TorusGrid
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact
from .symbols import MultiplierSymbol
from .tensor import POINT_CAP, TensorGridFunction, tensor_lift_apply

__all__ = ["WitnessSpec", "WitnessResult", "build_witness", "build_matrix_witness"]

# The axis frequencies +-(0, 1) and +-(1, 0), and the symbol value each needs.
_AXES = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
_AXIS_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


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
    """Per-block axis signs psi_k and the matching table indices.

    Block 0 and every block with beta_k = +1 take sign(theta_2); blocks
    with beta_k = -1 take sign(theta_1).  Returns (grid, signs, idx) where
    signs[j] has shape (G, G) with +-1 entries.
    """
    grid = TorusGrid(2, ws.G)
    theta = grid.mesh()
    axis_sign = {1: np.sign(theta[..., 1]), -1: np.sign(theta[..., 0])}
    signs = [axis_sign[b] for b in (1,) + ws.beta]
    idx = [((1 - s) / 2).astype(int) for s in signs]
    return grid, signs, idx


def _grow(prefix_sum: np.ndarray, k: int, d: int) -> np.ndarray:
    """View a sum over blocks 0..k-1 as constant along a new block k."""
    return prefix_sum.reshape(prefix_sum.shape[:d * k] + (1,) * d + prefix_sum.shape[d * k:])


def _build(ws: WitnessSpec) -> WitnessResult:
    """Stream the witness over k = 1..N on prefix arrays.

    Phi_k and T^k Phi_k depend only on blocks 0..k, so each summand is built
    and lifted with J = k + 1 (block k last) and then added into running
    sums that grow by one block per step.  Only the final sums are full size.
    """
    if ws.exps.p0 > ws.exps.p:
        raise ValueError("tensor lift requires p0 <= p")
    N, d, G = ws.sequence.N, ws.symbol.d, ws.G
    if G ** (d * (N + 1)) > POINT_CAP:
        raise ValueError(f"witness point count {G ** (d * (N + 1))} exceeds cap {POINT_CAP}")
    scalar = ws.symbol.shape != "matrix"
    if scalar and ws.sequence.m != 1:
        raise ValueError("scalar witnesses need scalar (m = 1) martingale tables")
    grid, signs, idx = _sign_blocks(ws)
    # Phi_k = psi_k * d_k(...) has block-k mean mean(psi_k) * d_k, and the
    # transference needs it to vanish; a sum of +-1 entries is exact.
    if any(np.sum(s) != 0 for s in signs[1:]):
        raise ValueError("every sign block psi_k (k >= 1) must have zero sum")

    def on_block(arr, j, J):
        """Reshape a (G,)*d block field onto the axes of block j of J."""
        return arr.reshape((1,) * (d * j) + (G,) * d + (1,) * (d * (J - 1 - j)))

    phi_sum = pair_sum = None
    for k in range(1, N + 1):
        J = k + 1
        table = ws.sequence.tables[k - 1]  # shape (2,)*k + (m,)
        gathered = table[tuple(on_block(idx[j], j, J) for j in range(k))]
        vals = on_block(signs[k], k, J)[..., None] * gathered
        if scalar:
            vals = vals[..., 0]
        top = tensor_lift_apply(TensorGridFunction(grid, J, vals), ws.symbol, k).values
        # The stacked pair (T^k Phi_k, tau Phi_k) along one component axis.
        with_axis = (G,) * (d * J) + (-1,)
        pair = np.concatenate([top.reshape(with_axis), ws.tau * vals.reshape(with_axis)],
                              axis=-1)
        del top  # the norms below need the memory
        if k > 1:
            vals += _grow(phi_sum, k, d)
            pair += _grow(pair_sum, k, d)
        phi_sum, pair_sum = vals, pair

    den = TensorGridFunction(grid, N + 1, phi_sum).lp_norm(ws.exps.p)
    del phi_sum, vals  # free a full array before the larger pair norm
    num = TensorGridFunction(grid, N + 1, pair_sum).lp_norm(ws.exps.p0)
    if den == 0.0:
        raise ZeroDivisionError("witness has zero Lp norm")
    ratio = num / den

    mart = perturbed_ratio_exact(ws.sequence, TransformConfig(ws.beta, ws.tau), ws.exps)
    return WitnessResult(ratio=float(ratio), certified_lower_bound=float(ratio),
                         martingale_ratio=float(mart))


def build_witness(ws: WitnessSpec) -> WitnessResult:
    """Scalar-symbol witness for the stacked multiplier (m, tau)^T.

    The axis signs are exact eigenfunctions, so the achieved ratio equals
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

