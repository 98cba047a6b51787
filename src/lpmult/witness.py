"""Sign-function witnesses turning martingale extremizers into multiplier bounds.

A depth-N martingale instance is realized on (T^d)^(N+1): block k carries
psi_k(theta_k) = sign((n, theta_k)) with n chosen from a pair of lattice
directions according to the flip pattern, and block 0 seeds the d_k
arguments.  On the offset grid with axis directions the sampled signs are
exact eigenfunctions of every even homogeneous symbol, so the witness ratio
reproduces the enumerated martingale ratio to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iterproduct

import numpy as np

from .exponents import ExponentConfig
from .martingale import MartingaleDifferenceSequence, TransformConfig, perturbed_ratio_exact
from .symbols import MultiplierSymbol
from .tensor import POINT_CAP, TensorGridFunction, tensor_lift_apply

__all__ = ["WitnessSpec", "WitnessResult", "build_witness", "build_matrix_witness",
           "best_axis_direction"]


@dataclass(frozen=True)
class WitnessSpec:
    """Everything needed to assemble a sign-function witness."""

    exps: ExponentConfig
    tau: float
    symbol: MultiplierSymbol
    n_plus: tuple
    n_minus: tuple
    delta_plus: float
    delta_minus: float
    sequence: MartingaleDifferenceSequence
    beta: tuple[int, ...]
    G: int = 2
    unitary: np.ndarray | None = None
    delta_tol: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "n_plus", tuple(int(v) for v in self.n_plus))
        object.__setattr__(self, "n_minus", tuple(int(v) for v in self.n_minus))
        if len(self.n_plus) != self.symbol.d or len(self.n_minus) != self.symbol.d:
            raise ValueError(f"directions must have length d={self.symbol.d}")
        if not any(self.n_plus) or not any(self.n_minus):
            raise ValueError("witness directions must be nonzero")
        if not self.delta_plus > self.delta_minus:
            raise ValueError("need delta_plus > delta_minus")
        beta = tuple(int(b) for b in self.beta)
        if len(beta) != self.sequence.N or any(b not in (-1, 1) for b in beta):
            raise ValueError("beta must be a +-1 vector of the martingale depth")
        object.__setattr__(self, "beta", beta)
        if self.unitary is not None:
            U = np.asarray(self.unitary, dtype=complex)
            if U.shape != (self.symbol.m, self.symbol.m):
                raise ValueError("unitary factor has the wrong shape")
            if np.max(np.abs(U.conj().T @ U - np.eye(self.symbol.m))) > 1e-12:
                raise ValueError("unitary factor fails U^H U = I at 1e-12")
            object.__setattr__(self, "unitary", U)

    @property
    def alphas(self) -> tuple[float, ...]:
        """alpha_k = delta_plus where beta_k = +1, else delta_minus (k = 1..N)."""
        return tuple(self.delta_plus if b == 1 else self.delta_minus for b in self.beta)

    @property
    def rescale(self) -> float:
        """A = 2 / (delta_plus - delta_minus); A = 1 in the symmetric +-1 case."""
        return 2.0 / (self.delta_plus - self.delta_minus)


@dataclass(frozen=True)
class WitnessResult:
    ratio: float
    certified_lower_bound: float
    martingale_ratio: float
    direction_slack: float   # max deviation of the symbol from delta+- on n+-
    rescale: float


def _direction_slack(ws: WitnessSpec) -> float:
    """How far the symbol sits from its declared values on the chosen directions."""
    vp = ws.symbol.evaluate(np.asarray(ws.n_plus, dtype=float))
    vm = ws.symbol.evaluate(np.asarray(ws.n_minus, dtype=float))
    if ws.symbol.shape == "matrix":
        U = ws.unitary if ws.unitary is not None else np.eye(ws.symbol.m)
        dp = np.linalg.norm(vp - ws.delta_plus * U, ord=2)
        dm = np.linalg.norm(vm - ws.delta_minus * U, ord=2)
    else:
        dp = abs(complex(vp) - ws.delta_plus)
        dm = abs(complex(vm) - ws.delta_minus)
    return float(max(dp, dm))


def _sign_blocks(ws: WitnessSpec):
    """Per-block sign fields psi_k and the matching table indices.

    Block 0 seeds the d_k arguments with psi^+; blocks 1..N follow alpha_k.
    Returns (signs, idx) where signs[j] has shape (G,)*d with +-1 entries.
    """
    from .grid import TorusGrid

    grid = TorusGrid(ws.symbol.d, ws.G)
    theta = grid.mesh()
    n_for_block = [ws.n_plus]
    n_for_block += [ws.n_plus if b == 1 else ws.n_minus for b in ws.beta]
    signs = []
    for n in n_for_block:
        proj = theta @ np.asarray(n, dtype=float)
        s = np.sign(proj)
        if np.any(s == 0):
            raise ValueError("a sample point fell on the sign hyperplane; "
                             "use axis directions on the offset grid")
        signs.append(s)
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
    slack = _direction_slack(ws)
    grid, signs, idx = _sign_blocks(ws)

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
    A = ws.rescale
    return WitnessResult(
        ratio=float(ratio),
        certified_lower_bound=float(ratio / abs(A)),
        martingale_ratio=float(mart),
        direction_slack=slack,
        rescale=A,
    )


def build_witness(ws: WitnessSpec) -> WitnessResult:
    """Scalar-symbol witness for the stacked multiplier (m, tau)^T.

    With exact axis directions (slack 0) and delta+- = +-1 the achieved
    ratio equals the enumerated martingale ratio; the certified lower bound
    carries the 1/|A| rescaling for general delta values.
    """
    if ws.symbol.shape != "scalar":
        raise ValueError("build_witness takes a scalar symbol")
    return _build(ws)


def build_matrix_witness(ws: WitnessSpec) -> WitnessResult:
    """Matrix-symbol witness; requires M(n+-) = delta+- U for a unitary U.

    The common unitary factor preserves pointwise norms, so the ratio
    coincides with the scalar witness built from delta+- alone.
    """
    if ws.symbol.shape != "matrix":
        raise ValueError("build_matrix_witness takes a matrix symbol")
    if ws.sequence.m != ws.symbol.m:
        raise ValueError("martingale value dimension must match the matrix size")
    return _build(ws)


def best_axis_direction(M: MultiplierSymbol, target: float, bound: int = 8,
                        odd_sum: bool = False):
    """Integer direction n with ||M(n) - target|| minimal over |n|_inf <= bound.

    Ties break toward the smallest |n| (then lexicographically), giving the
    delta-approximation the transference argument asks for.  With odd_sum the
    search is restricted to directions with odd coordinate sum, for which
    sign((n, theta)) has no zeros on the offset grid.
    """
    best = None
    for n in _iterproduct(range(-bound, bound + 1), repeat=M.d):
        if not any(n):
            continue
        if odd_sum and sum(n) % 2 == 0:
            continue
        val = M.evaluate(np.asarray(n, dtype=float))
        if M.shape == "scalar":
            dev = abs(complex(val) - target)
        else:
            raise ValueError("direction search is defined for scalar symbols")
        key = (dev, sum(v * v for v in n), n)
        if best is None or key < best[0]:
            best = (key, n)
    return best[1], best[0][0]
