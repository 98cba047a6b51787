"""Multi-block torus functions, per-block multiplier lifts, and shear checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, coefficients, from_coefficients
from .multiplier import l2_operator_norm
from .symbols import MultiplierSymbol

__all__ = [
    "TensorGridFunction",
    "tensor_lift_apply",
    "shear_norm_check",
    "p2_lift_bound_check",
    "POINT_CAP",
]

POINT_CAP = 2**24


@dataclass(frozen=True)
class TensorGridFunction:
    """Complex samples on a product (T^d)^J of identical offset grids.

    Values have shape (G,)*(d*J), optionally with a trailing component
    axis of length m; block j occupies sample axes d*j .. d*j + d - 1.
    """

    grid: TorusGrid
    J: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        d, G, J = self.grid.d, self.grid.G, self.J
        if J < 1:
            raise ValueError("need at least one block")
        if G ** (d * J) > POINT_CAP:
            raise ValueError(f"total point count {G**(d*J)} exceeds cap {POINT_CAP}")
        if vals.shape[: d * J] != (G,) * (d * J) or vals.ndim not in (d * J, d * J + 1):
            raise ValueError(f"values shape {vals.shape} does not match (d={d}, G={G}, J={J})")

    @property
    def m(self) -> int:
        return 0 if self.values.ndim == self.grid.d * self.J else self.values.shape[-1]

    def block_axes(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < self.J:
            raise ValueError(f"block index {k} out of range 0..{self.J - 1}")
        d = self.grid.d
        return tuple(range(d * k, d * k + d))

    def pointwise_norm(self) -> np.ndarray:
        if self.m == 0:
            return np.abs(self.values)
        return np.linalg.norm(self.values, axis=-1)

    def lp_norm(self, p: float) -> float:
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        n = self.pointwise_norm()
        return float(np.mean(n**p) ** (1.0 / p))


def block_zero_mass(phi: TensorGridFunction, k: int) -> float:
    """Magnitude of the block-k frequency-zero Fourier mass (the mean over theta_k)."""
    mean = np.mean(phi.values, axis=phi.block_axes(k))
    return float(np.max(np.abs(mean)))


def _block_operator(grid: TorusGrid, M: MultiplierSymbol, m_in: int) -> np.ndarray:
    """The lift on one block as a (G^d * m_out) x (G^d * m_in) matrix.

    Row and column index (point, component) in C order.  Built by applying
    the centered-lattice FFT multiplier to each basis function of one block.
    """
    d, G = grid.d, grid.G
    n_in = G**d * m_in
    m_out = 1 if M.shape == "scalar" else M.m
    axes = tuple(range(1, d + 1))
    basis = np.eye(n_in, dtype=complex).reshape((n_in,) + (G,) * d + (m_in,))
    c = coefficients(basis, grid, axes)
    # Every symbol shape acts as an (m_out x m_in) matrix per frequency.
    sym = M.evaluate(grid.frequency_mesh()).reshape((G,) * d + (m_out, m_in))
    out = from_coefficients(np.einsum("...ij,...j->...i", sym, c), grid, axes)
    return out.reshape(n_in, G**d * m_out).T


def tensor_lift_apply(phi: TensorGridFunction, M: MultiplierSymbol, k: int,
                      zero_mass_tol: float = 1e-12) -> TensorGridFunction:
    """Multiply each joint Fourier coefficient by M(j_k); other blocks untouched.

    Requires phi to have (numerically) zero mean in block k.  A scalar or
    matrix symbol keeps the value shape; a vector symbol maps a scalar
    function to a C^m-valued one.  The lift is one small block operator
    applied by a single matrix product; when block k is the last block the
    values need no transposition.
    """
    if M.d != phi.grid.d:
        raise ValueError(f"block dimension {phi.grid.d} != symbol dimension {M.d}")
    if M.shape in ("scalar", "vector") and phi.m != 0:
        raise ValueError(f"{M.shape} symbols act on scalar functions, got m={phi.m}")
    if M.shape == "matrix" and phi.m != M.m:
        raise ValueError(f"matrix symbol needs C^{M.m}-valued input, got m={phi.m}")
    scale = float(np.max(np.abs(phi.values)))
    if block_zero_mass(phi, k) > zero_mass_tol * max(scale, 1.0):
        raise ValueError(f"block {k} carries frequency-zero mass; not mean-zero")

    d, G = phi.grid.d, phi.grid.G
    m_in = max(phi.m, 1)
    K = _block_operator(phi.grid, M, m_in).reshape(G**d, -1, G**d, m_in)
    A, B = G ** (d * k), G ** (d * (phi.J - k - 1))
    x = phi.values.reshape(A, G**d, B, m_in)
    y = np.tensordot(x, K, axes=([1, 3], [2, 3])).transpose(0, 2, 1, 3)
    out_shape = (G,) * (d * phi.J) + (() if M.shape == "scalar" else (M.m,))
    return TensorGridFunction(phi.grid, phi.J, y.reshape(out_shape))


@dataclass(frozen=True)
class ShearCheck:
    lhs: float        # eta-average of ||sum_k f^k_eta||_p^p
    rhs: float        # ||sum_k f_k||_p^p
    aligned: bool


def _shift_blocks(f: TensorGridFunction, cells: list[float]) -> np.ndarray:
    """Shift block j by cells[j] grid cells along each of its axes.

    Integer shifts permute the sample points (np.roll); fractional shifts
    fall back to a Fourier phase shift, exact for the represented
    trigonometric polynomial but only approximate under aliasing.
    """
    out = f.values
    grid = f.grid
    for j in range(f.J):
        c = cells[j]
        if c == int(c):
            c = int(c) % grid.G
            if c:
                for ax in f.block_axes(j):
                    out = np.roll(out, -c, axis=ax)
        else:
            axes = f.block_axes(j)
            coeff = coefficients(out, grid, axes)
            shift = c * grid.spacing
            phase = np.exp(1j * grid.frequencies_1d * shift)
            for ax in axes:
                shape = [1] * coeff.ndim
                shape[ax] = grid.G
                coeff = coeff * phase.reshape(shape)
            out = from_coefficients(coeff, grid, axes)
    return out


def shear_norm_check(summands, N: int, p: float, eta_cells=None) -> ShearCheck:
    """Both sides of the shear identity for f^k_eta(theta) = f_k(theta_j + N^j eta).

    eta runs over multiples of the grid spacing given by eta_cells (default
    0..G-1).  Aligned (integer-cell) shifts permute the sample points, so
    the two sides agree to rounding; fractional offsets are flagged and the
    check runs approximately through Fourier shifts.
    """
    if not summands:
        raise ValueError("need at least one summand")
    f0 = summands[0]
    grid, J = f0.grid, f0.J
    for f in summands:
        if f.grid != grid or f.J != J:
            raise ValueError("summands must share one product grid")
    if eta_cells is None:
        eta_cells = list(range(grid.G))
    aligned = all(float(t) == int(t) for t in eta_cells)

    total = sum(f.values for f in summands)
    base = TensorGridFunction(grid, J, total)
    rhs = base.lp_norm(p) ** p

    acc = 0.0
    for t in eta_cells:
        # Block j (0-based) is shifted by N^(j+1) * eta.
        cells = [t * N ** (j + 1) for j in range(J)]
        shifted = sum(_shift_blocks(f, cells) for f in summands)
        acc += TensorGridFunction(grid, J, shifted).lp_norm(p) ** p
    lhs = acc / len(eta_cells)
    return ShearCheck(lhs=lhs, rhs=rhs, aligned=aligned)


def p2_lift_bound_check(phis, M: MultiplierSymbol, blocks=None,
                      tol: float = 1e-10) -> tuple[float, float]:
    """Exact p = 2 form of the tensor-lift inequality.

    Returns (||sum_k T^k phi_k||_2, ||M||_{2->2} * ||sum_k phi_k||_2) and
    asserts lhs <= rhs + tol; the p = 2 operator norm is closed form, so
    this inequality is checkable without any search.
    """
    if blocks is None:
        blocks = list(range(len(phis)))
    f0 = phis[0]
    lifted = [tensor_lift_apply(phi, M, k) for phi, k in zip(phis, blocks)]
    lhs = TensorGridFunction(f0.grid, f0.J,
                             sum(t.values for t in lifted)).lp_norm(2.0)
    norm = l2_operator_norm(M, f0.grid.G)
    rhs = norm * TensorGridFunction(f0.grid, f0.J,
                                    sum(f.values for f in phis)).lp_norm(2.0)
    if lhs > rhs + tol:
        raise AssertionError(f"tensor-lift bound violated: {lhs} > {rhs} + {tol}")
    return lhs, rhs
