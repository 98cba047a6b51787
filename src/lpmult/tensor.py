"""Functions on product tori, the one discrete multiplier, and shear checks.

A ``TensorGridFunction`` samples a scalar or C^m-valued function on
(T^d)^J; J = 1 is a plain function on T^d.  ``tensor_lift_apply`` applies
a multiplier symbol in one block k, which for J = 1, k = 0 is the ordinary
discrete Fourier multiplier on the centered lattice [-G/2, G/2)^d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentConfig
from .grid import TorusGrid, coefficients, from_coefficients
from .symbols import MultiplierSymbol

__all__ = [
    "TensorGridFunction",
    "tensor_lift_apply",
    "operator_ratio",
    "l2_operator_norm",
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
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function has non-finite entries")

    @property
    def m(self) -> int:
        """Component count; 0 marks a scalar function."""
        return 0 if self.values.ndim == self.grid.d * self.J else self.values.shape[-1]

    def block_axes(self, k: int) -> tuple[int, ...]:
        if not 0 <= k < self.J:
            raise ValueError(f"block index {k} out of range 0..{self.J - 1}")
        d = self.grid.d
        return tuple(range(d * k, d * k + d))

    def lp_norm(self, p: float) -> float:
        """(mean over grid points of ||f(theta)||^p)^(1/p), normalized measure."""
        if not p >= 1:
            raise ValueError(f"p must be >= 1, got {p}")
        v = self.values
        n2 = v.real**2
        n2 += v.imag**2
        if self.m:
            n2 = n2.sum(axis=-1)
        return float(np.mean(n2 ** (p / 2)) ** (1.0 / p))


def tensor_lift_apply(phi: TensorGridFunction, M: MultiplierSymbol,
                      k: int) -> TensorGridFunction:
    """Multiply each joint Fourier coefficient by M(j_k); other blocks untouched.

    Frequencies are taken in [-G/2, G/2)^d.  A scalar or matrix symbol
    keeps the value shape; a vector symbol maps a scalar function to a
    C^m-valued one.  The FFT runs over the axes of block k only.
    """
    if M.d != phi.grid.d:
        raise ValueError(f"block dimension {phi.grid.d} != symbol dimension {M.d}")
    if M.shape in ("scalar", "vector") and phi.m != 0:
        raise ValueError(f"{M.shape} symbols act on scalar functions, got m={phi.m}")
    if M.shape == "matrix" and phi.m != M.m:
        raise ValueError(f"matrix symbol needs C^{M.m}-valued input, got m={phi.m}")
    axes = phi.block_axes(k)  # refuses k out of range

    grid, d, J = phi.grid, phi.grid.d, phi.J
    m_in = max(phi.m, 1)
    m_out = 1 if M.shape == "scalar" else M.m
    c = coefficients(phi.values.reshape((grid.G,) * (d * J) + (m_in,)), grid, axes)
    # Every symbol shape acts as an (m_out x m_in) matrix per frequency of block k.
    on_block = (1,) * (d * k) + (grid.G,) * d + (1,) * (d * (J - k - 1))
    sym = M.evaluate(grid.frequency_mesh()).reshape(on_block + (m_out, m_in))
    out = from_coefficients(np.einsum("...ij,...j->...i", sym, c), grid, axes)
    return TensorGridFunction(grid, J, out[..., 0] if M.shape == "scalar" else out)


def operator_ratio(f: TensorGridFunction, M: MultiplierSymbol, exps: ExponentConfig) -> float:
    """||T_M f||_{p0} / ||f||_p on the grid, with M acting in block 0."""
    den = f.lp_norm(exps.p)
    if den == 0.0:
        raise ZeroDivisionError("input function has zero Lp norm")
    return tensor_lift_apply(f, M, 0).lp_norm(exps.p0) / den


def l2_operator_norm(M: MultiplierSymbol, G: int) -> float:
    """Exact L2 -> L2 norm: max pointwise operator norm over [-G/2, G/2)^d."""
    grid = TorusGrid(M.d, G)
    return float(np.max(M.pointwise_operator_norm(grid.frequency_mesh())))


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
