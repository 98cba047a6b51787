"""Functions on product tori, the one discrete multiplier, and shear checks.

A ``TensorGridFunction`` samples a scalar or C^m-valued function on
(T^d)^J; J = 1 is a plain function on T^d.  ``tensor_lift_apply`` applies
a multiplier symbol in one block k, which for J = 1, k = 0 is the ordinary
discrete Fourier multiplier on the centered lattice [-G/2, G/2)^d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TorusGrid, coefficients, from_coefficients
from .catalog import MultiplierSymbol

POINT_CAP = 2**24


def check_grid_size(grid: TorusGrid, J: int) -> None:
    """Refuse a product (T^d)^J with no block or with more than POINT_CAP points."""
    if J < 1:
        raise ValueError("need at least one block")
    points = grid.G ** (grid.d * J)
    if points > POINT_CAP:
        raise ValueError(f"total point count {points} exceeds cap {POINT_CAP}")


def check_norm_exponent(p: float) -> None:
    """Refuse an L^p exponent below 1 (NaN included)."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")


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
        check_grid_size(self.grid, J)
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
        check_norm_exponent(p)
        v = self.values
        n2 = v.real**2
        n2 += v.imag**2
        if self.m:
            n2 = n2.sum(axis=-1)
        return float(np.mean(n2 ** (p / 2)) ** (1.0 / p))


def tensor_lift_apply(phi: TensorGridFunction, M: MultiplierSymbol,
                      k: int) -> TensorGridFunction:
    """Multiply each joint Fourier coefficient by M(j_k); other blocks untouched.

    Frequencies are taken in [-G/2, G/2)^d.  A scalar symbol (m = 1) acts on
    a scalar function and an m x m matrix symbol on a C^m-valued one; both
    keep the value shape.  The FFT runs over the axes of block k only.
    """
    if M.d != phi.grid.d:
        raise ValueError(f"block dimension {phi.grid.d} != symbol dimension {M.d}")
    if M.m == 1 and phi.m != 0:
        raise ValueError(f"scalar symbols act on scalar functions, got m={phi.m}")
    if M.m > 1 and phi.m != M.m:
        raise ValueError(f"matrix symbol needs C^{M.m}-valued input, got m={phi.m}")
    axes = phi.block_axes(k)  # refuses k out of range

    grid, d, J = phi.grid, phi.grid.d, phi.J
    m = max(phi.m, 1)
    c = coefficients(phi.values.reshape((grid.G,) * (d * J) + (m,)), grid, axes)
    # A scalar symbol acts as a 1 x 1 matrix per frequency of block k.
    on_block = (1,) * (d * k) + (grid.G,) * d + (1,) * (d * (J - k - 1))
    sym = M.evaluate(grid.frequency_mesh()).reshape(on_block + (m, m))
    out = from_coefficients(np.einsum("...ij,...j->...i", sym, c), grid, axes)
    return TensorGridFunction(grid, J, out[..., 0] if M.m == 1 else out)


@dataclass(frozen=True)
class ShearCheck:
    lhs: float        # eta-average of ||sum_k f^k_eta||_p^p
    rhs: float        # ||sum_k f_k||_p^p
    aligned: bool = True  # every shift is a whole number of grid cells


def shear_norm_check(summands, N: int, p: float) -> ShearCheck:
    """Both sides of the shear identity for f^k_eta(theta) = f_k(theta_j + N^j eta).

    eta runs over the G multiples 0..G-1 of the grid spacing, so every shift
    is a whole number of cells and permutes the sample points: the two
    sides agree to rounding.  The shifts depend on the block, not on the
    summand, so the shifted sum is the sum shifted, bit for bit.
    """
    if not summands:
        raise ValueError("need at least one summand")
    f0 = summands[0]
    grid, J = f0.grid, f0.J
    for f in summands:
        if f.grid != grid or f.J != J:
            raise ValueError("summands must share one product grid")

    total = sum(f.values for f in summands)
    rhs = TensorGridFunction(grid, J, total).lp_norm(p) ** p

    acc = 0.0
    for t in range(grid.G):
        # Block j (0-based) is shifted by N^(j+1) * eta along each of its d
        # axes; a trailing component axis does not move.
        cells = [-t * N ** (j + 1) % grid.G for j in range(J) for _ in range(grid.d)]
        shifted = np.roll(total, cells, axis=tuple(range(grid.d * J)))
        acc += TensorGridFunction(grid, J, shifted).lp_norm(p) ** p
    return ShearCheck(lhs=acc / grid.G, rhs=rhs)
