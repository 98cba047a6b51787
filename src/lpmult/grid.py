"""Offset sampling grids on the torus, complex grid functions, and Lp norms.

The grid on [-pi, pi)^d is shifted by half a cell so that no sample lands on
theta = 0 or theta = -pi.  Sign functions along a coordinate axis are then
exactly +-1 with exact zero mean, which keeps the witness eigenrelations
exact instead of approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TorusGrid", "GridFunction", "lp_norm"]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform offset grid on [-pi, pi)^d with G points per axis (G even)."""

    d: int
    G: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.G < 2 or self.G % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.G}")

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.G

    @property
    def points_1d(self) -> np.ndarray:
        """Sample points -pi + (i + 1/2) * 2pi/G along one axis."""
        return -np.pi + (np.arange(self.G) + 0.5) * self.spacing

    @property
    def frequencies_1d(self) -> np.ndarray:
        """Centered integer frequencies -G/2 .. G/2 - 1 in ascending order."""
        return np.arange(-self.G // 2, self.G // 2)

    def mesh(self) -> np.ndarray:
        """Sample points as an array of shape (G,)*d + (d,)."""
        axes = np.meshgrid(*([self.points_1d] * self.d), indexing="ij")
        return np.stack(axes, axis=-1)

    def frequency_mesh(self) -> np.ndarray:
        """Centered lattice frequencies as an array of shape (G,)*d + (d,)."""
        axes = np.meshgrid(*([self.frequencies_1d] * self.d), indexing="ij")
        return np.stack(axes, axis=-1).astype(float)

    @property
    def npoints(self) -> int:
        return self.G**self.d


def _axis_phase(grid: TorusGrid) -> np.ndarray:
    """Phase factors exp(-i k theta_0) for centered frequencies k on one axis."""
    theta0 = grid.points_1d[0]
    return np.exp(-1j * grid.frequencies_1d * theta0)


def coefficients(values: np.ndarray, grid: TorusGrid, axes: tuple[int, ...]) -> np.ndarray:
    """Fourier coefficients on the centered lattice, along the given sample axes.

    Index 0 along each transformed axis corresponds to frequency -G/2.
    """
    c = np.fft.fftn(values, axes=axes) / (grid.G ** len(axes))
    c = np.fft.fftshift(c, axes=axes)
    phase = _axis_phase(grid)
    for ax in axes:
        shape = [1] * c.ndim
        shape[ax] = grid.G
        c = c * phase.reshape(shape)
    return c


def from_coefficients(c: np.ndarray, grid: TorusGrid, axes: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`coefficients`."""
    phase = _axis_phase(grid)
    vals = np.asarray(c, dtype=complex)
    for ax in axes:
        shape = [1] * vals.ndim
        shape[ax] = grid.G
        vals = vals / phase.reshape(shape)
    vals = np.fft.ifftshift(vals, axes=axes)
    return np.fft.ifftn(vals, axes=axes) * (grid.G ** len(axes))


@dataclass(frozen=True)
class GridFunction:
    """Complex samples on a TorusGrid, scalar or C^m valued.

    Scalar values have shape (G,)*d; vector values carry a trailing
    component axis of length m.
    """

    grid: TorusGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        d, G = self.grid.d, self.grid.G
        if vals.shape[:d] != (G,) * d or vals.ndim not in (d, d + 1):
            raise ValueError(f"values shape {vals.shape} does not match grid (d={d}, G={G})")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function has non-finite entries")

    @property
    def m(self) -> int:
        """Component count; 0 marks a scalar function."""
        return 0 if self.values.ndim == self.grid.d else self.values.shape[-1]

    def coefficients(self) -> np.ndarray:
        return coefficients(self.values, self.grid, tuple(range(self.grid.d)))

    @classmethod
    def from_coefficients(cls, c: np.ndarray, grid: TorusGrid) -> "GridFunction":
        return cls(grid, from_coefficients(c, grid, tuple(range(grid.d))))

    @classmethod
    def monomial(cls, grid: TorusGrid, j) -> "GridFunction":
        """The character exp(i (j, theta)) sampled on the grid."""
        theta = grid.mesh()
        j = np.asarray(j, dtype=float)
        if j.shape != (grid.d,):
            raise ValueError(f"frequency must have length {grid.d}")
        return cls(grid, np.exp(1j * (theta @ j)))

    def pointwise_norm(self) -> np.ndarray:
        if self.m == 0:
            return np.abs(self.values)
        return np.linalg.norm(self.values, axis=-1)


def lp_norm(f: GridFunction, p: float) -> float:
    """(mean over grid points of ||f(theta)||^p)^(1/p), normalized measure."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = f.pointwise_norm()
    return float(np.mean(n**p) ** (1.0 / p))
