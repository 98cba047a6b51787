"""Offset sampling grids on the torus and the centered-lattice FFT.

The grid on [-pi, pi)^d is shifted by half a cell so that no sample lands on
theta = 0 or theta = -pi.  Sign functions along a coordinate axis are then
exactly +-1 with exact zero mean, which keeps the witness eigenrelations
exact instead of approximate.  Functions sampled on these grids, one
torus or a product of tori, are ``tensor.TensorGridFunction``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def frequency_mesh(self) -> np.ndarray:
        """Centered lattice frequencies as an array of shape (G,)*d + (d,)."""
        axes = np.meshgrid(*([self.frequencies_1d] * self.d), indexing="ij")
        return np.stack(axes, axis=-1).astype(float)


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
