"""Offset grid geometry, FFT coefficient round trips, and Lp norms."""

import numpy as np
import pytest

from lpmult.grid import TorusGrid, coefficients, from_coefficients
from lpmult.tensor import TensorGridFunction

from torus import mesh


def _monomial(grid, j):
    """The character exp(i (j, theta)) sampled on the grid."""
    return TensorGridFunction(grid, 1, np.exp(1j * (mesh(grid) @ np.asarray(j, dtype=float))))


def test_points_avoid_zero_and_minus_pi():
    for G in (2, 4, 8, 16):
        grid = TorusGrid(2, G)
        pts = grid.points_1d
        assert np.all(np.abs(pts) > 1e-12)
        assert np.all(np.abs(pts + np.pi) > 1e-12)
        assert pts[0] == pytest.approx(-np.pi + np.pi / G)


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(0, 4)
    with pytest.raises(ValueError):
        TorusGrid(2, 3)
    with pytest.raises(ValueError):
        TorusGrid(2, 0)


def test_frequencies_centered():
    grid = TorusGrid(1, 8)
    assert list(grid.frequencies_1d) == [-4, -3, -2, -1, 0, 1, 2, 3]


def test_monomial_coefficients_are_delta():
    grid = TorusGrid(2, 8)
    f = _monomial(grid, (2, -3))
    c = coefficients(f.values, grid, (0, 1))
    k1 = 2 + grid.G // 2
    k2 = -3 + grid.G // 2
    expected = np.zeros((grid.G, grid.G), dtype=complex)
    expected[k1, k2] = 1.0
    assert np.max(np.abs(c - expected)) < 1e-13


def test_coefficient_round_trip():
    rng = np.random.default_rng(np.random.PCG64(0))
    grid = TorusGrid(2, 8)
    vals = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    c = coefficients(vals, grid, (0, 1))
    back = from_coefficients(c, grid, (0, 1))
    assert np.max(np.abs(back - vals)) < 1e-12


def test_partial_axis_transform_round_trip():
    rng = np.random.default_rng(np.random.PCG64(1))
    grid = TorusGrid(1, 4)
    vals = rng.standard_normal((4, 4, 4)) + 0j
    c = coefficients(vals, grid, (1,))
    back = from_coefficients(c, grid, (1,))
    assert np.max(np.abs(back - vals)) < 1e-12


def test_lp_norm_monomial_is_one():
    grid = TorusGrid(2, 8)
    f = _monomial(grid, (1, 0))
    for p in (1.0, 2.0, 4.0):
        assert f.lp_norm(p) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_rejects_small_p():
    grid = TorusGrid(1, 4)
    f = TensorGridFunction(grid, 1, np.ones(4))
    with pytest.raises(ValueError):
        f.lp_norm(0.5)


def test_vector_valued_pointwise_norm():
    grid = TorusGrid(1, 4)
    vals = np.zeros((4, 2), dtype=complex)
    vals[:, 0] = 3.0
    vals[:, 1] = 4.0
    f = TensorGridFunction(grid, 1, vals)
    assert f.m == 2
    assert f.lp_norm(4.0) == pytest.approx(5.0)


def test_shape_mismatch_rejected():
    grid = TorusGrid(2, 4)
    with pytest.raises(ValueError):
        TensorGridFunction(grid, 1, np.ones((4, 6)))
    with pytest.raises(ValueError):
        TensorGridFunction(grid, 1, np.array([[np.inf] * 4] * 4))

