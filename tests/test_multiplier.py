"""Discrete multiplier application: eigen-monomials, ratios, cross paths."""

import numpy as np
import pytest

from lpmult.catalog import (beurling, beurling_matrix, complex_vs_matrix_path,
                            identity_symbol)
from lpmult.exponents import ExponentConfig
from lpmult.grid import TorusGrid, from_coefficients
from lpmult.tensor import (TensorGridFunction, l2_operator_norm, operator_ratio,
                           tensor_lift_apply)


def _monomial(grid, j):
    """The character exp(i (j, theta)) sampled on the grid."""
    return TensorGridFunction(grid, 1, np.exp(1j * (grid.mesh() @ np.asarray(j, dtype=float))))


def _band_limited_random(grid: TorusGrid, rng) -> TensorGridFunction:
    """Random trigonometric polynomial with no mass on the unpaired -G/2 row."""
    shape = (grid.G,) * grid.d
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for ax in range(grid.d):
        idx = [slice(None)] * grid.d
        idx[ax] = 0
        c[tuple(idx)] = 0.0
    return TensorGridFunction(grid, 1, from_coefficients(c, grid, tuple(range(grid.d))))


def test_monomials_are_eigenfunctions():
    grid = TorusGrid(2, 8)
    sym = beurling()
    for j in ((1, 0), (0, 1), (2, 3), (-1, 2)):
        f = _monomial(grid, j)
        g = tensor_lift_apply(f, sym, 0)
        lam = sym.evaluate(np.asarray(j, dtype=float))
        assert np.max(np.abs(g.values - lam * f.values)) < 1e-12


def test_identity_symbol_acts_trivially():
    rng = np.random.default_rng(np.random.PCG64(0))
    grid = TorusGrid(2, 8)
    f = TensorGridFunction(grid, 1,
                           rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    g = tensor_lift_apply(f, identity_symbol(2), 0)
    assert np.max(np.abs(g.values - f.values)) < 1e-12


def test_shape_mismatches_rejected():
    grid = TorusGrid(2, 4)
    f = TensorGridFunction(grid, 1, np.ones((4, 4)))
    pair = TensorGridFunction(grid, 1, np.ones((4, 4, 2)))
    with pytest.raises(ValueError):
        tensor_lift_apply(pair, beurling(), 0)
    with pytest.raises(ValueError):
        tensor_lift_apply(f, beurling_matrix(), 0)


def test_operator_ratio_monomial():
    grid = TorusGrid(2, 8)
    f = _monomial(grid, (0, 1))
    assert operator_ratio(f, beurling(), ExponentConfig(4.0)) == pytest.approx(1.0)
    zero = TensorGridFunction(grid, 1, np.zeros((8, 8)))
    with pytest.raises(ZeroDivisionError):
        operator_ratio(zero, beurling(), ExponentConfig(4.0))


def test_l2_operator_norm_unimodular():
    assert l2_operator_norm(beurling(), 8) == pytest.approx(1.0)
    assert l2_operator_norm(beurling_matrix(), 8) == pytest.approx(1.0)


def test_l2_ratio_never_exceeds_norm():
    rng = np.random.default_rng(np.random.PCG64(1))
    grid = TorusGrid(2, 8)
    exps = ExponentConfig(2.0)
    norm = l2_operator_norm(beurling(), grid.G)
    for _ in range(20):
        f = _band_limited_random(grid, rng)
        assert operator_ratio(f, beurling(), exps) <= norm + 1e-10


def test_complex_vs_matrix_path_monomial():
    grid = TorusGrid(2, 8)
    f = _monomial(grid, (0, 1))
    a, b = complex_vs_matrix_path(f, 2.0)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_complex_vs_matrix_path_real_input():
    grid = TorusGrid(2, 8)
    theta = grid.mesh()
    f = TensorGridFunction(grid, 1, np.cos(theta[..., 0]) + np.cos(2 * theta[..., 1]))
    for p in (2.0, 4.0):
        a, b = complex_vs_matrix_path(f, p)
        assert a == pytest.approx(b, abs=1e-10)


def test_complex_vs_matrix_path_random():
    rng = np.random.default_rng(np.random.PCG64(2))
    grid = TorusGrid(2, 16)
    for p in (2.0, 3.0, 4.0):
        f = _band_limited_random(grid, rng)
        a, b = complex_vs_matrix_path(f, p)
        assert a == pytest.approx(b, abs=1e-10)
