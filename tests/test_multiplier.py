"""Discrete multiplier application: eigen-monomials, ratios, cross paths."""

import numpy as np
import pytest

from lpmult.catalog import beurling_matrix, beurling_real, family_symbol, identity_symbol
from lpmult.exponents import ExponentConfig
from lpmult.grid import TorusGrid, from_coefficients
from lpmult.symbols import MultiplierSymbol
from lpmult.tensor import TensorGridFunction, tensor_lift_apply

from torus import mesh


def operator_ratio(f, M, exps):
    """||T_M f||_{p0} / ||f||_p on the grid, with M acting in block 0."""
    den = f.lp_norm(exps.p)
    if den == 0.0:
        raise ZeroDivisionError("input function has zero Lp norm")
    return tensor_lift_apply(f, M, 0).lp_norm(exps.p0) / den


def l2_operator_norm(M, G):
    """Exact L2 -> L2 norm of a scalar or matrix symbol: the largest |value|
    or singular value over the lattice [-G/2, G/2)^d."""
    vals = M.evaluate(TorusGrid(M.d, G).frequency_mesh())
    if M.m == 1:
        return float(np.max(np.abs(vals)))
    return float(np.max(np.linalg.norm(vals, ord=2, axis=(-2, -1))))


def _beurling_cm(xi):
    """[[mR, -mI], [mI, mR]](xi): B in the complex-multiplication representation."""
    mr = beurling_real().evaluator(xi)
    mi = family_symbol("beurling-imag").evaluator(xi)
    return np.stack([np.stack([mr, -mi], axis=-1), np.stack([mi, mr], axis=-1)], axis=-2)


_BEURLING_CM = MultiplierSymbol(d=2, evaluator=_beurling_cm, m=2, name="beurling-matrix-cm")


def complex_vs_matrix_path(f, p: float = 2.0) -> tuple[float, float]:
    """L^p norm of the Beurling action computed two ways; equal to 1e-10.

    Complex path: multiply f-hat by the scalar symbol and take the L^p norm.
    Matrix path: split f = u + iv into real and imaginary parts, apply the
    2x2 matrix symbol to (u-hat, v-hat)^T, and take the L^p norm of the
    resulting pair.  The matrix acts in the complex-multiplication
    representation [[mR, -mI], [mI, mR]], the unitary conjugate (by
    diag(1, -1)) of the printed matrix: both have the same operator norm, but
    only this one reproduces the scalar action componentwise, so the
    pointwise C^2 norm equals |T_B f| exactly.
    """
    if f.m != 0:
        raise ValueError("complex_vs_matrix_path takes a scalar function")
    scalar = tensor_lift_apply(f, family_symbol("beurling"), 0)
    pair = TensorGridFunction(f.grid, 1, np.stack([f.values.real, f.values.imag], axis=-1))
    return scalar.lp_norm(p), tensor_lift_apply(pair, _BEURLING_CM, 0).lp_norm(p)


def _monomial(grid, j):
    """The character exp(i (j, theta)) sampled on the grid."""
    return TensorGridFunction(grid, 1, np.exp(1j * (mesh(grid) @ np.asarray(j, dtype=float))))


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
    sym = family_symbol("beurling")
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
        tensor_lift_apply(pair, family_symbol("beurling"), 0)
    with pytest.raises(ValueError):
        tensor_lift_apply(f, beurling_matrix(), 0)


def test_operator_ratio_monomial():
    grid = TorusGrid(2, 8)
    f = _monomial(grid, (0, 1))
    assert operator_ratio(f, family_symbol("beurling"),
                          ExponentConfig(4.0)) == pytest.approx(1.0)
    zero = TensorGridFunction(grid, 1, np.zeros((8, 8)))
    with pytest.raises(ZeroDivisionError):
        operator_ratio(zero, family_symbol("beurling"), ExponentConfig(4.0))


def test_l2_operator_norm_unimodular():
    assert l2_operator_norm(family_symbol("beurling"), 8) == pytest.approx(1.0)
    assert l2_operator_norm(beurling_matrix(), 8) == pytest.approx(1.0)


def test_l2_ratio_never_exceeds_norm():
    rng = np.random.default_rng(np.random.PCG64(1))
    grid = TorusGrid(2, 8)
    exps = ExponentConfig(2.0)
    norm = l2_operator_norm(family_symbol("beurling"), grid.G)
    for _ in range(20):
        f = _band_limited_random(grid, rng)
        assert operator_ratio(f, family_symbol("beurling"), exps) <= norm + 1e-10


def test_complex_vs_matrix_path_monomial():
    grid = TorusGrid(2, 8)
    f = _monomial(grid, (0, 1))
    a, b = complex_vs_matrix_path(f, 2.0)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert b == pytest.approx(1.0, abs=1e-12)


def test_complex_vs_matrix_path_real_input():
    grid = TorusGrid(2, 8)
    theta = mesh(grid)
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
