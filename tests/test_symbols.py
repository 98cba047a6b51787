"""Symbol evaluation, the concrete catalog, and target-constant formulas."""

import math

import numpy as np
import pytest

from lpmult.catalog import (beurling_real, c_tau, family_symbol,
                            identity_symbol, target_constant, tau_admissible)
from lpmult.exponents import ExponentConfig
from lpmult.catalog import MultiplierSymbol


def pointwise_operator_norm(M, xi):
    """|value| of a scalar symbol, largest singular value of a matrix one."""
    vals = M.evaluate(xi)
    if M.m == 1:
        return np.abs(vals)
    return np.linalg.norm(vals, ord=2, axis=(-2, -1))


def homogeneity_defect(sym: MultiplierSymbol, rng: np.random.Generator,
                       samples: int = 64) -> float:
    """Max deviation |sym(lam*xi) - sym(xi)| over random directions and scales."""
    xi = rng.standard_normal((samples, sym.d))
    lam = rng.uniform(0.1, 10.0, size=(samples, 1))
    a = sym.evaluate(xi)
    b = sym.evaluate(lam * xi)
    return float(np.max(np.abs(a - b)))


def test_beurling_symbol_values():
    assert family_symbol("beurling").evaluate((1.0, 0.0)) == pytest.approx(-1.0)
    assert family_symbol("beurling").evaluate((0.0, 1.0)) == pytest.approx(1.0)
    assert family_symbol("beurling").evaluate((1.0, 1.0)) == pytest.approx(1j)


def test_beurling_unimodular_and_even():
    rng = np.random.default_rng(np.random.PCG64(0))
    xi = rng.standard_normal((256, 2))
    vals = family_symbol("beurling").evaluate(xi)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
    assert np.max(np.abs(family_symbol("beurling").evaluate(-xi) - vals)) < 1e-12


def test_beurling_matrix_examples():
    M = family_symbol("beurling-matrix")
    assert np.allclose(M.evaluate((0.0, 1.0)), np.eye(2), atol=1e-14)
    assert np.allclose(M.evaluate((1.0, 0.0)), -np.eye(2), atol=1e-14)
    assert np.allclose(M.evaluate((1.0, 1.0)),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14)


def test_beurling_matrix_is_rotation():
    rng = np.random.default_rng(np.random.PCG64(1))
    xi = rng.standard_normal((128, 2))
    M = family_symbol("beurling-matrix").evaluate(xi)
    eye = np.broadcast_to(np.eye(2), M.shape)
    assert np.max(np.abs(M @ np.conj(np.swapaxes(M, -1, -2)) - eye)) < 1e-12
    assert np.max(np.abs(np.linalg.det(M) - 1.0)) < 1e-12


def test_rotated_symbol_values_and_range():
    assert family_symbol("rotated", 0.0).evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert family_symbol("rotated", math.pi / 2).evaluate(
        np.array([1.0, 1.0])) == pytest.approx(1.0)
    theta = 0.7
    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    xi = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    vals = family_symbol("rotated", theta).evaluate(xi).real
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert np.max(vals) >= 1.0 - 1e-6
    half = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    assert family_symbol("rotated", theta).evaluate(half) == pytest.approx(1.0)


def test_rotation_reduction_to_beurling_real():
    # Im B(xi) = Re B(R_{pi/4} xi) and rotated(theta)(xi) = -Re B(R_{-theta/2} xi).
    rng = np.random.default_rng(np.random.PCG64(7))
    xi = rng.standard_normal((1000, 2))

    def re_b_rotated(a):
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        return beurling_real().evaluate(xi @ rot.T)

    assert np.max(np.abs(family_symbol("beurling-imag").evaluate(xi)
                         - re_b_rotated(math.pi / 4))) <= 1e-14
    for theta in (0.0, 0.3, 0.7, -2.0, math.pi / 2):
        err = np.max(np.abs(family_symbol("rotated", theta).evaluate(xi)
                            + re_b_rotated(-theta / 2)))
        assert err <= 1e-14


def test_family_symbol_examples():
    f0 = family_symbol("F", 0.0)
    assert f0.evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0)
    scaled = family_symbol("scaled", 2.0)
    assert scaled.evaluate(np.array([1.0, 0.0])) == pytest.approx(2.0)
    fi = family_symbol("F", 1j)
    assert fi.evaluate(np.array([1.0, 1.0])) == pytest.approx(1j)
    with pytest.raises(ValueError):
        family_symbol("vector")

    # Every scalar family against its printed quotient.
    rng = np.random.default_rng(np.random.PCG64(11))
    xi = rng.standard_normal((1000, 2))
    x1, x2 = xi[:, 0], xi[:, 1]
    r2 = x1 * x1 + x2 * x2
    printed = [
        (family_symbol("beurling"), ((x2 * x2 - x1 * x1) + 2j * x1 * x2) / r2),
        (beurling_real(), (x2 * x2 - x1 * x1) / r2),
        (family_symbol("beurling-imag"), 2.0 * x1 * x2 / r2),
    ]
    for theta in (0.0, 0.3, 0.7, -2.0, math.pi / 2):
        printed.append((family_symbol("rotated", theta),
                        ((x1 * x1 - x2 * x2) * math.cos(theta)
                         + 2.0 * x1 * x2 * math.sin(theta)) / r2))
    for c in (0.5, 2.0):
        printed.append((family_symbol("scaled", c),
                        (c * (x1 * x1 - x2 * x2) + 2j * x1 * x2) / r2))
    for z in (0.0, 1.0, 2j):
        printed.append((family_symbol("F", z),
                        ((x1 * x1 - x2 * x2) + 2.0 * z * x1 * x2) / r2))
    for sym, want in printed:
        assert np.max(np.abs(sym.evaluate(xi) - want)) <= 1e-14, sym.name

    # The witness needs Re B exactly +1 on the theta_2 axis and -1 on the theta_1 axis.
    axes = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
    assert np.array_equal(beurling_real().evaluate(axes), [1.0, 1.0, -1.0, -1.0])


def test_unknown_family_rejected():
    # Both lookups refuse an unknown family and a non-finite value.
    e4 = ExponentConfig(4.0)
    with pytest.raises(ValueError, match="unknown family 'hilbert'"):
        family_symbol("hilbert")
    with pytest.raises(ValueError, match="unknown family 'hilbert'"):
        target_constant("hilbert", e4)
    with pytest.raises(ValueError, match="family parameters must be finite"):
        family_symbol("rotated", float("nan"))
    with pytest.raises(ValueError, match="family parameters must be finite"):
        target_constant("rotated", e4, float("nan"))


def test_symbol_shape_validation():
    with pytest.raises(ValueError, match="d and m must be positive"):
        MultiplierSymbol(d=0, evaluator=np.ones_like)
    with pytest.raises(ValueError, match="d and m must be positive"):
        MultiplierSymbol(d=2, evaluator=np.ones_like, m=0)
    with pytest.raises(ValueError, match="must end in a length-2 axis"):
        family_symbol("beurling").evaluate(np.ones((4, 3)))


def test_zero_frequency_masked():
    sym = family_symbol("beurling")
    xi = np.array([[0.0, 0.0], [1.0, 0.0]])
    vals = sym.evaluate(xi)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(-1.0)


def test_identity_symbol_is_total():
    sym = identity_symbol(2)
    assert sym.evaluate(np.array([0.0, 0.0])) == pytest.approx(1.0)


def test_homogeneity():
    rng = np.random.default_rng(np.random.PCG64(2))
    for sym in (family_symbol("beurling"), beurling_real(), family_symbol("beurling-imag"),
                family_symbol("rotated", 0.3)):
        assert homogeneity_defect(sym, rng) < 1e-12


def test_pointwise_operator_norm_shapes():
    rng = np.random.default_rng(np.random.PCG64(3))
    xi = rng.standard_normal((16, 2))
    assert np.allclose(pointwise_operator_norm(family_symbol("beurling"), xi), 1.0)
    assert np.allclose(pointwise_operator_norm(family_symbol("beurling-matrix"), xi), 1.0,
                       atol=1e-12)


def test_tau_admissibility():
    e43 = ExponentConfig(4.0 / 3.0)
    assert tau_admissible(e43, 1.0, "def2")       # tau^2 = 1 <= p* - 1 = 3
    assert not tau_admissible(e43, 2.0, "def2")
    assert not tau_admissible(e43, 0.6, "cor7")
    assert tau_admissible(e43, 0.5, "cor7")
    assert tau_admissible(ExponentConfig(4.0), 10.0, "def2")
    with pytest.raises(ValueError):
        tau_admissible(e43, 0.5, "other")


def test_target_constants():
    e4 = ExponentConfig(4.0)
    assert target_constant("beurling", e4)[0] == pytest.approx(3.0)
    vec = target_constant("vector", e4, 1.0)
    assert vec[0] == pytest.approx(math.sqrt(10.0))
    fz = target_constant("F", e4, 1.0)
    assert fz[0] == pytest.approx(3.0 * math.sqrt(2.0))
    assert not fz[1]
    small = target_constant("scaled", e4, 0.5)
    big = target_constant("scaled", e4, 2.0)
    assert small[0] == pytest.approx(3.0)
    assert big[0] == pytest.approx(6.0)
    assert small[1] and big[1]
    fi = target_constant("F", e4, 2j)
    assert fi[0] == pytest.approx(6.0)
    assert fi[1]
    # C^tau itself: tau admissible, else no target.
    assert c_tau(ExponentConfig(4.0), 1.0) == math.hypot(3.0, 1.0)
    e15 = ExponentConfig(1.5)
    assert c_tau(e15, 1.5) is None
    assert c_tau(e15, 0.6, "cor7") is None
    assert c_tau(e15, 0.6, "def2") == math.hypot(2.0, 0.6)
    with pytest.raises(ValueError):
        target_constant("beurling", e4, predicate="other")


def test_target_duality_symmetry():
    for fam, value in (("beurling", 0.0), ("rotated", 0.4), ("scaled", 1.5), ("F", 1.0)):
        for p in (1.5, 3.0, 4.0):
            e = ExponentConfig(p)
            dual = ExponentConfig(e.q)
            a = target_constant(fam, e, value)[0]
            b = target_constant(fam, dual, value)[0]
            assert a == pytest.approx(b, abs=1e-12)


def test_target_errors():
    e4 = ExponentConfig(4.0)
    with pytest.raises(ValueError):
        target_constant("scaled", e4, 0.0)
    with pytest.raises(ValueError):
        target_constant("F", e4, 1.0 + 1.0j)
    with pytest.raises(ValueError):
        target_constant("riesz", e4)
