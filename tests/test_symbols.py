"""Symbol evaluation, the concrete catalog, and target-constant formulas."""

import math

import numpy as np
import pytest

from lpmult.catalog import (OperatorFamilyParam, beurling, beurling_imag,
                            beurling_matrix, beurling_real, family_symbol,
                            identity_symbol, rotated, target_constant,
                            tau_admissible, vector_perturbation)
from lpmult.exponents import ExponentConfig
from lpmult.symbols import MultiplierSymbol


def homogeneity_defect(sym: MultiplierSymbol, rng: np.random.Generator,
                       samples: int = 64) -> float:
    """Max deviation |sym(lam*xi) - sym(xi)| over random directions and scales."""
    xi = rng.standard_normal((samples, sym.d))
    lam = rng.uniform(0.1, 10.0, size=(samples, 1))
    a = sym.evaluate(xi)
    b = sym.evaluate(lam * xi)
    return float(np.max(np.abs(a - b)))


def test_beurling_symbol_values():
    assert beurling().evaluate((1.0, 0.0)) == pytest.approx(-1.0)
    assert beurling().evaluate((0.0, 1.0)) == pytest.approx(1.0)
    assert beurling().evaluate((1.0, 1.0)) == pytest.approx(1j)


def test_beurling_unimodular_and_even():
    rng = np.random.default_rng(np.random.PCG64(0))
    xi = rng.standard_normal((256, 2))
    vals = beurling().evaluate(xi)
    assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12
    assert np.max(np.abs(beurling().evaluate(-xi) - vals)) < 1e-12


def test_beurling_matrix_examples():
    assert np.allclose(beurling_matrix().evaluate((0.0, 1.0)), np.eye(2), atol=1e-14)
    assert np.allclose(beurling_matrix().evaluate((1.0, 0.0)), -np.eye(2), atol=1e-14)
    assert np.allclose(beurling_matrix().evaluate((1.0, 1.0)),
                       np.array([[0.0, 1.0], [-1.0, 0.0]]), atol=1e-14)


def test_beurling_matrix_is_rotation():
    rng = np.random.default_rng(np.random.PCG64(1))
    xi = rng.standard_normal((128, 2))
    M = beurling_matrix().evaluate(xi)
    eye = np.broadcast_to(np.eye(2), M.shape)
    assert np.max(np.abs(M @ np.conj(np.swapaxes(M, -1, -2)) - eye)) < 1e-12
    assert np.max(np.abs(np.linalg.det(M) - 1.0)) < 1e-12


def test_rotated_symbol_values_and_range():
    assert rotated(0.0).evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0)
    assert rotated(math.pi / 2).evaluate(np.array([1.0, 1.0])) == pytest.approx(1.0)
    theta = 0.7
    phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    xi = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    vals = rotated(theta).evaluate(xi).real
    assert np.max(np.abs(vals)) <= 1.0 + 1e-12
    assert np.max(vals) >= 1.0 - 1e-6
    half = np.array([np.cos(theta / 2), np.sin(theta / 2)])
    assert rotated(theta).evaluate(half) == pytest.approx(1.0)


def test_rotation_reduction_to_beurling_real():
    # Im B(xi) = Re B(R_{pi/4} xi) and rotated(theta)(xi) = -Re B(R_{-theta/2} xi).
    rng = np.random.default_rng(np.random.PCG64(7))
    xi = rng.standard_normal((1000, 2))

    def re_b_rotated(a):
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        return beurling_real().evaluate(xi @ rot.T)

    assert np.max(np.abs(beurling_imag().evaluate(xi) - re_b_rotated(math.pi / 4))) <= 1e-14
    for theta in (0.0, 0.3, 0.7, -2.0, math.pi / 2):
        err = np.max(np.abs(rotated(theta).evaluate(xi) + re_b_rotated(-theta / 2)))
        assert err <= 1e-14


def test_family_symbol_examples():
    f0 = family_symbol(OperatorFamilyParam(family="F", z=0.0))
    assert f0.evaluate(np.array([1.0, 0.0])) == pytest.approx(1.0)
    scaled = family_symbol(OperatorFamilyParam(family="scaled", c=2.0))
    assert scaled.evaluate(np.array([1.0, 0.0])) == pytest.approx(2.0)
    fi = family_symbol(OperatorFamilyParam(family="F", z=1j))
    assert fi.evaluate(np.array([1.0, 1.0])) == pytest.approx(1j)

    # Every scalar family against its printed quotient.
    rng = np.random.default_rng(np.random.PCG64(11))
    xi = rng.standard_normal((1000, 2))
    x1, x2 = xi[:, 0], xi[:, 1]
    r2 = x1 * x1 + x2 * x2
    printed = [
        (beurling(), ((x2 * x2 - x1 * x1) + 2j * x1 * x2) / r2),
        (beurling_real(), (x2 * x2 - x1 * x1) / r2),
        (beurling_imag(), 2.0 * x1 * x2 / r2),
    ]
    for theta in (0.0, 0.3, 0.7, -2.0, math.pi / 2):
        printed.append((family_symbol(OperatorFamilyParam(family="rotated", theta=theta)),
                        ((x1 * x1 - x2 * x2) * math.cos(theta)
                         + 2.0 * x1 * x2 * math.sin(theta)) / r2))
    for c in (0.5, 2.0):
        printed.append((family_symbol(OperatorFamilyParam(family="scaled", c=c)),
                        (c * (x1 * x1 - x2 * x2) + 2j * x1 * x2) / r2))
    for z in (0.0, 1.0, 2j):
        printed.append((family_symbol(OperatorFamilyParam(family="F", z=z)),
                        ((x1 * x1 - x2 * x2) + 2.0 * z * x1 * x2) / r2))
    for sym, want in printed:
        assert np.max(np.abs(sym.evaluate(xi) - want)) <= 1e-14, sym.name

    # The witness needs Re B exactly +1 on the theta_2 axis and -1 on the theta_1 axis.
    axes = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])
    assert np.array_equal(beurling_real().evaluate(axes), [1.0, 1.0, -1.0, -1.0])


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        OperatorFamilyParam(family="hilbert")
    with pytest.raises(ValueError):
        OperatorFamilyParam(family="rotated", theta=float("nan"))


def test_zero_frequency_masked():
    sym = beurling()
    xi = np.array([[0.0, 0.0], [1.0, 0.0]])
    vals = sym.evaluate(xi)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(-1.0)


def test_identity_symbol_is_total():
    sym = identity_symbol(2)
    assert sym.evaluate(np.array([0.0, 0.0])) == pytest.approx(1.0)


def test_homogeneity():
    rng = np.random.default_rng(np.random.PCG64(2))
    for sym in (beurling(), beurling_real(), beurling_imag(), rotated(0.3)):
        assert homogeneity_defect(sym, rng) < 1e-12


def test_vector_perturbation_shape():
    sym = vector_perturbation(beurling_real(), 0.5)
    val = sym.evaluate(np.array([0.0, 1.0]))
    assert val.shape == (2,)
    assert val[0] == pytest.approx(1.0)
    assert val[1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        vector_perturbation(beurling_matrix(), 0.5)


def test_pointwise_operator_norm_shapes():
    rng = np.random.default_rng(np.random.PCG64(3))
    xi = rng.standard_normal((16, 2))
    assert np.allclose(beurling().pointwise_operator_norm(xi), 1.0)
    assert np.allclose(beurling_matrix().pointwise_operator_norm(xi), 1.0, atol=1e-12)
    v = vector_perturbation(beurling_real(), 0.5)
    norms = v.pointwise_operator_norm(xi)
    assert np.all(norms <= math.hypot(1.0, 0.5) + 1e-12)


def test_bad_symbol_shape_rejected():
    with pytest.raises(ValueError):
        MultiplierSymbol(d=2, shape="tensor", evaluator=lambda xi: xi)


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
    assert target_constant(OperatorFamilyParam(family="beurling"), e4).family_target \
        == pytest.approx(3.0)
    vec = target_constant(OperatorFamilyParam(family="vector", tau=1.0), e4, tau=1.0)
    assert vec.family_target == pytest.approx(math.sqrt(10.0))
    fz = target_constant(OperatorFamilyParam(family="F", z=1.0), e4)
    assert fz.family_target == pytest.approx(3.0 * math.sqrt(2.0))
    assert not fz.external_assumption
    small = target_constant(OperatorFamilyParam(family="scaled", c=0.5), e4)
    big = target_constant(OperatorFamilyParam(family="scaled", c=2.0), e4)
    assert small.family_target == pytest.approx(3.0)
    assert big.family_target == pytest.approx(6.0)
    assert small.external_assumption and big.external_assumption
    fi = target_constant(OperatorFamilyParam(family="F", z=2j), e4)
    assert fi.family_target == pytest.approx(6.0)
    assert fi.external_assumption


def test_target_duality_symmetry():
    for fam in ("beurling", "rotated", "scaled", "F"):
        for p in (1.5, 3.0, 4.0):
            e = ExponentConfig(p)
            dual = ExponentConfig(e.q)
            param = OperatorFamilyParam(family=fam, theta=0.4, c=1.5, z=1.0)
            a = target_constant(param, e).family_target
            b = target_constant(param, dual).family_target
            assert a == pytest.approx(b, abs=1e-12)


def test_target_errors():
    e4 = ExponentConfig(4.0)
    with pytest.raises(ValueError):
        target_constant(OperatorFamilyParam(family="scaled", c=0.0), e4)
    with pytest.raises(ValueError):
        target_constant(OperatorFamilyParam(family="F", z=1.0 + 1.0j), e4)
    with pytest.raises(ValueError):
        target_constant(OperatorFamilyParam(family="riesz"), e4)
    with pytest.raises(ValueError):
        target_constant(OperatorFamilyParam(family="vector"), ExponentConfig(4.0, 2.0))
