"""Gaussian-damped pairing quadrature and multiplier deviation sweeps."""

import math

import numpy as np
import pytest

from lpmult import transference
from lpmult.catalog import beurling_real, family_symbol, identity_symbol
from lpmult.transference import (GaussianPairingConfig, gaussian_damped_pairing,
                                 multiplier_deviation)


def full_mesh_pairing(cfg, M):
    """The pairing as one sum over the 65^d mesh: the window and the
    trapezoid weights built on the whole mesh, not one axis at a time."""
    p0, q0, eps, d = cfg.p0, cfg.q0, cfg.eps, cfg.d
    s = p0 + q0
    j, k = np.asarray(cfg.j), np.asarray(cfg.k)
    center = (p0 * j + q0 * k) / s
    h = math.sqrt(transference._TAIL_LOG * eps / (math.pi * s)) / transference._HALF_NODES
    n = transference._HALF_NODES
    axis = center[:, None] + h * np.arange(-n, n + 1)[None, :]
    xi = np.stack(np.meshgrid(*axis, indexing="ij"), axis=-1)
    weight = np.exp(-math.pi * (p0 * np.sum((xi - j) ** 2, axis=-1)
                                + q0 * np.sum((xi - k) ** 2, axis=-1)) / eps)
    integrand = M.evaluate(xi) * weight
    for ax in range(d):
        w = np.ones(integrand.shape[ax])
        w[0] = w[-1] = 0.5
        shape = [1] * d
        shape[ax] = -1
        integrand = integrand * w.reshape(shape)
    return complex((p0 * q0 / eps) ** (d / 2.0) * (np.sum(integrand) * h**d))


def per_tuple_deviation(M, support, N):
    """The deviation as a loop making two evaluations a tuple."""
    worst = 0.0
    for tup in support:
        ls = [np.asarray(l, dtype=float) for l in tup]
        xi = sum(l / N ** (len(ls) - 1 - i) for i, l in enumerate(ls))
        diff = M.evaluate(xi) - M.evaluate(ls[-1])
        worst = max(worst, abs(complex(diff)) if M.m == 1 else float(np.linalg.norm(diff, ord=2)))
    return worst


def test_config_validation():
    with pytest.raises(ValueError):
        GaussianPairingConfig(d=2, j=(0,), k=(0, 1), eps=0.1)
    with pytest.raises(ValueError):
        GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=-1.0)
    with pytest.raises(ValueError):
        GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=0.1, p0=1.0)


def test_identity_pairing_is_one():
    sym = identity_symbol(2)
    for eps in (1.0, 0.25, 2.0**-6):
        cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=eps)
        val = gaussian_damped_pairing(cfg, sym)
        assert val == pytest.approx(1.0, abs=1e-8)


def test_off_diagonal_pairing_decays():
    sym = identity_symbol(2)
    cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(1, 1), eps=0.05)
    val = gaussian_damped_pairing(cfg, sym)
    # The Gaussian-product mass is exp(-pi |j - k|^2 / eps).
    assert abs(val) < 1e-6
    assert abs(val) <= math.exp(-math.pi / 0.05) * 10 + 1e-20


def test_mr_pairing_converges_to_symbol_value():
    sym = beurling_real()
    errors = []
    for halving in range(11):
        eps = 2.0**-halving
        cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=eps)
        val = gaussian_damped_pairing(cfg, sym)
        errors.append(abs(val - 1.0))
    assert errors[-1] < 1e-3
    assert all(a >= b for a, b in zip(errors[3:], errors[4:]))


@pytest.mark.parametrize("p0", [2.0, 1.5])
@pytest.mark.parametrize("eps", [1.0, 2.0**-5, 2.0**-10])
@pytest.mark.parametrize("sym, j, k", [
    (identity_symbol(1), (1,), (1,)),
    (identity_symbol(1), (1,), (2,)),
    (identity_symbol(2), (0, 1), (0, 1)),
    (identity_symbol(2), (0, 1), (1, -1)),
    (identity_symbol(3), (2, 0, -1), (2, 0, -1)),
    (identity_symbol(3), (2, 0, -1), (1, 0.5, -1.25)),
    (beurling_real(), (0, 1), (0, 1)),
    (beurling_real(), (1, 2), (1, 2)),
    (beurling_real(), (0, 1), (1, 1)),
    (beurling_real(), (1, -1), (0.5, -0.25)),
])
def test_pairing_matches_full_mesh_reference(sym, j, k, eps, p0):
    cfg = GaussianPairingConfig(d=len(j), j=j, k=k, eps=eps, p0=p0)
    ref = full_mesh_pairing(cfg, sym)
    assert abs(gaussian_damped_pairing(cfg, sym) - ref) <= 1e-15 * max(1.0, abs(ref))


@pytest.mark.parametrize("N", [1, 3, 10, 80])
@pytest.mark.parametrize("family", ["beurling-real", "beurling-matrix"])
def test_deviation_matches_per_tuple_loop_bit_for_bit(family, N):
    sym = family_symbol(family)
    support = [((1, 2),), ((1, 0), (0, 1)), ((-3, 2), (2, 1), (1, -1)), ((0, -2),),
               ((2, -3), (-1, 0)), ((5, 1), (-2, 4), (3, 3), (0, 1))]
    assert multiplier_deviation(sym, support, N) == per_tuple_deviation(sym, support, N)


def test_pairing_refuses_a_symbol_of_another_dimension():
    cfg = GaussianPairingConfig(d=1, j=(0,), k=(0,), eps=0.1)
    with pytest.raises(ValueError, match="symbol dimension 2 != config dimension 1"):
        gaussian_damped_pairing(cfg, identity_symbol(2))


def test_non_scalar_symbol_pairing_is_refused():
    # A matrix symbol paired from a against b is the scalar symbol
    # sum_ij conj(b_i) M_ij a_j.
    cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=0.1)
    with pytest.raises(ValueError):
        gaussian_damped_pairing(cfg, family_symbol("beurling-matrix"))


def test_mr_deviation_values():
    sym = beurling_real()
    support = [((1.0, 0.0), (0.0, 1.0))]
    assert multiplier_deviation(sym, support, 10) == pytest.approx(0.019802, abs=1e-6)
    assert multiplier_deviation(sym, support, 20) == pytest.approx(0.0049875, abs=1e-6)


def test_deviation_quarter_ratio():
    sym = beurling_real()
    support = [((1.0, 0.0), (0.0, 1.0))]
    d10 = multiplier_deviation(sym, support, 10)
    d20 = multiplier_deviation(sym, support, 20)
    d40 = multiplier_deviation(sym, support, 40)
    assert 3.8 <= d10 / d20 <= 4.2
    assert 3.8 <= d20 / d40 <= 4.2


def test_matrix_deviation_matches_scalar_beurling():
    # [[a, b], [-b, a]] has both singular values |a + ib|, so the matrix form's
    # spectral-norm deviation is the scalar B's modulus deviation.
    support = [((1, 0), (0, 1)), ((2, 1), (1, -1)), ((0, 1), (1, 0), (-1, 2))]
    for N in (1, 3, 10, 80):
        mat = multiplier_deviation(family_symbol("beurling-matrix"), support, N)
        sca = multiplier_deviation(family_symbol("beurling"), support, N)
        assert mat == pytest.approx(sca, rel=1e-14, abs=0)


def test_deviation_validation():
    sym = beurling_real()
    with pytest.raises(ValueError):
        multiplier_deviation(sym, [((1.0, 0.0), (0.0, 0.0))], 10)
    with pytest.raises(ValueError):
        multiplier_deviation(sym, [((1.0,),)], 10)
    with pytest.raises(ValueError):
        multiplier_deviation(sym, [((1.0, 0.0),)], 0)
    with pytest.raises(ValueError, match="nonempty"):
        multiplier_deviation(sym, [], 10)
    with pytest.raises(ValueError, match="nonempty"):
        multiplier_deviation(sym, [((1.0, 0.0),), ()], 10)


@pytest.mark.parametrize("family", ["beurling-real", "beurling", "beurling-matrix"])
def test_deviation_out_of_range_is_refused_with_no_warning(family):
    # A frequency whose square overflows makes the symbol inf/inf = NaN there: refused
    # as the pairing refuses its non-finite value, with no numpy warning (an error here),
    # and for a matrix symbol before its spectral norm, whose SVD would not converge.
    with pytest.raises(FloatingPointError, match="deviation nan is not finite"):
        multiplier_deviation(family_symbol(family), [((1e200, 0.0), (1.0, 0.0))], 10)
