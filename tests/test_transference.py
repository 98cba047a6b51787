"""Gaussian-damped pairing quadrature and multiplier deviation sweeps."""

import math

import pytest

from lpmult.catalog import beurling_matrix, beurling_real, family_symbol, identity_symbol
from lpmult.transference import (GaussianPairingConfig, gaussian_damped_pairing,
                                 multiplier_deviation)


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


def test_non_scalar_symbol_pairing_is_refused():
    # A matrix symbol paired from a against b is the scalar symbol
    # sum_ij conj(b_i) M_ij a_j.
    cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=0.1)
    with pytest.raises(ValueError):
        gaussian_damped_pairing(cfg, beurling_matrix())


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
        mat = multiplier_deviation(beurling_matrix(), support, N)
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
