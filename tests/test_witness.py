"""Sign-function witnesses: eigenrelation exactness and certified ratios."""

import tracemalloc

import numpy as np
import pytest

from lpmult.catalog import beurling_imag, beurling_matrix, beurling_real, rotated
from lpmult.exponents import ExponentConfig
from lpmult import witness
from lpmult.martingale import MartingaleDifferenceSequence
from lpmult.witness import WitnessSpec, build_matrix_witness, build_witness


def _explicit_instance(m=1):
    d1 = np.zeros((2, m), dtype=complex)
    d2 = np.zeros((2, 2, m), dtype=complex)
    d1[:, 0] = 1.0
    d2[:, 0, 0] = 2.0
    return MartingaleDifferenceSequence((d1, d2))


def _spec(seq, tau, G, symbol=None):
    return WitnessSpec(
        exps=ExponentConfig(4.0), tau=tau,
        symbol=beurling_real() if symbol is None else symbol,
        sequence=seq, beta=(-1, 1), G=G)


def test_explicit_witness_matches_enumeration():
    target = (52.0 / 21.0) ** 0.25
    for G in (2, 4):
        res = build_witness(_spec(_explicit_instance(), 1.0, G))
        assert res.ratio == pytest.approx(target, abs=1e-10)
        assert res.martingale_ratio == pytest.approx(target, abs=1e-12)
        assert res.certified_lower_bound == pytest.approx(target, abs=1e-10)


def test_witness_tau_zero():
    res = build_witness(_spec(_explicit_instance(), 0.0, 2))
    assert res.ratio == pytest.approx(1.0, abs=1e-10)


def test_matrix_witness_matches_scalar():
    seq = _explicit_instance(m=2)
    spec = _spec(seq, 1.0, 2, symbol=beurling_matrix())
    res = build_matrix_witness(spec)
    assert res.ratio == pytest.approx((52.0 / 21.0) ** 0.25, abs=1e-10)
    assert res.martingale_ratio == pytest.approx(res.ratio, abs=1e-10)


def test_witness_shape_dispatch():
    with pytest.raises(ValueError):
        build_witness(_spec(_explicit_instance(m=2), 1.0, 2, symbol=beurling_matrix()))
    with pytest.raises(ValueError):
        build_matrix_witness(_spec(_explicit_instance(), 1.0, 2))


def test_spec_validation():
    seq = _explicit_instance()
    with pytest.raises(ValueError):
        WitnessSpec(exps=ExponentConfig(4.0), tau=0.0, symbol=beurling_real(),
                    sequence=seq, beta=(-1,))
    # Im B vanishes on both axes and rotated(0) = -Re B has them reversed;
    # both are certified through Re B by a rotation, never directly.
    for symbol in (beurling_imag(), rotated(0.0)):
        with pytest.raises(ValueError):
            _spec(seq, 0.0, 2, symbol=symbol)


def test_p0_above_p_rejected():
    spec = WitnessSpec(exps=ExponentConfig(2.0, 4.0), tau=0.0,
                       symbol=beurling_real(), sequence=_explicit_instance(),
                       beta=(-1, 1))
    with pytest.raises(ValueError):
        build_witness(spec)


def _random_spec(N, seed=0):
    rng = np.random.default_rng(np.random.PCG64(seed))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (1,)) + 1j * rng.standard_normal((2,) * k + (1,))
        for k in range(1, N + 1)))
    beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
    return WitnessSpec(exps=ExponentConfig(4.0), tau=1.0, symbol=beurling_real(),
                       sequence=seq, beta=beta, G=2)


def test_oversize_witness_refused_before_allocation():
    # N = 12 at G = 2 has 4^13 points (1 GiB per complex array), over POINT_CAP.
    spec = _random_spec(12)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            build_witness(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_witness_peak_memory_streams():
    # One full-size scalar array on (T^2)^9 at G = 2 is 4^9 complex values.
    spec = _random_spec(8)
    full = 4**9 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        res = build_witness(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ratio == pytest.approx(res.martingale_ratio, abs=1e-10)
    assert peak <= 8 * full


def test_biased_sign_block_refused(monkeypatch):
    # A sign block psi_1 with nonzero sum gives Phi_1 a block-1 mean, which
    # the transference to the multiplier does not allow.
    sign_blocks = witness._sign_blocks

    def biased(ws):
        grid, signs, idx = sign_blocks(ws)
        signs[1] = signs[1].copy()
        signs[1][0, 0] *= -1
        return grid, signs, idx

    monkeypatch.setattr(witness, "_sign_blocks", biased)
    with pytest.raises(ValueError):
        build_witness(_random_spec(3))
