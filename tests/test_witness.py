"""Sign-function witnesses: eigenrelation exactness and certified ratios."""

import tracemalloc

import numpy as np
import pytest

from lpmult.catalog import beurling_imag, beurling_matrix, beurling_real
from lpmult.exponents import ExponentConfig
from lpmult.martingale import MartingaleDifferenceSequence
from lpmult.witness import (WitnessSpec, best_axis_direction,
                            build_matrix_witness, build_witness)


def _explicit_instance(m=1):
    d1 = np.zeros((2, m), dtype=complex)
    d2 = np.zeros((2, 2, m), dtype=complex)
    d1[:, 0] = 1.0
    d2[:, 0, 0] = 2.0
    return MartingaleDifferenceSequence((d1, d2))


def _spec(seq, tau, G, symbol=None, **kw):
    return WitnessSpec(
        exps=ExponentConfig(4.0), tau=tau,
        symbol=beurling_real() if symbol is None else symbol,
        n_plus=(0, 1), n_minus=(1, 0), delta_plus=1.0, delta_minus=-1.0,
        sequence=seq, beta=(-1, 1), G=G, **kw)


def test_explicit_witness_matches_enumeration():
    target = (52.0 / 21.0) ** 0.25
    for G in (2, 4):
        res = build_witness(_spec(_explicit_instance(), 1.0, G))
        assert res.direction_slack <= 1e-12
        assert res.ratio == pytest.approx(target, abs=1e-10)
        assert res.martingale_ratio == pytest.approx(target, abs=1e-12)
        assert res.certified_lower_bound == pytest.approx(target, abs=1e-10)


def test_witness_tau_zero():
    res = build_witness(_spec(_explicit_instance(), 0.0, 2))
    assert res.ratio == pytest.approx(1.0, abs=1e-10)


def test_matrix_witness_matches_scalar():
    seq = _explicit_instance(m=2)
    spec = _spec(seq, 1.0, 2, symbol=beurling_matrix(), unitary=np.eye(2))
    res = build_matrix_witness(spec)
    assert res.ratio == pytest.approx((52.0 / 21.0) ** 0.25, abs=1e-10)
    assert res.martingale_ratio == pytest.approx(res.ratio, abs=1e-10)


def test_witness_shape_dispatch():
    with pytest.raises(ValueError):
        build_witness(_spec(_explicit_instance(m=2), 1.0, 2, symbol=beurling_matrix(),
                            unitary=np.eye(2)))
    with pytest.raises(ValueError):
        build_matrix_witness(_spec(_explicit_instance(), 1.0, 2))


def test_spec_validation():
    seq = _explicit_instance()
    with pytest.raises(ValueError):
        WitnessSpec(exps=ExponentConfig(4.0), tau=0.0, symbol=beurling_real(),
                    n_plus=(0, 0), n_minus=(1, 0), delta_plus=1.0,
                    delta_minus=-1.0, sequence=seq, beta=(-1, 1))
    with pytest.raises(ValueError):
        WitnessSpec(exps=ExponentConfig(4.0), tau=0.0, symbol=beurling_real(),
                    n_plus=(0, 1), n_minus=(1, 0), delta_plus=-1.0,
                    delta_minus=1.0, sequence=seq, beta=(-1, 1))
    with pytest.raises(ValueError):
        WitnessSpec(exps=ExponentConfig(4.0), tau=0.0, symbol=beurling_real(),
                    n_plus=(0, 1), n_minus=(1, 0), delta_plus=1.0,
                    delta_minus=-1.0, sequence=seq, beta=(-1,))
    with pytest.raises(ValueError):
        _spec(_explicit_instance(m=2), 0.0, 2, symbol=beurling_matrix(),
              unitary=np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_even_sum_direction_hits_hyperplane():
    # sign((1, 1) . theta) vanishes on the offset grid; the builder refuses.
    spec = WitnessSpec(exps=ExponentConfig(4.0), tau=0.0, symbol=beurling_imag(),
                       n_plus=(1, 1), n_minus=(1, -1), delta_plus=1.0,
                       delta_minus=-1.0, sequence=_explicit_instance(),
                       beta=(-1, 1), G=4)
    with pytest.raises(ValueError):
        build_witness(spec)


def test_p0_above_p_rejected():
    spec = WitnessSpec(exps=ExponentConfig(2.0, 4.0), tau=0.0,
                       symbol=beurling_real(), n_plus=(0, 1), n_minus=(1, 0),
                       delta_plus=1.0, delta_minus=-1.0,
                       sequence=_explicit_instance(), beta=(-1, 1))
    with pytest.raises(ValueError):
        build_witness(spec)


def test_rescale_for_approximate_deltas():
    # With delta+- = +-0.8 the rescale is A = 2 / 1.6 = 1.25 and the
    # certified bound is the achieved ratio divided by A.
    seq = _explicit_instance()
    spec = WitnessSpec(exps=ExponentConfig(4.0), tau=1.0, symbol=beurling_real(),
                       n_plus=(0, 1), n_minus=(1, 0), delta_plus=0.8,
                       delta_minus=-0.8, sequence=seq, beta=(-1, 1), G=2)
    res = build_witness(spec)
    assert spec.rescale == pytest.approx(1.25)
    assert res.certified_lower_bound == pytest.approx(res.ratio / 1.25)


def test_best_axis_direction():
    n, dev = best_axis_direction(beurling_real(), 1.0, bound=4)
    assert abs(n[1]) > 0 and n[0] == 0
    assert dev == pytest.approx(0.0, abs=1e-14)
    n, dev = best_axis_direction(beurling_imag(), 1.0, bound=8, odd_sum=True)
    assert sum(n) % 2 == 1
    assert dev == pytest.approx(1.0 - 112.0 / 113.0, abs=1e-12)
    with pytest.raises(ValueError):
        best_axis_direction(beurling_matrix(), 1.0)


def _random_spec(N, seed=0):
    rng = np.random.default_rng(np.random.PCG64(seed))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (1,)) + 1j * rng.standard_normal((2,) * k + (1,))
        for k in range(1, N + 1)))
    beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
    return WitnessSpec(exps=ExponentConfig(4.0), tau=1.0, symbol=beurling_real(),
                       n_plus=(0, 1), n_minus=(1, 0), delta_plus=1.0,
                       delta_minus=-1.0, sequence=seq, beta=beta, G=2)


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
