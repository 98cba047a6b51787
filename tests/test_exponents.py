"""Exponent bookkeeping: conjugates, p*, and validation."""

import pytest

from lpmult.exponents import ExponentConfig


def test_defaults_and_conjugates():
    e = ExponentConfig(4.0)
    assert e.p == 4.0
    assert e.q == pytest.approx(4.0 / 3.0)
    assert e.pstar == 4.0


def test_pstar_below_two():
    e = ExponentConfig(4.0 / 3.0)
    assert e.pstar == pytest.approx(4.0)
    assert e.pstar - 1.0 == pytest.approx(3.0)


def test_pstar_symmetric_under_duality():
    for p in (1.5, 2.0, 3.0, 7.0):
        e = ExponentConfig(p)
        dual = ExponentConfig(e.q)
        assert e.pstar == pytest.approx(dual.pstar)


def test_invalid_exponents():
    for bad in (1.0, 0.5, -2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExponentConfig(bad)
    # One exponent: a second one is no argument.
    with pytest.raises(TypeError):
        ExponentConfig(4.0, 2.0)
