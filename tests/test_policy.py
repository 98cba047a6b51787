"""Bellman policies: the band, the bisection, the backward evaluation and the tables."""

import tracemalloc

import numpy as np
import pytest

from lpmult import catalog, policy
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig, _levels,
                               perturbed_ratio_exact, search_extremal)
from lpmult.policy import policy_flat


def _alternating(N):
    return tuple((-1) ** k for k in range(N))


def _exact(flat, beta, tau, p):
    seq = MartingaleDifferenceSequence(tuple(
        t.reshape((2,) * k + (1,)) for k, t in enumerate(_levels(flat), start=1)))
    return perturbed_ratio_exact(seq, TransformConfig(beta, tau), ExponentConfig(p))


def _reference_band(R):
    """The band by loops: state x -> index, and each child as (index, exponent change)."""
    states = [(u, v) for u in range(1 - 2 * R, 2 * R) for v in range(1 - 2 * R, 2 * R)
              if max(abs(u), abs(v)) >= R]
    index = {x: s for s, x in enumerate(states)}

    def child(y):
        if y == (0, 0):
            return len(states), 0
        j = 0
        while max(map(abs, y)) < R:
            y, j = (2 * y[0], 2 * y[1]), j - 1
        if max(map(abs, y)) >= 2 * R:
            if y[0] % 2 or y[1] % 2:
                return -1, None
            y, j = (y[0] // 2, y[1] // 2), j + 1
        return index[y], j

    return states, child


@pytest.mark.parametrize("R", [1, 2, 4, 8])
def test_band_equals_the_doubling_loops(R):
    x, child, de = policy._band(R)[:3]
    states, ref = _reference_band(R)
    S = len(states)
    assert S == 12 * R * R - 4 * R and x.shape == (S + 1, 2)
    assert [tuple(s) for s in x[:S].tolist()] == states and tuple(x[S]) == (0, 0)
    for i in range(2):
        for sign, t in ((1, 0), (-1, 1)):
            for a in range(2 * R + 1):
                for s, (u, v) in enumerate(states):
                    y = (u + sign * a, v) if i == 0 else (u, v + sign * a)
                    c, d = ref(y)
                    assert child[i, t, a, s] == c and (c < 0 or de[i, t, a, s] == d)
                # the origin is absorbing: a = 0 stays there, any other action is refused
                assert child[i, t, a, S] == (S if a == 0 else -1)
            # the forced first step along axis i reaches +-R e_i
            assert states[policy._band(R)[3][i, t]] == ((sign * R, 0) if i == 0 else (0, sign * R))


@pytest.mark.parametrize("p, tau, N, R, beta", [
    (4.0, 0.0, 10, 16, None), (4.0, 1.0, 12, 16, None), (1.5, 0.0, 12, 16, None),
    (3.0, 0.5, 14, 8, None), (4.0, 0.0, 16, 16, None), (6.0, 0.0, 16, 8, None),
    (4.0, 1.0, 10, 8, (1, 1, -1, 1, -1, -1, -1, 1, 1, -1)),
])
def test_backward_evaluation_is_the_tables_exact_ratio(p, tau, N, R, beta):
    beta = _alternating(N) if beta is None else beta
    flat, ratio = policy_flat(p, tau, beta, N, R)
    assert flat.shape == (2 ** (N + 1) - 2, 1) and flat.dtype == float
    exact = _exact(flat, beta, tau, p)
    assert abs(ratio - exact) <= 1e-15 * exact


@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_start_value_is_not_positive_at_the_proven_ceiling(tau):
    # The start value is the best E(|G|^2 + tau^2 |F|^2)^(p/2) - C^p E|F|^p of the
    # band's martingales. By Burkholder's inequality, through the proven ceiling U,
    # none passes 0 at C = U; 2% below U the policy does. At N = 512 this checks
    # the band's transitions and weights far past any enumeration.
    exps, beta = ExponentConfig(4.0), _alternating(512)
    U = catalog.ceiling(exps, tau)
    assert policy._solve(exps.p, tau, beta, 16, U)[0] <= 0.0
    assert policy._solve(exps.p, tau, beta, 16, 0.98 * U)[0] > 0.0


@pytest.mark.parametrize("p, tau, N", [(4.0, 0.0, 8), (4.0, 1.0, 6), (4.0 / 3.0, 0.0, 8),
                                       (1.5, 0.5, 7), (6.0, 0.0, 5)])
def test_evaluated_ratio_is_at_least_every_accepted_bound(p, tau, N):
    # The bisection's lo only rises, so the last C it accepts is the largest.
    beta = _alternating(N)
    actions, lo = policy._bisect(p, tau, beta, policy.RESOLUTION)
    assert actions.dtype == np.uint8 and actions.shape == (N - 1, 12 * 64 - 32 + 1)
    ratio = policy._evaluate(p, tau, beta, policy.RESOLUTION, actions)
    assert lo > 0.0 and ratio >= lo


def test_policy_column_at_p4():
    # The alternating-beta policies of R = 8, actions 0..16 and 21 solves at p = 4, tau = 0.
    got = [policy_flat(4.0, 0.0, _alternating(N), N)[1] for N in range(2, 9)]
    want = [1.0, 2**0.5, 1.537912, 1.743237, 1.854122, 1.977108, 2.067159]
    assert got == pytest.approx(want, abs=5e-7)


def test_resolution_past_uint8_actions_is_refused_before_any_allocation():
    # The band grows as R^3 (about 120 MiB at R = 32, GBs at R = 127, where uint8
    # actions end), so the cap is R = 32, refused before the band is built.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="resolution must be in 1..32, got 33"):
            policy_flat(4.0, 0.0, _alternating(4), 4, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak
    with pytest.raises(ValueError, match="resolution"):
        policy_flat(4.0, 0.0, _alternating(4), 4, 0)


def test_beta_of_another_length_is_refused():
    with pytest.raises(ValueError, match="beta must have length"):
        policy_flat(4.0, 0.0, (1, -1), 3)


@pytest.mark.parametrize("p, tau, N", [(4.0, 0.0, 5), (4.0, 1.0, 6), (4.0 / 3.0, 0.5, 4),
                                       (3.0, 0.0, 1)])
def test_search_is_at_least_each_policy_start(p, tau, N):
    res = search_extremal(ExponentConfig(p), tau, N, iters=5, wall_cap_s=60.0)
    alt = _alternating(N)
    for beta in [alt] if N == 1 else [alt, alt[:-1] + alt[-2:-1]]:
        assert res.ratio >= policy_flat(p, tau, beta, N)[1] - 1e-12


def test_wall_capped_default_chain_at_p_four_thirds_passes_2_2_at_n10():
    # The chain's depths are independent searches, so only its N = 10 one is run: the
    # CLI's default budget, but a wall cap that fires after the first ascent step, so
    # the two policy starts decide the bound.
    res = search_extremal(ExponentConfig(4.0 / 3.0), 0.0, 10, iters=600, wall_cap_s=1e-3)
    assert res.ratio >= 2.2 and res.stopped_by == "wall"
