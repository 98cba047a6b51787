"""Bellman policies: the band, the bisection, the backward evaluation and the tables."""

import tracemalloc

import numpy as np
import pytest

from lpmult import catalog, policy
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig, _levels,
                               perturbed_ratio_exact, search_extremal)
from lpmult.policy import solve_policy


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
    pol = solve_policy(p, tau, beta, N, R)
    flat, ratio = pol.tables(), pol.ratio()
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


def _unnormalized_values(p, C, beta, R):
    """W_N, ..., W_1 at tau = 0 on the band's states from x_(S/2) on: `_solve`'s
    recursion without its per-step normalization, so each is in the unit e = 0."""
    canon, allowed = policy._weights(R, p)
    num, den = policy._payoff(R, p, 0.0)
    h = len(canon) // 2
    W = num[h:] - C**p * den[h:]
    yield W
    for b in reversed(beta[1:]):
        child, weight, first, _ = allowed[(1 - b) // 2]
        Wx = W.take(child) * weight
        W = np.maximum.reduceat(Wx[0] + Wx[1], first)
        yield W


@pytest.mark.parametrize("R", [8, 16])
@pytest.mark.parametrize("p", [1.25, 4.0 / 3.0, 1.5, 3.0, 4.0])
def test_unnormalized_values_stay_under_burkholders_function(p, R):
    # Burkholder's Phi(f, g) = alpha_p (|g| - (p* - 1)|f|)(|f| + |g|)^(p-1) majorizes
    # the tau = 0 payoff at C = p* - 1 and is concave along each line a step moves
    # on (|dg| = |df|), so every value at every band state and step is at most Phi.
    # 2% below p* - 1 some state passes it, also after all 39 steps. The check reads
    # the band's children and weights far past any enumeration.
    ps = max(p, p / (p - 1.0))
    x = policy._band(R)[0].astype(float)
    x = x[len(x) // 2:]
    f, g = np.abs(x[:, 0] + x[:, 1]), np.abs(x[:, 0] - x[:, 1])
    phi = p * (1.0 - 1.0 / ps) ** (p - 1.0) * (g - (ps - 1.0) * f) * (f + g) ** (p - 1.0)
    tol, beta = 1e-15 * np.abs(phi).max(), _alternating(40)
    for k, W in enumerate(_unnormalized_values(p, ps - 1.0, beta, R)):
        assert np.all(W <= phi + tol), (k, np.max(W - phi) / np.abs(phi).max())
    *_, W = _unnormalized_values(p, 0.98 * (ps - 1.0), beta, R)
    assert np.any(W > phi + tol)


@pytest.mark.parametrize("p, tau, N", [(4.0, 0.0, 8), (4.0, 1.0, 6), (4.0 / 3.0, 0.0, 8),
                                       (1.5, 0.5, 7), (6.0, 0.0, 5)])
def test_evaluated_ratio_is_at_least_every_accepted_bound(p, tau, N):
    # The bisection's lo only rises, so the last C it accepts is the largest.
    beta = _alternating(N)
    pol = solve_policy(p, tau, beta, N)
    assert pol.actions.dtype == np.uint8 and pol.actions.shape == (N - 1, 12 * 64 - 32 + 1)
    ratio = pol.ratio()
    assert pol.C > 0.0 and ratio >= pol.C


def test_policy_column_at_p4():
    # The alternating-beta policies of R = 8, actions 0..16 and 21 solves at p = 4, tau = 0.
    got = [solve_policy(4.0, 0.0, _alternating(N), N).ratio() for N in range(2, 9)]
    want = [1.0, 2**0.5, 1.537912, 1.743237, 1.854122, 1.977108, 2.067159]
    assert got == pytest.approx(want, abs=5e-7)


def test_resolution_past_uint8_actions_is_refused_before_any_allocation():
    # The band grows as R^3 (about 120 MiB at R = 32, GBs at R = 127, where uint8
    # actions end), so the cap is R = 32, refused before the band is built.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="resolution must be in 1..32, got 33"):
            solve_policy(4.0, 0.0, _alternating(4), 4, 33)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak
    with pytest.raises(ValueError, match="resolution"):
        solve_policy(4.0, 0.0, _alternating(4), 4, 0)


def test_beta_of_another_length_is_refused():
    with pytest.raises(ValueError, match="beta must have length"):
        solve_policy(4.0, 0.0, (1, -1), 3)


def test_one_policy_is_one_bisection(monkeypatch):
    # SOLVES solves of C, then one at the accepted C for the actions; the ratio and
    # the tables read the stored actions and solve nothing.
    calls, solve = [], policy._solve

    def counted(*args, **kwargs):
        calls.append(args[-1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(policy, "_solve", counted)
    pol = solve_policy(4.0, 0.5, _alternating(6), 6)
    assert len(calls) == policy.SOLVES + 1 == 22 and calls[-1] == pol.C
    pol.ratio(), pol.tables()
    assert len(calls) == 22


def test_tables_past_the_enumeration_cap_are_refused_before_any_allocation():
    # At N = 30 the tables would be 2^31 floats, 16 GiB: refused before any level is built.
    pol = solve_policy(4.0, 0.0, _alternating(30), 30, 2)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="depth 30 exceeds enumeration cap 20"):
            pol.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak
    assert solve_policy(4.0, 0.0, _alternating(20), 20, 2).tables().shape == (2**21 - 2, 1)


def test_deep_policy_has_a_ratio_and_no_tables():
    # Past the enumeration cap a policy is still a martingale: its evaluated ratio is at
    # least the bound the bisection accepted and at most the proven ceiling.
    pol = solve_policy(4.0, 0.0, _alternating(64), 64, 8)
    assert pol.C <= pol.ratio() <= catalog.ceiling(ExponentConfig(4.0), 0.0)
    with pytest.raises(ValueError, match="depth 64 exceeds enumeration cap"):
        pol.tables()


@pytest.mark.parametrize("p, tau, N", [(4.0, 0.0, 5), (4.0, 1.0, 6), (4.0 / 3.0, 0.5, 4),
                                       (3.0, 0.0, 1)])
def test_search_is_at_least_each_policy_start(p, tau, N):
    res = search_extremal(ExponentConfig(p), tau, N, iters=5, wall_cap_s=60.0)
    alt = _alternating(N)
    for beta in [alt] if N == 1 else [alt, alt[:-1] + alt[-2:-1]]:
        assert res.ratio >= solve_policy(p, tau, beta, N).ratio() - 1e-12


def test_wall_capped_default_chain_at_p_four_thirds_passes_2_2_at_n10():
    # The chain's depths are independent searches, so only its N = 10 one is run: the
    # CLI's default budget, but a wall cap that fires after the first ascent step, so
    # the two policy starts decide the bound.
    res = search_extremal(ExponentConfig(4.0 / 3.0), 0.0, 10, iters=600, wall_cap_s=1e-3)
    assert res.ratio >= 2.2 and res.stopped_by == "wall"
