"""Exact enumeration of the perturbed martingale transform and the search."""

import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from lpmult import martingale
from lpmult.exponents import ExponentConfig
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig, _double, _flat,
                               _head_levels, _head_plan, _head_values, log_ratio,
                               perturbed_ratio_exact, search_extremal)
from lpmult.policy import solve_policy


def _sign_index(r):
    """Sign-to-index convention: r = +1 maps to index 0, r = -1 to index 1."""
    if r == 1:
        return 0
    if r == -1:
        return 1
    raise ValueError(f"signs must be +-1, got {r}")


def evaluate_sequence(F, omega):
    """F(omega) = sum_k d_k(omega_0, ..., omega_{k-1}) * omega_k, as a C^m vector."""
    omega = tuple(int(w) for w in omega)
    if len(omega) != F.N + 1:
        raise ValueError(f"omega must have length {F.N + 1}, got {len(omega)}")
    idx = tuple(_sign_index(w) for w in omega)
    out = np.zeros(F.m, dtype=complex)
    for k, table in enumerate(F.tables, start=1):
        out += table[idx[:k]] * omega[k]
    return out


def _random_sequence(rng, N, m=1):
    tables = [rng.standard_normal((2,) * k + (m,))
              + 1j * rng.standard_normal((2,) * k + (m,)) for k in range(1, N + 1)]
    return MartingaleDifferenceSequence(tuple(tables))


def _explicit_instance():
    """d1 = 1, d2 = 1 + r1 (value 2 at r1 = +1, 0 at r1 = -1)."""
    d1 = np.ones((2, 1), dtype=complex)
    d2 = np.zeros((2, 2, 1), dtype=complex)
    d2[:, 0, 0] = 2.0
    return MartingaleDifferenceSequence((d1, d2))


def test_table_shape_validation():
    with pytest.raises(ValueError):
        MartingaleDifferenceSequence((np.ones((3, 1)),))
    with pytest.raises(ValueError):
        MartingaleDifferenceSequence(())
    with pytest.raises(ValueError):
        MartingaleDifferenceSequence((np.array([[np.nan], [1.0]]),))


@pytest.mark.parametrize("N, m", [(1, 1), (2, 2), (5, 1), (5, 2)])
def test_sequence_holds_its_tables_in_one_flat_array(N, m):
    # d_k at rows 2^k - 2 ... 2^(k+1) - 3, as the search lays out its starts.
    rng = np.random.default_rng(np.random.PCG64(90 + 10 * N + m))
    tables = [rng.standard_normal((2,) * k + (m,))
              + 1j * rng.standard_normal((2,) * k + (m,)) for k in range(1, N + 1)]
    tables[-1][(1,) * N] = complex(-0.0, 0.0)
    seq = MartingaleDifferenceSequence(tables)
    assert (seq.N, seq.m) == (N, m)
    assert seq.flat.shape == (2 ** (N + 1) - 2, m)
    assert np.array_equal(seq.flat, _flat(tables))
    back = seq.tables
    assert len(back) == N
    for t, b in zip(tables, back):
        assert b.shape == t.shape and b.tobytes() == t.tobytes()
        assert np.shares_memory(b, seq.flat)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "imag-nan"])
@pytest.mark.parametrize("k", [1, 3, 4])
@pytest.mark.parametrize("at", [0, 1], ids=["first-row", "last-row"])
def test_non_finite_entry_names_its_table(bad, k, at):
    tables = [np.ones((2,) * j + (2,), dtype=complex) for j in range(1, 5)]
    tables[k - 1][(at,) * k + (1,)] = bad
    with pytest.raises(ValueError, match=f"^table {k} has non-finite entries$"):
        MartingaleDifferenceSequence(tables)


def test_evaluate_sequence_explicit():
    seq = _explicit_instance()
    # omega = (r0, r1, r2); F = d1(r0) r1 + d2(r0, r1) r2.
    assert evaluate_sequence(seq, (1, 1, 1))[0] == pytest.approx(3.0)
    assert evaluate_sequence(seq, (1, -1, 1))[0] == pytest.approx(-1.0)
    assert evaluate_sequence(seq, (1, 1, -1))[0] == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        evaluate_sequence(seq, (1, 1))
    with pytest.raises(ValueError):
        evaluate_sequence(seq, (1, 0, 1))


def test_explicit_instance_ratio_oracle():
    # E|F|^4 = 21 and E(|G|^2 + |F|^2)^2 = 52 for beta = (-1, +1), tau = 1,
    # so the ratio is (52/8)^(1/4) / (21/8)^(1/4) = (52/21)^(1/4).
    seq = _explicit_instance()
    cfg = TransformConfig((-1, 1), 1.0)
    ratio = perturbed_ratio_exact(seq, cfg, ExponentConfig(4.0))
    assert ratio == pytest.approx((52.0 / 21.0) ** 0.25, abs=1e-12)


def test_explicit_instance_tau_zero():
    seq = _explicit_instance()
    ratio = perturbed_ratio_exact(seq, TransformConfig((-1, 1), 0.0), ExponentConfig(4.0))
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_p2_ratio_is_sqrt_one_plus_tau_squared():
    rng = np.random.default_rng(np.random.PCG64(0))
    exps = ExponentConfig(2.0)
    for _ in range(25):
        N = int(rng.integers(1, 6))
        m = int(rng.integers(1, 3))
        seq = _random_sequence(rng, N, m)
        beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
        for tau in (0.0, 0.5, 3.0):
            ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
            assert ratio == pytest.approx(math.hypot(1.0, tau), abs=1e-12)


def test_ratio_respects_ceiling():
    rng = np.random.default_rng(np.random.PCG64(1))
    for p in (4.0, 4.0 / 3.0):
        exps = ExponentConfig(p)
        ceiling = math.hypot(exps.pstar - 1.0, 0.5)
        for _ in range(50):
            N = int(rng.integers(1, 5))
            seq = _random_sequence(rng, N)
            beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
            ratio = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
            assert ratio <= ceiling + 1e-9


def test_extend_with_zero_preserves_ratio():
    rng = np.random.default_rng(np.random.PCG64(2))
    exps = ExponentConfig(4.0)
    seq = _random_sequence(rng, 3)
    beta = (1, -1, 1)
    base = perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
    ext = MartingaleDifferenceSequence(seq.tables + (np.zeros((2, 2, 2, 2, 1)),))
    for b in (-1, 1):
        extended = perturbed_ratio_exact(ext, TransformConfig(beta + (b,), 0.5), exps)
        assert extended == pytest.approx(base, abs=1e-12)


def test_ratio_input_validation():
    # numpy's error state after every exit, a refusal or a return, is the one before the call.
    before = np.geterr()
    seq = _explicit_instance()
    with pytest.raises(ValueError):
        perturbed_ratio_exact(seq, TransformConfig((1,), 0.0), ExponentConfig(4.0))
    assert np.geterr() == before
    # 1e-170 is not zero, but its square underflows, so ||F_N||_p is 0; the
    # squares of 1e200 overflow, so no moment is finite.
    for value, error in ((0.0, ZeroDivisionError), (1e-170, ZeroDivisionError),
                         (1e200, FloatingPointError)):
        seq = MartingaleDifferenceSequence((np.full((2, 1), value),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                perturbed_ratio_exact(seq, TransformConfig((1,), 0.0), ExponentConfig(4.0))
        assert np.geterr() == before
    assert perturbed_ratio_exact(_explicit_instance(), TransformConfig((1, -1), 0.5),
                                 ExponentConfig(4.0)) > 0.0
    assert np.geterr() == before
    with pytest.raises(ValueError):
        TransformConfig((2,), 0.0)


def _realize(flat, coef, blocks=1):
    """Values (..., m, 2^(N+1)) of flat tables (..., m, 2^(N+1) - 2) under flips coef
    (..., N): each flip row is the G half of the pair (ones, row), realized by
    `_head_values` and then `_double` on each of `blocks` blocks, joined."""
    N, m = coef.shape[-1], flat.shape[-2]
    h = _head_levels(N, coef[..., 0].size * m, blocks)[0]
    flat = np.broadcast_to(flat, coef.shape[:-1] + flat.shape[-2:])
    rows = []
    for f, beta in zip(flat.reshape((-1,) + flat.shape[-2:]), coef.reshape(-1, N)):
        V = _head_values(f, np.stack([np.ones(N), beta])[:, None, :h, None] * _head_plan(h)[1])
        w = V.shape[-1] // blocks
        rows.append(np.concatenate([_double(V[..., b * w:(b + 1) * w], f, beta[h:], h, b)
                                    for b in range(blocks)], axis=-1)[1])
    return np.reshape(rows, coef.shape[:-1] + (m, -1))


def _two_pass_ratio(F, cfg, exps):
    """The exact ratio with F and G realized one after the other and np.mean."""
    Fv = _realize(F.flat.T, np.ones(F.N))
    Gv = _realize(F.flat.T, np.array(cfg.beta, dtype=float))
    n2 = np.sum(np.abs(Fv) ** 2, axis=-2)
    pair2 = np.sum(np.abs(Gv) ** 2, axis=-2) + cfg.tau**2 * n2
    num = np.mean(pair2 ** (exps.p / 2.0)) ** (1.0 / exps.p)
    den = np.mean(n2 ** (exps.p / 2.0)) ** (1.0 / exps.p)
    return float(num / den)


def _pointwise_ratio(F, cfg, exps):
    """The exact ratio from F and G evaluated at each sign pattern."""
    G = MartingaleDifferenceSequence(tuple(b * t for b, t in zip(cfg.beta, F.tables)))
    omegas = list(product((1, -1), repeat=F.N + 1))
    n2 = np.array([np.sum(np.abs(evaluate_sequence(F, w)) ** 2) for w in omegas])
    g2 = np.array([np.sum(np.abs(evaluate_sequence(G, w)) ** 2) for w in omegas])
    num = np.mean((g2 + cfg.tau**2 * n2) ** (exps.p / 2.0)) ** (1.0 / exps.p)
    den = np.mean(n2 ** (exps.p / 2.0)) ** (1.0 / exps.p)
    return num / den


@pytest.mark.parametrize("N", [*range(1, 13), 14, 15, 16])
def test_fused_ratio_matches_two_pass_and_pointwise(N, monkeypatch):
    # The default block holds N <= 14 and splits N = 15 and 16 into 2 and 4
    # blocks; blocks of 2^8 points (128 a row) split N >= 7 into 2^(N-6)
    # blocks whose sums must add up bit for bit.  At N = 14 there are 256
    # blocks, more than the 64 values of the default head.
    for block_points in [martingale._BLOCK_POINTS] + ([2**8] if N <= 14 else []):
        monkeypatch.setattr(martingale, "_BLOCK_POINTS", block_points)
        rng = np.random.default_rng(np.random.PCG64(500 + N))
        for m, p, tau in product((1, 2), (4.0, 4.0 / 3.0, 2.0), (0.0, 0.5)):
            seq = _random_sequence(rng, N, m)
            cfg = TransformConfig(tuple(int(b) for b in rng.choice([-1, 1], size=N)), tau)
            exps = ExponentConfig(p)
            ratio = perturbed_ratio_exact(seq, cfg, exps)
            assert ratio == _two_pass_ratio(seq, cfg, exps), (block_points, m, p, tau)
            if N <= 6:
                ref = _pointwise_ratio(seq, cfg, exps)
                assert abs(ratio - ref) <= 1e-13 * ref, (m, p, tau)


def test_blocked_ratio_memory_stays_in_blocks():
    # Enumerating F and G on all 2^(N+1) points at once peaks at 24 MiB of
    # temporaries at N = 18 and 96 MiB at N = 20; blocks of 2^16 points, and
    # the levels they share doubled only to one block's size, need about 2.5 MiB.
    for N in (18, 20):
        rng = np.random.default_rng(np.random.PCG64(N))
        seq = _random_sequence(rng, N)
        cfg = TransformConfig((1, -1) * (N // 2), 0.5)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            perturbed_ratio_exact(seq, cfg, ExponentConfig(4.0))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, (N, peak)


def test_search_p2_identity():
    res = search_extremal(ExponentConfig(2.0), 0.5, 4, iters=200, wall_cap_s=60.0)
    assert res.ratio == pytest.approx(math.sqrt(1.25), abs=1e-12)


def test_search_n2_tau1_reaches_sqrt2():
    # The symmetric +-1 flip achieves sqrt(2) at tau = 1, exceeding the
    # explicit (52/21)^(1/4) instance.
    res = search_extremal(ExponentConfig(4.0), 1.0, 2, iters=400, wall_cap_s=60.0)
    assert res.ratio >= (52.0 / 21.0) ** 0.25 - 1e-9
    check = perturbed_ratio_exact(res.sequence, TransformConfig(res.beta, 1.0),
                                  ExponentConfig(4.0))
    assert check == pytest.approx(res.ratio, abs=1e-12)


def test_search_respects_ceiling_below_two():
    res = search_extremal(ExponentConfig(4.0 / 3.0), 0.5, 3, iters=300, wall_cap_s=60.0)
    assert res.ratio <= math.hypot(3.0, 0.5) + 1e-9


def test_search_chain_is_monotone():
    # No depth starts from the one below it; the policy starts keep a small
    # budget's chain from going down.
    exps = ExponentConfig(4.0)
    prev = None
    for N in range(2, 12):
        res = search_extremal(exps, 0.0, N, iters=40, wall_cap_s=600.0)
        if prev is not None:
            assert res.ratio >= prev.ratio - 1e-12, N
        prev = res


def test_search_determinism():
    a = search_extremal(ExponentConfig(4.0), 0.5, 2, iters=150, wall_cap_s=60.0)
    b = search_extremal(ExponentConfig(4.0), 0.5, 2, iters=150, wall_cap_s=60.0)
    assert a.ratio == b.ratio
    assert a.beta == b.beta
    assert all(np.array_equal(x, y) for x, y in zip(a.sequence.tables, b.sequence.tables))


_BUDGET = dict(iters=200, wall_cap_s=60.0)


_BAD_BUDGET = "budget fields must be positive"
_REFUSALS = {"N": "depth must be in 1..20, got", "tau": "tau must be finite with a finite square",
             "iters": _BAD_BUDGET, "wall_cap_s": _BAD_BUDGET}


@pytest.mark.parametrize("p", [4.0, 2.0])
@pytest.mark.parametrize("field, value", [
    ("N", 0), ("N", 21), ("tau", math.nan), ("tau", math.inf), ("tau", 1e200), ("iters", 0),
    ("wall_cap_s", 0.0), ("wall_cap_s", math.nan)])
def test_search_refuses_a_bad_input_before_any_work(monkeypatch, p, field, value):
    # One table of check_search's rules, at p = 4 and on the p = 2 path, which
    # solves no policy and ascends nothing.
    def reached(*args):
        raise AssertionError("the search worked on a bad input")

    monkeypatch.setattr(martingale, "_ascend", reached)
    monkeypatch.setattr(martingale, "perturbed_ratio_exact", reached)
    inputs = dict(dict(_BUDGET, N=3, tau=0.0), **{field: value})
    N, tau = inputs.pop("N"), inputs.pop("tau")
    with pytest.raises(ValueError, match=_REFUSALS[field]):
        search_extremal(ExponentConfig(p), tau, N, **inputs)


def _reference_realize(tables, beta=None):
    """Per-k realization on the hypercube, shape (2,)*(N+1) + (m,)."""
    N = len(tables)
    m = tables[0].shape[-1]
    out = np.zeros((2,) * (N + 1) + (m,), dtype=complex)
    for k, table in enumerate(tables, start=1):
        coef = 1.0 if beta is None else float(beta[k - 1])
        rk = np.array([coef, -coef])
        term = table.reshape((2,) * k + (1,) * (N + 1 - k) + (m,))
        out += term * rk.reshape((1,) * k + (2,) + (1,) * (N - k) + (1,))
    return out


@pytest.mark.parametrize("N", range(1, 9))
@pytest.mark.parametrize("m", [1, 2])
def test_realize_equals_reference_exactly(N, m):
    # The gathered head and the doubling add each point's terms in level
    # order, as the reference does, so every value agrees bit for bit, also
    # where each block of the head's values is doubled on its own.
    rng = np.random.default_rng(np.random.PCG64(700 + 10 * N + m))
    P = 2 ** (N + 1)

    def check(seqs, coef):
        rows = list(coef)
        for blocks in {1, 2, 2 ** min(N, 4)}:
            V = _realize(np.stack([s.flat.T for s in seqs]), coef, blocks)
            assert V.shape == (len(rows), m, P)
            # One table row broadcasts over every flip row.
            for v, seq, beta in zip(V, seqs * (len(rows) // len(seqs)), rows):
                assert np.array_equal(v, _reference_realize(seq.tables, beta).reshape(P, m).T)

    one = [_random_sequence(rng, N, m)]
    check(one, rng.choice([-1.0, 1.0], size=(2, N)))
    check([_random_sequence(rng, N, m) for _ in range(5)], rng.choice([-1.0, 1.0], size=(5, N)))
    check(one, np.ones((1, N)))


def _reference_ratio_and_grad(tables, beta, tau, p):
    """Log-ratio and its gradient 2 dJ/d(conj d_k), one full reduction per k."""
    N = len(tables)
    Fv = _reference_realize(tables)
    Gv = _reference_realize(tables, beta)
    n2 = np.sum(np.abs(Fv) ** 2, axis=-1)
    h = np.sum(np.abs(Gv) ** 2, axis=-1) + tau * tau * n2
    P = n2.size
    Dp = float(np.sum(n2 ** (p / 2.0))) / P
    Up = float(np.sum(h ** (p / 2.0))) / P
    J = math.log(Up) / p - math.log(Dp) / p
    hpow = h ** (p / 2.0 - 1.0)
    npow = n2 ** (p / 2.0 - 1.0)
    WF = ((tau * tau * hpow / (2.0 * Up) - npow / (2.0 * Dp)) / P)[..., None] * Fv
    WG = (hpow / (2.0 * Up * P))[..., None] * Gv
    grads = []
    for k in range(1, N + 1):
        rk = np.array([1.0, -1.0]).reshape((1,) * k + (2,) + (1,) * (N - k) + (1,))
        grads.append(2.0 * np.sum(rk * (WF + beta[k - 1] * WG),
                                  axis=tuple(range(k, N + 1))))
    return J, grads


@pytest.mark.parametrize("N", [1, 3, 6, 8])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("tau", [0.0, 0.5])
@pytest.mark.parametrize("p", [4.0, 4.0 / 3.0])
def test_gradient_matches_reference(N, m, tau, p):
    rng = np.random.default_rng(np.random.PCG64(N * 100 + m * 10 + int(tau * 2)))
    seqs = [_random_sequence(rng, N, m) for _ in range(5)]
    betas = [tuple(int(b) for b in rng.choice([-1, 1], size=N)) for _ in range(5)]
    exps = ExponentConfig(p)
    for seq, beta in zip(seqs, betas):
        J, gradient = log_ratio(seq.flat, beta, tau, exps.p)
        grad = gradient()
        assert grad.shape == seq.flat.shape
        J_ref, grads_ref = _reference_ratio_and_grad(seq.tables, beta, tau, exps.p)
        assert abs(J - J_ref) <= 1e-12
        ref = np.concatenate([g.reshape(-1, m) for g in grads_ref])
        assert np.max(np.abs(grad - ref)) <= 1e-12


def _policy_starts(tau, N):
    alt = tuple((-1) ** k for k in range(N))
    return {beta: solve_policy(4.0, tau, beta, N).tables() + 0j
            for beta in (alt, alt[:-1] + alt[-2:-1])}


def test_search_independent_of_batch():
    # The search returns one of its two policy starts bit for bit as it
    # ascends alone.  At N = 5 the head holds every level; at N = 8 each start
    # doubles its last three levels through its own beta, the two differing in
    # beta_N.
    tau = 0.5
    for N in (5, 8):
        starts = _policy_starts(tau, N)
        res = search_extremal(ExponentConfig(4.0), tau, N, iters=60, wall_cap_s=60.0)
        alone, _ = martingale._ascend(starts[res.beta], res.beta, tau, 4.0, 60, math.inf)
        assert np.array_equal(res.sequence.flat, alone), N


def test_search_wall_cap_is_one_deadline_checked_after_each_step(monkeypatch):
    # A wall cap that has passed before any step still lets each start take
    # one: the objective is evaluated at each start and at one trial, and the
    # second start is not starved by the first's cut.  Here the first trial
    # is rejected, so only the count tells one step from none.
    tau, N = 0.5, 8
    starts, calls = _policy_starts(tau, N), []

    def counted(x, beta, *args):
        calls.append(beta)
        return log_ratio(x, beta, *args)

    monkeypatch.setattr(martingale, "log_ratio", counted)
    res = search_extremal(ExponentConfig(4.0), tau, N, iters=60, wall_cap_s=1e-9)
    assert res.stopped_by == "wall"
    assert calls == [beta for beta in starts for _ in range(2)]
    monkeypatch.undo()
    one, cut = martingale._ascend(starts[res.beta], res.beta, tau, 4.0, 1, math.inf)
    assert not cut and np.array_equal(res.sequence.flat, one)


def test_transform_config_refuses_entries_off_plus_minus_one():
    # int() would truncate 1.5 to 1 and -1.9 to -1; the check comes first.
    for beta in [(1.5, -1.9), (1, 0.5), (-1.0000001,), (2,), (0,)]:
        with pytest.raises(ValueError):
            TransformConfig(beta, 0.0)
    cfg = TransformConfig([1, 1.0, np.int64(-1), np.float64(-1.0)], 0.0)
    assert cfg.beta == (1, 1, -1, -1) and all(type(b) is int for b in cfg.beta)


def _reference_exact_ratio(F, beta, tau, exps):
    """The exact ratio from `_reference_realize`, with the reductions of one block:
    components added in order, then each row summed by numpy's pairwise sum."""
    P, m = 2 ** (F.N + 1), F.m
    n2 = (np.abs(_reference_realize(F.tables).reshape(P, m).T) ** 2).sum(0)
    g2 = (np.abs(_reference_realize(F.tables, beta).reshape(P, m).T) ** 2).sum(0)
    den = float((n2 ** (exps.p / 2.0)).sum()) / P
    num = float(((g2 + tau**2 * n2) ** (exps.p / 2.0)).sum()) / P
    return num ** (1.0 / exps.p) / den ** (1.0 / exps.p)


@pytest.mark.parametrize("N", [*range(1, 13), 15, 16])
def test_exact_ratio_equals_reference_bit_for_bit(N, monkeypatch):
    # Sequences whose betas share their first five signs (the head of N <= 12)
    # but not the tail are evaluated in alternating order: the head
    # coefficients shared through the cache carry nothing from call to call.
    # Blocks of 2^8 points split N >= 7 into 2^(N-6) blocks, each doubled and
    # summed on its own after one call doubles the levels they share, against
    # the same one-block reference; the doubling calls count them, so no plan
    # kept from the 2^16 calls may serve the 2^8 ones.  N = 15 and 16 run at
    # the default block alone, as 2 and 4 blocks: with beta and its tail
    # negated, each doubling level of a multi-block call runs in both write orders.
    rng = np.random.default_rng(np.random.PCG64(900 + N))
    doubled = []

    def counted(V, flat, flips, h, b=0):
        doubled.append(b)
        return _double(V, flat, flips, h, b)

    for m, p, tau in product((1, 2), (4.0, 4.0 / 3.0, 2.0), (0.0, 0.5)):
        beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
        betas = [beta, beta[:5] + tuple(-b for b in beta[5:])] if N > 5 else [beta]
        cases = [(_random_sequence(rng, N, m), TransformConfig(b, tau)) for b in betas]
        exps = ExponentConfig(p)
        refs = [_reference_exact_ratio(seq, cfg.beta, tau, exps) for seq, cfg in cases]
        for block_points in [martingale._BLOCK_POINTS] + ([2**8] if N <= 14 else []):
            monkeypatch.setattr(martingale, "_BLOCK_POINTS", block_points)
            monkeypatch.setattr(martingale, "_double", counted)
            for (seq, cfg), ref in zip(cases * 2, refs * 2):
                doubled.clear()
                assert perturbed_ratio_exact(seq, cfg, exps) == ref, (
                    N, m, p, tau, cfg.beta, block_points)
                if 2 ** (N + 2) > block_points:  # more than one block: the shared call first
                    assert doubled == [0, *range(2 ** (N + 2) // block_points)], (
                        N, m, block_points)
            monkeypatch.undo()


def test_exact_ratio_head_cache_is_bounded_and_read_only():
    # The cache keys are beta's first h <= 5 signs: 2 + 4 + ... + 32 = 62 of them,
    # all filled by the sweep below, and no deeper call adds one.
    martingale._head_flips.cache_clear()
    rng = np.random.default_rng(np.random.PCG64(62))
    exps = ExponentConfig(4.0)
    for N, m in product(range(1, 9), (1, 2, 3)):
        seq = _random_sequence(rng, N, m)
        for beta in product((-1, 1), repeat=N):
            perturbed_ratio_exact(seq, TransformConfig(beta, 0.5), exps)
    perturbed_ratio_exact(_random_sequence(rng, 20), TransformConfig((1, -1) * 10, 0.5), exps)
    assert martingale._head_flips.cache_info().currsize == 62
    head = martingale._head_flips((1, -1, 1))
    assert head.shape == (2, 1, 3, 16)
    with pytest.raises(ValueError):
        head[0, 0, 0, 0] = 0.0
