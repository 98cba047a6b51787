"""Exact enumeration and extremal search for the perturbed martingale transform.

A depth-N difference sequence F = sum_k d_k(r_0, ..., r_{k-1}) r_k lives on
the sign space {+-1}^(N+1) (d_1 consumes r_0, so there are N+1 coordinates).
The transform flips increment k by beta_k and the quadratic perturbation
pairs the result with tau * F; the exact Lp -> Lp0 ratio is computed by
enumerating all 2^(N+1) sign patterns with uniform weight.

One realization serves the exact ratio and the search: from the tables of a
sequence, one array level after level, `_realize` builds the values of F and
G on the hypercube, its first h <= 5 levels gathered in one step and the rest
by doubling, V <- (V + c, V - c), one sign coordinate a level (O(2^(N+1))
work); the search gradient is reduced by the reverse halving.  The exact
ratio takes its head coefficients from a cache keyed by beta's first h signs
(at most 62 keys), works in blocks of at most `_BLOCK_POINTS` points, forms
its power sums in place and adds the per-block sums in the balanced tree of
numpy's pairwise sum over the whole hypercube.
`search_extremal` ascends consecutive starts together, each with its own
step, and re-verifies every start through `perturbed_ratio_exact`.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from itertools import islice
from itertools import product as _iterproduct

import numpy as np

from .exponents import ExponentConfig

ENUMERATION_CAP = 20

# The exact ratio realizes F and G together in blocks of this many hypercube
# points (a power of two, at least 256), so that every doubling pass stays in
# cache; N <= 14 is one block.
_BLOCK_POINTS = 2**16

# A realization gathers its first h <= _HEAD_LEVELS levels in one step, h
# lower where the 2^(h+1) values of every row and component would pass
# _HEAD_POINTS: a gather makes h products a point, where doubling makes two.
_HEAD_LEVELS, _HEAD_POINTS = 5, 512

# The search ascends consecutive starts together while they hold at most this
# many hypercube points; one unbounded batch costs memory for no further speed.
_BATCH_POINTS = 4096


@dataclass(frozen=True, init=False)
class MartingaleDifferenceSequence:
    """Difference tables d_k: {+-1}^k -> C^m, k = 1..N, held in one read-only array
    flat (2^(N+1) - 2, m), d_k at rows 2^k - 2 ... 2^(k+1) - 3 as in the search and a
    store record.  The constructor takes, and `tables` gives back as views of
    flat, tables[k-1] (2,)*k + (m,), axis j indexing r_j with +1 -> 0, -1 -> 1."""

    flat: np.ndarray

    def __init__(self, tables):
        tabs = [np.asarray(t, dtype=complex) for t in tables]
        if not tabs:
            raise ValueError("need at least one difference table")
        m = tabs[0].shape[-1]
        for k, t in enumerate(tabs, start=1):
            if t.shape != (2,) * k + (m,):
                raise ValueError(
                    f"table {k} has shape {t.shape}, expected {(2,) * k + (m,)}")
        flat = _flat(tabs)
        if not np.isfinite(flat).all():
            row = np.flatnonzero(~np.isfinite(flat).all(axis=1))[0]
            raise ValueError(f"table {int(row + 2).bit_length() - 1} has non-finite entries")
        flat.flags.writeable = False  # store records and `tables` are views of it
        object.__setattr__(self, "flat", flat)

    @property
    def N(self) -> int:
        return (len(self.flat) + 2).bit_length() - 2

    @property
    def m(self) -> int:
        return self.flat.shape[1]

    @property
    def tables(self) -> tuple[np.ndarray, ...]:
        return tuple(t.reshape((2,) * k + (self.m,))
                     for k, t in enumerate(_levels(self.flat), start=1))


@dataclass(frozen=True)
class TransformConfig:
    """Sign flips beta in {+-1}^N and the perturbation weight tau."""

    beta: tuple[int, ...]
    tau: float

    def __post_init__(self):
        if any(b not in (-1, 1) for b in self.beta):  # before int(), which truncates 1.5
            raise ValueError("beta entries must be +-1")
        if not math.isfinite(self.tau * self.tau):
            raise ValueError(f"tau must be finite with a finite square, got {self.tau}")
        object.__setattr__(self, "beta", tuple(int(b) for b in self.beta))


@functools.cache
def _head_plan(h):
    """(rows, signs) (h, 2^(h+1)): at point i, the flat row of d_k and the sign of r_k."""
    i, k = np.arange(2 ** (h + 1)), np.arange(1, h + 1)[:, None]
    return 2**k - 2 + (i >> (h + 1 - k)), 1.0 - 2.0 * (i >> (h - k) & 1)


def _head_levels(N, values, blocks):
    """Head levels h for `values` rows times components, raised to one value a block."""
    return max(1, min(N, _HEAD_LEVELS, (_HEAD_POINTS // values).bit_length() - 2),
               blocks.bit_length() - 2)


@functools.cache
def _head_flips(beta):
    """(1, beta) times the signs: the exact ratio's head coefficients (2, 1, h, 2^(h+1))."""
    coef = np.array([(1,) * len(beta), beta], complex)[:, None, :, None] * _head_plan(len(beta))[1]
    coef.flags.writeable = False  # shared by every call whose beta starts with these h signs
    return coef


def _realize(flat, coef, blocks=1, head=None):
    """Values of sequences on the sign hypercube, yielded in `blocks` blocks.

    flat (..., m, 2^(N+1) - 2) holds d_k at 2^k - 2 ... 2^(k+1) - 3 of its last
    axis; coef (..., N) flips the k-th term by coef[..., k-1], its leading axes
    broadcasting with flat's.  Point index bits run from r_0 (slowest) to r_N
    (fastest), bit 0 for +1; the blocks, a power of two of them, each
    (..., m, 2^(N+1) / blocks), follow in point order.
    The first h levels are gathered in one step, each point's terms (taken by
    _head_plan(h)) times head = coef[..., None, :h, None] * signs added in level
    order; a caller may pass head, and coef, read from its end, then need hold
    only the later levels.  Block b then doubles its slice a level at a time.
    """
    N, m = (flat.shape[-1] + 2).bit_length() - 2, flat.shape[-2]
    if head is None:
        h = _head_levels(N, coef[..., 0].size * m, blocks)
        head = coef[..., None, :h, None] * _head_plan(h)[1]
    h = head.shape[-2]
    # The level axis is outside the contiguous point axis, so the levels add in order.
    V = np.add.reduce(flat.take(_head_plan(h)[0], axis=-1) * head, axis=-2)
    step = V.shape[-1] // blocks
    for b in range(blocks):
        Vb = V[..., b * step:(b + 1) * step]
        for lvl in range(h, N):
            w = 2 ** (lvl + 1) // blocks
            at = 2 ** (lvl + 1) - 2 + b * w
            c = flat[..., at:at + w] * coef[..., lvl - N, None, None]
            new = np.empty(Vb.shape + (2,), dtype=complex)
            np.add(Vb, c, out=new[..., 0])
            np.subtract(Vb, c, out=new[..., 1])
            Vb = new.reshape(Vb.shape[:-1] + (-1,))
        yield Vb


def _tree_sum(xs):
    """Sum of 2^j numbers, added pairwise in a balanced tree."""
    return xs[0] if len(xs) == 1 else _tree_sum([a + b for a, b in zip(xs[0::2], xs[1::2])])


def perturbed_ratio_exact(F: MartingaleDifferenceSequence, cfg: TransformConfig,
                          exps: ExponentConfig) -> float:
    """||(G_N, tau F_N)||_{p0} / ||F_N||_p by full enumeration.

    The pointwise magnitude of the pair is (||G||^2 + tau^2 ||F||^2)^(1/2).
    A zero (or underflowing) ||F_N||_p raises ZeroDivisionError, and a moment
    or ratio out of floating-point range raises FloatingPointError.

    F and G are realized together, one block of the hypercube at a time.
    numpy sums a contiguous row pairwise, splitting it exactly at its halves
    down to 128 elements, so per-block sums (at least 128 points a row) added
    in a balanced tree give the whole-hypercube sums bit for bit.
    """
    N, m = F.N, F.m
    if N > ENUMERATION_CAP:
        raise ValueError(f"depth {N} exceeds enumeration cap {ENUMERATION_CAP}")
    if len(cfg.beta) != N:
        raise ValueError(f"beta must have length {N}")
    blocks = max(1, 2 ** (N + 2) // _BLOCK_POINTS)
    h = _head_levels(N, 2 * m, blocks)
    # Complex flips spare a cast in every table product; a product by +-1 is exact.
    tail = np.array([(1,) * (N - h), cfg.beta[h:]], dtype=complex) if N > h else None
    p2, p02, tau2, P = exps.p / 2.0, exps.p0 / 2.0, cfg.tau**2, 2 ** (N + 1)
    sums = []  # [den, num] a block
    # Overflowing squares become inf or NaN here and are refused below.
    with np.errstate(over="ignore", invalid="ignore"):
        for V in _realize(F.flat.T, tail, blocks, _head_flips(cfg.beta[:h])):
            s = np.abs(V)
            np.square(s, out=s)
            s = s.sum(-2) if m > 1 else s[..., 0, :]  # the sum of one square is that square
            n2, g2 = s  # made in place into |F|^p and (|G|^2 + tau^2 |F|^2)^(p0/2)
            g2 += tau2 * n2
            n2 **= p2
            g2 **= p02
            sums.append(np.add.reduce(s, axis=-1).tolist())  # each row summed as by .sum()
            del V, s, n2, g2  # one block at a time in memory
        den, num = (_tree_sum(x) / P for x in zip(*sums))
        if not (math.isfinite(den) and math.isfinite(num)):  # den = inf would give 0.0
            raise FloatingPointError(f"E|F_N|^p = {den} or E|(G_N, tau F_N)|^p0 = {num} "
                                     "is not finite: the input is out of range")
        if not den > 0.0:
            raise ZeroDivisionError("F_N has zero L^p norm")
        ratio = num ** (1.0 / exps.p0) / den ** (1.0 / exps.p)
    if not math.isfinite(ratio):
        raise FloatingPointError(f"ratio {ratio} is not finite: the input is out of range")
    return ratio


# --- extremal search -------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    sequence: MartingaleDifferenceSequence
    beta: tuple[int, ...]
    ratio: float
    stopped_by: str = "iters"


def _levels(x):
    """Views of flat tables x (..., 2^(N+1) - 2, m) as tables[k-1] (..., 2^k, m)."""
    N = (x.shape[-2] + 2).bit_length() - 2
    return [x[..., 2**k - 2: 2**(k + 1) - 2, :] for k in range(1, N + 1)]


def _flat(tables):
    return np.concatenate([t.reshape(-1, t.shape[-1]) for t in tables])


def _ratio_and_grad(x, coef, tau, p, p0):
    """Log-ratio objective of B sequences and its ascent gradient.

    x holds the flat complex tables (B, 2^(N+1) - 2, m) and coef the flips
    (B, N).  Returns (J, grad): J (B,) the log of each perturbed ratio, grad
    the complex gradient 2 dJ/d(conj x), shaped like x.  The gradient is
    reduced by repeated halving: summing out the last coordinate r_k leaves
    the weights on r_0..r_{k-1}, whose +/- difference is the level-k term.
    """
    B, _, m = x.shape
    flips = np.ones((2,) + coef.shape, dtype=complex)
    flips[1] = coef
    [V] = _realize(x.swapaxes(-1, -2), flips)
    n2, g2 = np.sum(np.abs(V) ** 2, axis=-2)
    h = g2 + tau * tau * n2
    P = n2.shape[1]

    Dp = np.sum(n2 ** (p / 2.0), axis=1) / P
    Up0 = np.sum(h ** (p0 / 2.0), axis=1) / P
    if np.any(Dp <= 0.0) or np.any(Up0 < 0.0):
        raise ZeroDivisionError("degenerate tables in search")
    J = np.log(Up0) / p0 - np.log(Dp) / p

    with np.errstate(divide="ignore", invalid="ignore"):
        hpow = np.where(h > 0, h ** (p0 / 2.0 - 1.0), 0.0)
        npow = np.where(n2 > 0, n2 ** (p / 2.0 - 1.0), 0.0)
    coefF = (tau * tau * hpow / (2.0 * Up0[:, None]) - npow / (2.0 * Dp[:, None])) / P
    coefG = hpow / (2.0 * Up0[:, None] * P)
    WF = coefF[:, None] * V[0]
    WG = coefG[:, None] * V[1]

    grad = np.empty_like(x)
    for k, g in reversed(list(enumerate(_levels(grad), start=1))):
        WF = WF.reshape(B, m, -1, 2)
        WG = WG.reshape(B, m, -1, 2)
        g.swapaxes(-1, -2)[:] = 2.0 * (WF[..., 0] - WF[..., 1]
                                       + coef[:, k - 1, None, None] * (WG[..., 0] - WG[..., 1]))
        if k > 1:
            WF = WF[..., 0] + WF[..., 1]
            WG = WG[..., 0] + WG[..., 1]
    return J, grad


def _normalize(x):
    scale = np.sqrt(np.sum(np.abs(x) ** 2, axis=(1, 2)))
    if np.any(scale == 0.0):
        raise ZeroDivisionError("zero tables")
    return x / scale[:, None, None]


def _ascend(x, coef, tau, p, p0, iters, deadline):
    """Normalized gradient ascent with step halving on non-improvement.

    Each row of x (B, 2^(N+1) - 2, m) ascends on its own, with its own step;
    a row that stops (vanishing gradient or step) leaves the batch.  Returns
    the ascended tables and whether the wall-clock deadline cut the ascent.
    """
    out = _normalize(x)
    rows = np.arange(len(out))
    xl = out.copy()
    J, g = _ratio_and_grad(xl, coef, tau, p, p0)
    step = np.full(len(out), 0.25)
    for _ in range(iters):
        gnorm = np.sqrt(np.sum(np.abs(g) ** 2, axis=(1, 2)))
        go = (gnorm >= 1e-14) & (step >= 1e-13)
        if not go.all():
            out[rows[~go]] = xl[~go]
            rows, xl, coef, J, g, step, gnorm = (
                a[go] for a in (rows, xl, coef, J, g, step, gnorm))
            if not len(rows):
                break
        trial = _normalize(xl + step[:, None, None] * g / gnorm[:, None, None])
        J_try, g_try = _ratio_and_grad(trial, coef, tau, p, p0)
        acc = J_try > J
        xl[acc], J[acc], g[acc] = trial[acc], J_try[acc], g_try[acc]
        step = np.where(acc, np.minimum(step * 1.5, 1.0), step * 0.5)
        if time.monotonic() > deadline:
            out[rows] = xl
            return out, True
    out[rows] = xl
    return out, False


def _beta_candidates(N, rng, restarts, warm_beta=None):
    """Systematic sweep for N <= 4, randomized (plus all-ones) otherwise.

    The sweep also serves any N with fewer than max(8, restarts) patterns,
    where distinct random draws could never fill the quota.  The warm beta
    extended by all +1 and by all -1 is always a candidate, so the
    zero-extended warm start is always ascended.
    """
    if N <= 4 or max(8, restarts) > 2**N:
        return [tuple(b) for b in _iterproduct((-1, 1), repeat=N)]
    cands = {(1,) * N, tuple([-1] + [1] * (N - 1))}
    if warm_beta is not None:
        cands |= {warm_beta + (s,) * (N - len(warm_beta)) for s in (1, -1)}
    while len(cands) < max(8, restarts):
        cands.add(tuple(int(b) for b in rng.choice([-1, 1], size=N)))
    return sorted(cands)


def search_extremal(exps: ExponentConfig, tau: float, N: int, *, restarts: int, iters: int,
                    seed: int, wall_cap_s: float,
                    warm_start: SearchResult | None = None) -> SearchResult:
    """Best (F, beta) found by alternating maximization, deterministic per seed.

    The budget is `restarts` random starts per candidate beta, `iters` ascent
    steps per start and a wall cap of `wall_cap_s` seconds; a value that is not
    positive (NaN included) is refused before any work.

    For each candidate beta the tables are ascended from random complex
    Gaussian restarts, and from a warm start's flat array followed by zero
    rows (the same ratio) and by rows of 1e-6 noise, for the warm beta's extensions.
    Consecutive starts are ascended together in batches of at most
    _BATCH_POINTS hypercube points; each start's result does not depend on
    its batch.  Every ascended start is re-verified through
    perturbed_ratio_exact, in start order.  Ties in the ratio break toward
    the lexicographically smallest beta.  `iters` bounds every ascent; the
    wall cap is a guard, and when it fires no further batch starts and the
    result records stopped_by = "wall".
    """
    if not (restarts >= 1 and iters >= 1 and wall_cap_s > 0):
        raise ValueError("budget fields must be positive")
    if N < 1 or N > ENUMERATION_CAP:
        raise ValueError(f"depth must be in 1..{ENUMERATION_CAP}, got {N}")
    if not math.isfinite(tau * tau):
        raise ValueError(f"tau must be finite with a finite square, got {tau}")
    p, p0 = exps.p, exps.p0

    if abs(p - 2.0) < 1e-12 and abs(p0 - 2.0) < 1e-12:
        # Orthogonality of martingale differences makes every nonzero F
        # extremal at p = 2; no search needed.
        tables = [np.zeros((2,) * k + (1,), dtype=complex) for k in range(1, N + 1)]
        tables[0][:] = 1.0
        seq = MartingaleDifferenceSequence(tuple(tables))
        beta = (1,) * N
        ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
        return SearchResult(seq, beta, ratio)

    rng = np.random.default_rng(np.random.PCG64(seed))
    deadline = time.monotonic() + wall_cap_s
    m = warm_start.sequence.m if warm_start is not None else 1

    warm, warm_beta_prefix = [], None
    if warm_start is not None:
        base, warm_beta_prefix = warm_start.sequence.flat, warm_start.beta
        if warm_start.sequence.N > N:
            raise ValueError("warm start deeper than requested depth")
        with np.errstate(over="ignore"):  # refused once here, not in every ascent step
            if not math.isfinite(np.sum(np.abs(base) ** 2)):
                raise FloatingPointError("warm start tables out of range: their squares overflow")
        # The zero-extended optimum sits on a saddle (the gradient in the
        # appended levels vanishes identically); a noised copy escapes it
        # while the exact copy pins the ratio floor.
        noise = [1e-6 * (rng.standard_normal((2**k, m)) + 1j * rng.standard_normal((2**k, m)))
                 for k in range(warm_start.sequence.N + 1, N + 1)]
        warm = [np.concatenate([base, np.zeros((2 ** (N + 1) - 2 - len(base), m), complex)]),
                np.concatenate([base, *noise])]

    def starts():
        """(beta, flat tables) in the order, and from the rng draws, of the search."""
        for beta in _beta_candidates(N, rng, restarts, warm_beta_prefix):
            if warm and beta[: len(warm_beta_prefix)] == warm_beta_prefix:
                yield from ((beta, x) for x in warm)
            for _ in range(restarts):
                yield beta, _flat([rng.standard_normal((2**k, m))
                                   + 1j * rng.standard_normal((2**k, m))
                                   for k in range(1, N + 1)])

    rows = max(1, _BATCH_POINTS // 2 ** (N + 1))
    pending = starts()
    best = None  # (ratio, beta, sequence)
    fired = False
    while not fired and (batch := list(islice(pending, rows))):
        betas = [beta for beta, _ in batch]
        x, fired = _ascend(np.stack([x for _, x in batch]), np.array(betas, dtype=float),
                           tau, p, p0, iters, deadline)
        for beta, row in zip(betas, x):
            seq = MartingaleDifferenceSequence(tuple(
                t.reshape((2,) * k + (m,)) for k, t in enumerate(_levels(row), start=1)))
            ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
            if best is None or ratio > best[0] + 1e-13 or (
                    abs(ratio - best[0]) <= 1e-13 and beta < best[1]):
                best = (ratio, beta, seq)

    ratio, beta, seq = best
    return SearchResult(seq, beta, ratio, "wall" if fired else "iters")
