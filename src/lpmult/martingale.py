"""Exact enumeration and extremal search for the perturbed martingale transform.

A depth-N difference sequence F = sum_k d_k(r_0, ..., r_{k-1}) r_k lives on
the sign space {+-1}^(N+1) (d_1 consumes r_0, so there are N+1 coordinates).
The transform flips increment k by beta_k and the quadratic perturbation
pairs the result with tau * F; the exact Lp -> Lp ratio is computed by
enumerating all 2^(N+1) sign patterns with uniform weight.

One realization serves the exact ratio and the search: from the tables of a
sequence, one array level after level, `_head_values` gathers the values of F
and G at the first h <= 5 levels in one step, and `_double` takes them through
the rest, V <- (V + c, V - c), one sign coordinate a level (O(2^(N+1)) work);
the search gradient is reduced by the reverse halving.  The exact ratio takes
its head coefficients from a cache keyed by beta's first h signs (at most 62
keys), doubles each block of at most `_BLOCK_POINTS` points on its own (no
doubling where N <= h), forms its power sums in place and adds the per-block
sums in the balanced tree of numpy's pairwise sum over the whole hypercube.
`search_extremal` polishes two Bellman policy starts together, each with its
own step, and re-verifies both through `perturbed_ratio_exact`.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .exponents import ExponentConfig
from .policy import policy_flat

ENUMERATION_CAP = 20

# The exact ratio realizes F and G together in blocks of this many hypercube
# points (a power of two, at least 256), so that every doubling pass stays in
# cache; N <= 14 is one block.
_BLOCK_POINTS = 2**16

# A realization gathers its first h <= _HEAD_LEVELS levels in one step, h
# lower where the 2^(h+1) values of every row and component would pass
# _HEAD_POINTS: a gather makes h products a point, where doubling makes two.
_HEAD_LEVELS, _HEAD_POINTS = 5, 512


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


@functools.cache
def _head_levels(N, values, blocks):
    """Head levels h for `values` rows times components, raised to one value a block."""
    return max(1, min(N, _HEAD_LEVELS, (_HEAD_POINTS // values).bit_length() - 2),
               blocks.bit_length() - 2)


# A doubling level's flips (1, beta_k) in the exact ratio, for beta_k = +1 and -1.
# Complex flips spare a cast in every table product; a product by +-1 is exact.
_LEVEL_FLIPS = {b: np.array([1, b], complex).reshape(2, 1, 1) for b in (1, -1)}
for _f in _LEVEL_FLIPS.values():
    _f.flags.writeable = False


@functools.cache
def _head_flips(beta):
    """(1, beta) times the signs: the exact ratio's head coefficients (2, 1, h, 2^(h+1))."""
    coef = np.array([(1,) * len(beta), beta], complex)[:, None, :, None] * _head_plan(len(beta))[1]
    coef.flags.writeable = False  # shared by every call whose beta starts with these h signs
    return coef


def _head_values(flat, head):
    """Values of sequences at their first h sign levels, gathered in one step.

    flat (..., m, 2^(N+1) - 2) holds d_k at 2^k - 2 ... 2^(k+1) - 3 of its last
    axis, and head (..., h, 2^(h+1)) level k's flip times the sign of r_k at
    each point: coef[..., None, :h, None] * _head_plan(h)[1] for flips coef
    (..., N).  Each point adds its terms in level order; point index bits run
    from r_0 (slowest) to r_h, bit 0 for +1.  Returns (..., m, 2^(h+1)).
    """
    # The level axis is outside the contiguous point axis, so the levels add in order.
    return np.add.reduce(flat.take(_head_plan(head.shape[-2])[0], axis=-1) * head, axis=-2)


def _double(V, flat, flips, b=0):
    """Block b of the values V (..., m, w) doubled through the last len(flips) levels.

    Each level appends its sign as the fastest bit, V <- (V + c, V - c): c is the
    level's table on the block's prefixes times the level's entry of flips,
    which broadcasts with (..., m, w).  Block b of a hypercube cut into equal
    blocks in point order holds prefixes b * w ... (b + 1) * w - 1 of a level,
    w the block's width there.
    """
    N = (flat.shape[-1] + 2).bit_length() - 2
    for lvl, f in enumerate(flips, start=N - len(flips)):
        w = V.shape[-1]
        at = 2 ** (lvl + 1) - 2 + b * w
        c = flat[..., at:at + w] * f
        new = np.empty(V.shape + (2,), dtype=complex)
        np.add(V, c, out=new[..., 0])
        np.subtract(V, c, out=new[..., 1])
        V = new.reshape(V.shape[:-1] + (-1,))
    return V


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN moments are refused below
def perturbed_ratio_exact(F: MartingaleDifferenceSequence, cfg: TransformConfig,
                          exps: ExponentConfig) -> float:
    """||(G_N, tau F_N)||_p / ||F_N||_p by full enumeration.

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
    flat, tail = F.flat.T, [_LEVEL_FLIPS[b] for b in cfg.beta[h:]]
    p2, tau2, P = exps.p / 2.0, cfg.tau**2, 2 ** (N + 1)
    sums = []  # [den, num] a block
    V = _head_values(flat, _head_flips(cfg.beta[:h]))
    step = V.shape[-1] // blocks
    for b in range(blocks):
        Vb = V[..., b * step:(b + 1) * step] if blocks > 1 else V
        s = np.abs(_double(Vb, flat, tail, b) if tail else Vb)
        np.square(s, out=s)
        s = s.sum(-2) if m > 1 else s[..., 0, :]  # the sum of one square is that square
        if tau2:  # |G|^2 + 0 |F|^2 is |G|^2 for a finite |F|^2; a non-finite one fails den below
            s[1] += tau2 * s[0]
        s **= p2  # in place, one pass: rows |F|^p and (|G|^2 + tau^2 |F|^2)^(p/2)
        sums.append(np.add.reduce(s, -1).tolist())  # each row summed as by .sum()
        del s  # one block at a time in memory
    while len(sums) > 1:  # the balanced tree of numpy's pairwise sum over the hypercube
        sums = [[d0 + d1, n0 + n1] for (d0, n0), (d1, n1) in zip(sums[0::2], sums[1::2])]
    [(den, num)] = sums
    den, num = den / P, num / P
    if not (math.isfinite(den) and math.isfinite(num)):  # den = inf would give 0.0
        raise FloatingPointError(f"E|F_N|^p = {den} or E|(G_N, tau F_N)|^p = {num} "
                                 "is not finite: the input is out of range")
    if not den > 0.0:
        raise ZeroDivisionError("F_N has zero L^p norm")
    ratio = num ** (1.0 / exps.p) / den ** (1.0 / exps.p)
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


def _ratio_and_grad(x, coef, tau, p):
    """Log-ratio objective of B sequences and its ascent gradient.

    x holds the flat complex tables (B, 2^(N+1) - 2, m) and coef the flips
    (B, N).  Returns (J, grad): J (B,) the log of each perturbed ratio, grad
    the complex gradient 2 dJ/d(conj x), shaped like x.  The gradient is
    reduced by repeated halving: summing out the last coordinate r_k leaves
    the weights on r_0..r_{k-1}, whose +/- difference is the level-k term.
    """
    B, N, m = x.shape[0], coef.shape[1], x.shape[2]
    flips = np.ones((2,) + coef.shape, dtype=complex)
    flips[1] = coef
    hl = _head_levels(N, 2 * B * m, 1)
    flat = x.swapaxes(-1, -2)
    V = _double(_head_values(flat, flips[..., None, :hl, None] * _head_plan(hl)[1]), flat,
                np.moveaxis(flips[..., None, None, hl:], -1, 0))
    n2, g2 = np.sum(V.real ** 2 + V.imag ** 2, axis=-2)  # |V|^2 with no hypot pass
    h = g2 + tau * tau * n2
    P = n2.shape[1]

    Dp = np.sum(n2 ** (p / 2.0), axis=1) / P
    Up = np.sum(h ** (p / 2.0), axis=1) / P
    if np.any(Dp <= 0.0):
        raise ZeroDivisionError("degenerate tables in search")
    J = np.log(Up) / p - np.log(Dp) / p

    with np.errstate(divide="ignore", invalid="ignore"):
        hpow = np.where(h > 0, h ** (p / 2.0 - 1.0), 0.0)
        npow = np.where(n2 > 0, n2 ** (p / 2.0 - 1.0), 0.0)
    coefF = (tau * tau * hpow / (2.0 * Up[:, None]) - npow / (2.0 * Dp[:, None])) / P
    coefG = hpow / (2.0 * Up[:, None] * P)
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


def _ascend(x, coef, tau, p, iters, deadline):
    """Normalized gradient ascent with step halving on non-improvement.

    Each row of x (B, 2^(N+1) - 2, m) ascends on its own, with its own step;
    a row that stops (vanishing gradient or step) leaves the batch.  Returns
    the ascended tables and whether the wall-clock deadline cut the ascent.
    """
    out = _normalize(x)
    rows = np.arange(len(out))
    xl = out.copy()
    J, g = _ratio_and_grad(xl, coef, tau, p)
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
        J_try, g_try = _ratio_and_grad(trial, coef, tau, p)
        acc = J_try > J
        xl[acc], J[acc], g[acc] = trial[acc], J_try[acc], g_try[acc]
        step = np.where(acc, np.minimum(step * 1.5, 1.0), step * 0.5)
        if time.monotonic() > deadline:
            out[rows] = xl
            return out, True
    out[rows] = xl
    return out, False


def check_search(N: int, tau: float, *, iters: int, wall_cap_s: float) -> None:
    """Refuse a depth outside 1..ENUMERATION_CAP, a tau TransformConfig refuses and a
    budget field that is not positive (NaN included)."""
    if N < 1 or N > ENUMERATION_CAP:
        raise ValueError(f"depth must be in 1..{ENUMERATION_CAP}, got {N}")
    TransformConfig((), tau)
    if not (iters >= 1 and wall_cap_s > 0):
        raise ValueError("budget fields must be positive")


def search_extremal(exps: ExponentConfig, tau: float, N: int, *, iters: int,
                    wall_cap_s: float) -> SearchResult:
    """Best (F, beta) of two Bellman policy starts, each polished by gradient ascent.

    The starts are `policy_flat`'s tables for the alternating beta and for it
    with beta_N = beta_(N-1) (the first alone at N = 1), so every table has
    m = 1 and no number is drawn at random.  Both ascend together, each on its
    own with its own step, for at most `iters` steps; the wall cap of
    `wall_cap_s` seconds is a guard, and when it cuts the ascent the result
    records stopped_by = "wall".  `check_search` refuses a bad depth, tau or
    budget before any work.  Each polished start is re-verified through
    perturbed_ratio_exact, in start order; ties in the ratio break toward the
    lexicographically smallest beta.
    """
    check_search(N, tau, iters=iters, wall_cap_s=wall_cap_s)
    p = exps.p

    if abs(p - 2.0) < 1e-12:
        # Orthogonality of martingale differences makes every nonzero F
        # extremal at p = 2; no search needed.
        tables = [np.zeros((2,) * k + (1,), dtype=complex) for k in range(1, N + 1)]
        tables[0][:] = 1.0
        seq = MartingaleDifferenceSequence(tuple(tables))
        beta = (1,) * N
        ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
        return SearchResult(seq, beta, ratio)

    deadline = time.monotonic() + wall_cap_s
    alt = tuple((-1) ** k for k in range(N))
    betas = [alt, alt[:-1] + alt[-2:-1]][:min(N, 2)]
    x, fired = _ascend(np.stack([policy_flat(p, tau, beta, N)[0] + 0j for beta in betas]),
                       np.array(betas, dtype=float), tau, p, iters, deadline)
    best = None  # (ratio, beta, sequence)
    for beta, row in zip(betas, x):
        seq = MartingaleDifferenceSequence(tuple(
            t.reshape((2,) * k + (1,)) for k, t in enumerate(_levels(row), start=1)))
        ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
        if best is None or ratio > best[0] + 1e-13 or (
                abs(ratio - best[0]) <= 1e-13 and beta < best[1]):
            best = (ratio, beta, seq)

    ratio, beta, seq = best
    return SearchResult(seq, beta, ratio, "wall" if fired else "iters")
