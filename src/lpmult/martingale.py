"""Exact enumeration and extremal search for the perturbed martingale transform.

A depth-N difference sequence F = sum_k d_k(r_0, ..., r_{k-1}) r_k lives on
the sign space {+-1}^(N+1) (d_1 consumes r_0, so there are N+1 coordinates).
The transform flips increment k by beta_k and the quadratic perturbation
pairs the result with tau * F; the exact Lp -> Lp ratio is computed by
enumerating all 2^(N+1) sign patterns with uniform weight.

One realization serves the exact ratio: from the tables of a sequence, one
array level after level, `_head_values` gathers the values of F and G at the
first h = min(N, 5) levels in one step, and `_double` takes them through the rest,
one sign coordinate a level (O(2^(N+1)) work): F <- (F + t, F - t) and
G <- (G + beta_k t, G - beta_k t), the level's table t added as it is and
beta_k choosing only which half of G gets the sum.  The head coefficients come
from a cache keyed by beta's first h signs (at most 62 keys).  The exact ratio
doubles the levels its blocks share once, then each block of `_BLOCK_POINTS`
points through the rest (none where N <= h), forms its power sums in place, a
square at p = 4, and adds the per-block sums in numpy's pairwise-sum tree.
`search_extremal` returns the better of two Bellman policy starts, a `Policy`
chosen by each start's `Policy.ratio()`; the certificate alone enumerates the
winner's `Policy.sequence()`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .exponents import ExponentConfig, Frozen

ENUMERATION_CAP = 20

# The exact ratio realizes F and G together in blocks of this many hypercube
# points (a power of two, at least 256), so that every doubling pass stays in
# cache; N <= 14 is one block.
_BLOCK_POINTS = 2**16

# A realization gathers its first h = min(N, _HEAD_LEVELS) levels in one step.
_HEAD_LEVELS = 5


class MartingaleDifferenceSequence(Frozen):
    """Difference tables d_k: {+-1}^k -> C^m, k = 1..N, held in one read-only array
    flat (2^(N+1) - 2, m), d_k at rows 2^k - 2 ... 2^(k+1) - 3 as in a store
    record.  The constructor takes, and `tables` gives back as views of
    flat, tables[k-1] (2,)*k + (m,), axis j indexing r_j with +1 -> 0, -1 -> 1."""

    __slots__ = ("flat",)

    def __init__(self, tables):
        tabs = [np.asarray(t) for t in tables]
        if not tabs:
            raise ValueError("need at least one difference table")
        m = tabs[0].shape[-1]
        for k, t in enumerate(tabs, start=1):
            if t.dtype.kind not in "biufc":
                raise ValueError(f"table {k} has non-numeric entries of type {t.dtype}")
            if t.shape != (2,) * k + (m,):
                raise ValueError(
                    f"table {k} has shape {t.shape}, expected {(2,) * k + (m,)}")
        flat = np.concatenate([t.reshape(-1, m) for t in tabs], dtype=complex)  # one copy
        if not np.isfinite(flat).all():
            row = np.flatnonzero(~np.isfinite(flat).all(axis=1))[0]
            raise ValueError(f"table {int(row + 2).bit_length() - 1} has non-finite entries")
        flat.flags.writeable = False  # store records and `tables` are views of it
        super().__init__(flat)

    @property
    def N(self) -> int:
        return (len(self.flat) + 2).bit_length() - 2

    @property
    def m(self) -> int:
        return self.flat.shape[1]

    @property
    def tables(self) -> tuple[np.ndarray, ...]:
        return tuple(self.flat[2**k - 2:2**(k + 1) - 2].reshape((2,) * k + (self.m,))
                     for k in range(1, self.N + 1))


class TransformConfig(Frozen):
    """Sign flips beta in {+-1}^N and the perturbation weight tau."""

    __slots__ = ("beta", "tau")

    def __init__(self, beta: tuple[int, ...], tau: float):
        if any(b not in (-1, 1) for b in beta):  # before int(), which truncates 1.5
            raise ValueError("beta entries must be +-1")
        if not math.isfinite(tau * tau):
            raise ValueError(f"tau must be finite with a finite square, got {tau}")
        super().__init__(tuple(int(b) for b in beta), tau)


@functools.cache
def _head_plan(h):
    """(rows, signs) (h, 2^(h+1)): at point i, the flat row of d_k and the sign of r_k."""
    i, k = np.arange(2 ** (h + 1)), np.arange(1, h + 1)[:, None]
    return 2**k - 2 + (i >> (h + 1 - k)), 1.0 - 2.0 * (i >> (h - k) & 1)


@functools.cache
def _head_levels(N, blocks):
    """(h, k): the h = min(N, _HEAD_LEVELS) head levels, whatever the rows and components,
    and the k = N - log2(blocks) levels all blocks share (the hypercube one block's row
    wide), raised to a column a block."""
    return min(N, _HEAD_LEVELS), max(N + 1 - blocks.bit_length(), blocks.bit_length() - 2)


@functools.cache
def _head_flips(beta):
    """(1, beta) times the signs: the head coefficients (2, 1, h, 2^(h+1)) of F and G."""
    coef = np.array([(1,) * len(beta), beta], complex)[:, None, :, None] * _head_plan(len(beta))[1]
    coef.flags.writeable = False  # shared by every call whose beta starts with these h signs
    return coef


def _head_values(flat, head):
    """Values of sequences at their first h sign levels, gathered in one step.

    flat (..., m, 2^(N+1) - 2) holds d_k at 2^k - 2 ... 2^(k+1) - 3 of its last
    axis, and head (..., h, 2^(h+1)) level k's flip times the sign of r_k at
    each point, as `_head_flips(beta[:h])` gives for F and G.  Each point adds
    its terms in level order; point index bits run from r_0 (slowest) to r_h,
    bit 0 for +1.  Returns (..., m, 2^(h+1)).
    """
    # The level axis is outside the contiguous point axis, so the levels add in order.
    return np.add.reduce(flat.take(_head_plan(head.shape[-2])[0], axis=-1) * head, axis=-2)


def _double(V, flat, beta, h, b=0):
    """Block b of the (F, G) values V (2, ..., m, w) at level h doubled through levels
    h + 1 ... h + len(beta), beta their flips.

    Each level appends its sign as the fastest bit: F <- (F + t, F - t) and
    G <- (G + beta_k t, G - beta_k t), t the level's table on the block's
    prefixes broadcast over F and G; where beta_k = -1 the same two ufunc
    calls write through strided views.  Block b of a hypercube cut into equal
    blocks in point order holds prefixes b * w ... (b + 1) * w - 1 of a
    level, w the block's width there.
    """
    for lvl, bk in enumerate(beta, start=h):
        w = V.shape[-1]
        at = 2 ** (lvl + 1) - 2 + b * w
        t = flat[..., at:at + w]
        new = np.empty(V.shape + (2,), dtype=complex)
        plus, minus = new[..., 0], new[..., 1]
        if bk < 0:  # row r of the sum at new[r, ..., r], of the difference at new[r, ..., 1 - r]
            s0, d, rest = new.strides[0], new.itemsize, new.strides[1:-1]
            plus = np.ndarray(V.shape, complex, new, 0, (s0 + d,) + rest)
            minus = np.ndarray(V.shape, complex, new, d, (s0 - d,) + rest)
        np.add(V, t, out=plus)
        np.subtract(V, t, out=minus)
        V = new.reshape(V.shape[:-1] + (-1,))
    return V


@np.errstate(over="ignore", invalid="ignore")  # inf and NaN moments are refused below
def perturbed_ratio_exact(F: MartingaleDifferenceSequence, cfg: TransformConfig,
                          exps: ExponentConfig) -> float:
    """||(G_N, tau F_N)||_p / ||F_N||_p by full enumeration.

    The pointwise magnitude of the pair is (||G||^2 + tau^2 ||F||^2)^(1/2).
    A zero (or underflowing) ||F_N||_p raises ZeroDivisionError, and a moment
    or ratio out of floating-point range raises FloatingPointError.

    F and G are realized together, the levels all blocks share once, then a block at a time.
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
    h, k = _head_levels(N, blocks)
    flat, tail = F.flat.T, cfg.beta[k:]
    p2, tau2, P = exps.p / 2.0, cfg.tau**2, 2 ** (N + 1)
    sums = []  # [den, num] a block
    V = _head_values(flat, _head_flips(cfg.beta[:h]))
    if k > h:  # the levels every block shares, doubled once for the whole hypercube
        V = _double(V, flat, cfg.beta[h:k], h)
    step = V.shape[-1] // blocks
    for b in range(blocks):
        Vb = V[..., b * step:(b + 1) * step] if blocks > 1 else V
        s = np.abs(_double(Vb, flat, tail, k, b) if tail else Vb)
        np.square(s, out=s)
        s = s.sum(-2) if m > 1 else s[..., 0, :]  # the sum of one square is that square
        if tau2:  # |G|^2 + 0 |F|^2 is |G|^2 for a finite |F|^2; a non-finite one fails den below
            s[1] += tau2 * s[0]
        # In place, one pass: rows |F|^p and (|G|^2 + tau^2 |F|^2)^(p/2), a square at p = 4.
        np.square(s, out=s) if p2 == 2.0 else np.power(s, p2, out=s)
        sums.append(np.add.reduce(s, -1).tolist())  # each row summed as by .sum()
        del s  # one block at a time in memory
    while len(sums) > 1:  # the balanced tree of numpy's pairwise sum over the hypercube
        sums = [[d0 + d1, n0 + n1] for (d0, n0), (d1, n1) in zip(sums[0::2], sums[1::2])]
    [(den, num)] = sums
    den, num = den / P, num / P
    if not (math.isfinite(den) and math.isfinite(num)):  # den = inf would give 0.0
        raise FloatingPointError(f"E|F_N|^p = {den} or E|(G_N, tau F_N)|^p = {num} is not "
                                 f"finite at p = {exps.p}, tau = {cfg.tau}: the input is out "
                                 "of range")
    if not den > 0.0:
        raise ZeroDivisionError("F_N has zero L^p norm")
    ratio = num ** (1.0 / exps.p) / den ** (1.0 / exps.p)
    if not math.isfinite(ratio):
        raise FloatingPointError(f"ratio {ratio} is not finite: the input is out of range")
    return ratio


# --- extremal search -------------------------------------------------------


def check_search(N: int, tau: float) -> None:
    """Refuse a depth outside 1..ENUMERATION_CAP and a tau TransformConfig refuses."""
    if N < 1 or N > ENUMERATION_CAP:
        raise ValueError(f"depth must be in 1..{ENUMERATION_CAP}, got {N}")
    TransformConfig((), tau)


def search_extremal(exps: ExponentConfig, tau: float, N: int):
    """The better `lpmult.policy.Policy` of two Bellman policy starts, at every p.

    The starts are `solve_policy`'s policies for the alternating beta and for it with
    beta_N = beta_(N-1) (the first alone at N = 1): no number drawn at random and no clock
    read.  `check_search` refuses a bad depth or tau before any work.  Each start is valued
    by its `Policy.ratio()`, ties within 1e-13 going to the smaller beta; no table is built.
    """
    check_search(N, tau)
    from .policy import solve_policy  # loaded by a search alone
    alt = tuple((-1) ** k for k in range(N))
    best = None
    for beta in [alt, alt[:-1] + alt[-2:-1]][:min(N, 2)]:
        pol = solve_policy(exps.p, tau, beta, N)
        ratio = pol.ratio()
        if best is None or ratio > best[1] + 1e-13 or (
                abs(ratio - best[1]) <= 1e-13 and beta < best[0].beta):
            best = pol, ratio
    return best[0]
