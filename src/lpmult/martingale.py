"""Exact enumeration and extremal search for the perturbed martingale transform.

A depth-N difference sequence F = sum_k d_k(r_0, ..., r_{k-1}) r_k lives on
the sign space {+-1}^(N+1) (d_1 consumes r_0, so there are N+1 coordinates).
The transform flips increment k by beta_k and the quadratic perturbation
pairs the result with tau * F; the exact Lp -> Lp0 ratio is computed by
enumerating all 2^(N+1) sign patterns with uniform weight.

One realization serves the exact ratio and the search: `_realize` builds the
values of B sequences on the hypercube by doubling, appending one sign
coordinate per level (O(2^(N+1)) work), and the search gradient is reduced by
the reverse halving.  `search_extremal` ascends consecutive starts together,
each with its own step, and re-verifies every start through
`perturbed_ratio_exact`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice
from itertools import product as _iterproduct

import numpy as np

from .exponents import ExponentConfig

__all__ = [
    "MartingaleDifferenceSequence",
    "TransformConfig",
    "SearchBudget",
    "SearchResult",
    "evaluate_sequence",
    "perturbed_ratio_exact",
    "extend_with_zero",
    "search_extremal",
    "ENUMERATION_CAP",
]

ENUMERATION_CAP = 20

# Sign-to-index convention: r = +1 maps to index 0, r = -1 to index 1.


def _sign_index(r: int) -> int:
    if r == 1:
        return 0
    if r == -1:
        return 1
    raise ValueError(f"signs must be +-1, got {r}")


@dataclass(frozen=True)
class MartingaleDifferenceSequence:
    """Difference tables d_k: {+-1}^k -> C^m for k = 1..N.

    tables[k-1] has shape (2,)*k + (m,), axis j indexing r_j with the
    convention +1 -> 0, -1 -> 1.
    """

    tables: tuple[np.ndarray, ...]

    def __post_init__(self):
        tabs = tuple(np.asarray(t, dtype=complex) for t in self.tables)
        if not tabs:
            raise ValueError("need at least one difference table")
        m = tabs[0].shape[-1]
        for k, t in enumerate(tabs, start=1):
            if t.shape != (2,) * k + (m,):
                raise ValueError(
                    f"table {k} has shape {t.shape}, expected {(2,) * k + (m,)}")
            if not np.all(np.isfinite(t)):
                raise ValueError(f"table {k} has non-finite entries")
        object.__setattr__(self, "tables", tabs)

    @property
    def N(self) -> int:
        return len(self.tables)

    @property
    def m(self) -> int:
        return self.tables[0].shape[-1]

    def is_zero(self) -> bool:
        return all(np.all(t == 0) for t in self.tables)

    @classmethod
    def scalar(cls, tables) -> "MartingaleDifferenceSequence":
        """Build from scalar tables of shape (2,)*k, adding the component axis."""
        return cls(tuple(np.asarray(t, dtype=complex)[..., None] for t in tables))


@dataclass(frozen=True)
class TransformConfig:
    """Sign flips beta in {+-1}^N and the perturbation weight tau."""

    beta: tuple[int, ...]
    tau: float

    def __post_init__(self):
        beta = tuple(int(b) for b in self.beta)
        if any(b not in (-1, 1) for b in beta):
            raise ValueError("beta entries must be +-1")
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 16
    iters: int = 200
    seed: int = 0
    wall_cap_s: float = 60.0

    def __post_init__(self):
        if not (self.restarts >= 1 and self.iters >= 1 and self.wall_cap_s > 0):
            raise ValueError("budget fields must be positive")


def evaluate_sequence(F: MartingaleDifferenceSequence, omega) -> np.ndarray:
    """F(omega) = sum_k d_k(omega_0, ..., omega_{k-1}) * omega_k, as a C^m vector."""
    omega = tuple(int(w) for w in omega)
    if len(omega) != F.N + 1:
        raise ValueError(f"omega must have length {F.N + 1}, got {len(omega)}")
    idx = tuple(_sign_index(w) for w in omega)
    out = np.zeros(F.m, dtype=complex)
    for k, table in enumerate(F.tables, start=1):
        out += table[idx[:k]] * omega[k]
    return out


def _realize(tables, coef=None) -> np.ndarray:
    """Values of B sequences on the full sign hypercube, shape (B, 2^(N+1), m).

    tables[k-1] has shape (B, 2^k, m), its prefix axes flattened in C order.
    Point index bits run from r_0 (slowest) to r_N (fastest), bit 0 for +1,
    so each level appends r_k as the last coordinate: V <- (V + c, V - c).
    With coef (shape (B, N)) given, the k-th term is flipped by coef[:, k-1].
    """
    B, _, m = tables[0].shape
    V = np.zeros((B, 2, m), dtype=complex)
    for k, table in enumerate(tables):
        c = table if coef is None else table * coef[:, k, None, None]
        new = np.empty((B, V.shape[1], 2, m), dtype=complex)
        np.add(V, c, out=new[:, :, 0])
        np.subtract(V, c, out=new[:, :, 1])
        V = new.reshape(B, -1, m)
    return V


def perturbed_ratio_exact(F: MartingaleDifferenceSequence, cfg: TransformConfig,
                          exps: ExponentConfig) -> float:
    """||(G_N, tau F_N)||_{p0} / ||F_N||_p by full enumeration.

    The pointwise magnitude of the pair is (||G||^2 + tau^2 ||F||^2)^(1/2).
    A ratio out of floating-point range raises FloatingPointError.
    """
    if F.N > ENUMERATION_CAP:
        raise ValueError(f"depth {F.N} exceeds enumeration cap {ENUMERATION_CAP}")
    if len(cfg.beta) != F.N:
        raise ValueError(f"beta must have length {F.N}")
    if F.is_zero():
        raise ZeroDivisionError("all difference tables are zero")
    tables = [t.reshape(1, -1, F.m) for t in F.tables]
    n2 = np.sum(np.abs(_realize(tables)) ** 2, axis=-1)
    Gv = _realize(tables, np.array([cfg.beta], dtype=float))
    pair2 = np.sum(np.abs(Gv) ** 2, axis=-1) + cfg.tau**2 * n2
    p, p0 = exps.p, exps.p0
    num = np.mean(pair2 ** (p0 / 2.0)) ** (1.0 / p0)
    den = np.mean(n2 ** (p / 2.0)) ** (1.0 / p)
    ratio = float(num / den)
    if not math.isfinite(ratio):
        raise FloatingPointError(f"ratio {ratio} is not finite: the input is out of range")
    return ratio


def extend_with_zero(F: MartingaleDifferenceSequence) -> MartingaleDifferenceSequence:
    """Append d_{N+1} = 0; the perturbed ratio is unchanged for any extended beta."""
    zero = np.zeros((2,) * (F.N + 1) + (F.m,), dtype=complex)
    return MartingaleDifferenceSequence(F.tables + (zero,))


# --- extremal search -------------------------------------------------------

# Starts ascended together hold at most this many hypercube points; one
# unbounded batch costs memory for no further speed.
_BATCH_POINTS = 4096


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
    return np.concatenate([np.reshape(t, (-1, t.shape[-1])) for t in tables])


def _ratio_and_grad(x, coef, tau, p, p0):
    """Log-ratio objective of B sequences and its ascent gradient.

    x holds the flat complex tables (B, 2^(N+1) - 2, m) and coef the flips
    (B, N).  Returns (J, grad): J (B,) the log of each perturbed ratio, grad
    the complex gradient 2 dJ/d(conj x), shaped like x.  The gradient is
    reduced by repeated halving: summing out the last coordinate r_k leaves
    the weights on r_0..r_{k-1}, whose +/- difference is the level-k term.
    """
    B, _, m = x.shape
    Fv = _realize(_levels(x))
    Gv = _realize(_levels(x), coef)
    n2 = np.sum(np.abs(Fv) ** 2, axis=-1)
    g2 = np.sum(np.abs(Gv) ** 2, axis=-1)
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
    WF = coefF[..., None] * Fv
    WG = coefG[..., None] * Gv

    grad = np.empty_like(x)
    for k, g in reversed(list(enumerate(_levels(grad), start=1))):
        WF = WF.reshape(B, -1, 2, m)
        WG = WG.reshape(B, -1, 2, m)
        g[:] = 2.0 * (WF[:, :, 0] - WF[:, :, 1]
                      + coef[:, k - 1, None, None] * (WG[:, :, 0] - WG[:, :, 1]))
        if k > 1:
            WF = WF[:, :, 0] + WF[:, :, 1]
            WG = WG[:, :, 0] + WG[:, :, 1]
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

    The warm beta extended by all +1 and by all -1 is always a candidate,
    so the zero-extended warm start is always ascended.
    """
    if N <= 4:
        return [tuple(b) for b in _iterproduct((-1, 1), repeat=N)]
    cands = {(1,) * N, tuple([-1] + [1] * (N - 1))}
    if warm_beta is not None:
        cands |= {warm_beta + (s,) * (N - len(warm_beta)) for s in (1, -1)}
    while len(cands) < max(8, restarts):
        cands.add(tuple(int(b) for b in rng.choice([-1, 1], size=N)))
    return sorted(cands)


def search_extremal(exps: ExponentConfig, tau: float, N: int, budget: SearchBudget,
                    warm_start: SearchResult | None = None) -> SearchResult:
    """Best (F, beta) found by alternating maximization, deterministic per seed.

    For each candidate beta the tables are ascended from random complex
    Gaussian restarts (and from the zero-extended warm start when given).
    Consecutive starts are ascended together in batches of at most
    _BATCH_POINTS hypercube points; each start's result does not depend on
    its batch.  Every ascended start is re-verified through
    perturbed_ratio_exact, in start order.  Ties in the ratio break toward
    the lexicographically smallest beta.  `iters` bounds every ascent; the
    wall cap is a guard, and when it fires no further batch starts and the
    result records stopped_by = "wall".
    """
    if N < 1 or N > ENUMERATION_CAP:
        raise ValueError(f"depth must be in 1..{ENUMERATION_CAP}, got {N}")
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
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

    rng = np.random.default_rng(np.random.PCG64(budget.seed))
    deadline = time.monotonic() + budget.wall_cap_s
    m = warm_start.sequence.m if warm_start is not None else 1

    warm = []
    warm_beta_prefix = None
    if warm_start is not None:
        seq = warm_start.sequence
        while seq.N < N:
            seq = extend_with_zero(seq)
        if seq.N != N:
            raise ValueError("warm start deeper than requested depth")
        # The zero-extended optimum sits on a saddle (the gradient in the
        # appended tables vanishes identically); a noised copy escapes it
        # while the exact copy pins the ratio floor.
        noised = list(seq.tables)
        for k in range(warm_start.sequence.N, N):
            noised[k] = 1e-6 * (rng.standard_normal(noised[k].shape)
                                + 1j * rng.standard_normal(noised[k].shape))
        warm = [_flat(seq.tables), _flat(noised)]
        warm_beta_prefix = warm_start.beta

    def starts():
        """(beta, flat tables) in the order, and from the rng draws, of the search."""
        for beta in _beta_candidates(N, rng, budget.restarts, warm_beta_prefix):
            if warm and beta[: len(warm_beta_prefix)] == warm_beta_prefix:
                yield from ((beta, x) for x in warm)
            for _ in range(budget.restarts):
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
                           tau, p, p0, budget.iters, deadline)
        for beta, row in zip(betas, x):
            seq = MartingaleDifferenceSequence(tuple(
                t.reshape((2,) * k + (m,)) for k, t in enumerate(_levels(row), start=1)))
            ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
            if best is None or ratio > best[0] + 1e-13 or (
                    abs(ratio - best[0]) <= 1e-13 and beta < best[1]):
                best = (ratio, beta, seq)

    ratio, beta, seq = best
    return SearchResult(seq, beta, ratio, "wall" if fired else "iters")
