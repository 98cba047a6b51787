"""Exact enumeration and extremal search for the perturbed martingale transform.

A depth-N difference sequence F = sum_k d_k(r_0, ..., r_{k-1}) r_k lives on
the sign space {+-1}^(N+1) (d_1 consumes r_0, so there are N+1 coordinates).
The transform flips increment k by beta_k and the quadratic perturbation
pairs the result with tau * F; the exact Lp -> Lp0 ratio is computed by
enumerating all 2^(N+1) sign patterns with uniform weight.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
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
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 16
    iters: int = 200
    seed: int = 0
    wall_cap_s: float = 60.0

    def __post_init__(self):
        if self.restarts < 1 or self.iters < 1 or self.wall_cap_s <= 0:
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


def _realize(tables, beta=None) -> np.ndarray:
    """Values on the full sign hypercube, shape (2,)*(N+1) + (m,).

    Axis i runs over omega_i in the order (+1, -1).  With beta given, the
    k-th term is flipped by beta[k-1].
    """
    N = len(tables)
    m = tables[0].shape[-1]
    out = np.zeros((2,) * (N + 1) + (m,), dtype=complex)
    for k, table in enumerate(tables, start=1):
        coef = 1.0 if beta is None else float(beta[k - 1])
        rk = np.array([coef, -coef])
        term = table.reshape((2,) * k + (1,) * (N + 1 - k) + (m,))
        out += term * rk.reshape((1,) * k + (2,) + (1,) * (N - k) + (1,))
    return out


def perturbed_ratio_exact(F: MartingaleDifferenceSequence, cfg: TransformConfig,
                          exps: ExponentConfig, cap: int = ENUMERATION_CAP) -> float:
    """||(G_N, tau F_N)||_{p0} / ||F_N||_p by full enumeration.

    The pointwise magnitude of the pair is (||G||^2 + tau^2 ||F||^2)^(1/2).
    """
    if F.N > cap:
        raise ValueError(f"depth {F.N} exceeds enumeration cap {cap}")
    if len(cfg.beta) != F.N:
        raise ValueError(f"beta must have length {F.N}")
    if F.is_zero():
        raise ZeroDivisionError("all difference tables are zero")
    Fv = _realize(F.tables)
    Gv = _realize(F.tables, cfg.beta)
    n2 = np.sum(np.abs(Fv) ** 2, axis=-1)
    pair2 = np.sum(np.abs(Gv) ** 2, axis=-1) + cfg.tau**2 * n2
    p, p0 = exps.p, exps.p0
    num = np.mean(pair2 ** (p0 / 2.0)) ** (1.0 / p0)
    den = np.mean(n2 ** (p / 2.0)) ** (1.0 / p)
    return float(num / den)


def extend_with_zero(F: MartingaleDifferenceSequence) -> MartingaleDifferenceSequence:
    """Append d_{N+1} = 0; the perturbed ratio is unchanged for any extended beta."""
    zero = np.zeros((2,) * (F.N + 1) + (F.m,), dtype=complex)
    return MartingaleDifferenceSequence(F.tables + (zero,))


# --- extremal search -------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    sequence: MartingaleDifferenceSequence
    beta: tuple[int, ...]
    ratio: float


def _ratio_and_grad(tables, beta, tau, p, p0):
    """Log-ratio objective and its ascent gradient wrt the complex tables.

    Returns (J, grads) with J = log of the perturbed ratio and grads the
    complex gradients 2 dJ/d(conj d_k), one array per table.
    """
    N = len(tables)
    Fv = _realize(tables)
    Gv = _realize(tables, beta)
    n2 = np.sum(np.abs(Fv) ** 2, axis=-1)
    g2 = np.sum(np.abs(Gv) ** 2, axis=-1)
    h = g2 + tau * tau * n2
    P = n2.size

    Dp = float(np.sum(n2 ** (p / 2.0))) / P
    Up0 = float(np.sum(h ** (p0 / 2.0))) / P
    if Dp <= 0.0 or Up0 < 0.0:
        raise ZeroDivisionError("degenerate tables in search")
    J = math.log(Up0) / p0 - math.log(Dp) / p

    with np.errstate(divide="ignore", invalid="ignore"):
        hpow = np.where(h > 0, h ** (p0 / 2.0 - 1.0), 0.0)
        npow = np.where(n2 > 0, n2 ** (p / 2.0 - 1.0), 0.0)
    coefF = (tau * tau * hpow / (2.0 * Up0) - npow / (2.0 * Dp)) / P
    coefG = hpow / (2.0 * Up0 * P)
    WF = coefF[..., None] * Fv
    WG = coefG[..., None] * Gv

    grads = []
    for k in range(1, N + 1):
        rk = np.array([1.0, -1.0]).reshape((1,) * k + (2,) + (1,) * (N - k) + (1,))
        core = rk * (WF + beta[k - 1] * WG)
        # Sum out the coordinates the prefix table does not see.
        grads.append(2.0 * np.sum(core, axis=tuple(range(k, N + 1))))
    return J, grads


def _normalize(tables):
    scale = math.sqrt(sum(float(np.sum(np.abs(t) ** 2)) for t in tables))
    if scale == 0.0:
        raise ZeroDivisionError("zero tables")
    return [t / scale for t in tables]


def _ascend(tables, beta, tau, p, p0, iters):
    """Normalized gradient ascent with step halving on non-improvement."""
    x = _normalize(tables)
    J, grads = _ratio_and_grad(x, beta, tau, p, p0)
    step = 0.25
    for _ in range(iters):
        gnorm = math.sqrt(sum(float(np.sum(np.abs(g) ** 2)) for g in grads))
        if gnorm < 1e-14:
            break
        trial = _normalize([t + step * g / gnorm for t, g in zip(x, grads)])
        J_try, grads_try = _ratio_and_grad(trial, beta, tau, p, p0)
        if J_try > J:
            x, J, grads = trial, J_try, grads_try
            step = min(step * 1.5, 1.0)
        else:
            step *= 0.5
            if step < 1e-13:
                break
    return x, J


def _beta_candidates(N, rng, restarts):
    """Systematic sweep for N <= 4, randomized (plus all-ones) otherwise."""
    if N <= 4:
        return [tuple(b) for b in _iterproduct((-1, 1), repeat=N)]
    cands = {(1,) * N, tuple([-1] + [1] * (N - 1))}
    while len(cands) < max(8, restarts):
        cands.add(tuple(int(b) for b in rng.choice([-1, 1], size=N)))
    return sorted(cands)


def search_extremal(exps: ExponentConfig, tau: float, N: int, budget: SearchBudget,
                    warm_start: SearchResult | None = None) -> SearchResult:
    """Best (F, beta) found by alternating maximization, deterministic per seed.

    For each candidate beta the tables are ascended from random complex
    Gaussian restarts (and from the zero-extended warm start when given);
    the winner is re-verified through perturbed_ratio_exact.  Ties in the
    ratio break toward the lexicographically smallest beta.
    """
    if N < 1 or N > ENUMERATION_CAP:
        raise ValueError(f"depth must be in 1..{ENUMERATION_CAP}, got {N}")
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
    t0 = time.monotonic()
    m = warm_start.sequence.m if warm_start is not None else 1

    warm_exact = None
    warm_noised = None
    warm_beta_prefix = None
    if warm_start is not None:
        seq = warm_start.sequence
        while seq.N < N:
            seq = extend_with_zero(seq)
        if seq.N != N:
            raise ValueError("warm start deeper than requested depth")
        warm_exact = [t.copy() for t in seq.tables]
        # The zero-extended optimum sits on a saddle (the gradient in the
        # appended tables vanishes identically); a noised copy escapes it
        # while the exact copy pins the ratio floor.
        warm_noised = [t.copy() for t in seq.tables]
        for k in range(warm_start.sequence.N, N):
            warm_noised[k] = 1e-6 * (rng.standard_normal(warm_noised[k].shape)
                                     + 1j * rng.standard_normal(warm_noised[k].shape))
        warm_beta_prefix = warm_start.beta

    best = None  # (ratio, beta, tables)
    for beta in _beta_candidates(N, rng, budget.restarts):
        starts = []
        if warm_exact is not None and beta[: len(warm_beta_prefix)] == warm_beta_prefix:
            starts.append([t.copy() for t in warm_exact])
            starts.append([t.copy() for t in warm_noised])
        for _ in range(budget.restarts):
            tabs = [rng.standard_normal((2,) * k + (m,))
                    + 1j * rng.standard_normal((2,) * k + (m,))
                    for k in range(1, N + 1)]
            starts.append(tabs)
        for tabs in starts:
            x, _ = _ascend(tabs, beta, tau, p, p0, budget.iters)
            seq = MartingaleDifferenceSequence(tuple(x))
            ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
            if best is None or ratio > best[0] + 1e-13 or (
                    abs(ratio - best[0]) <= 1e-13 and beta < best[1]):
                best = (ratio, beta, seq)
            if time.monotonic() - t0 > budget.wall_cap_s:
                break
        if time.monotonic() - t0 > budget.wall_cap_s:
            break

    if best is None:
        raise RuntimeError("budget exhausted before any evaluation")
    ratio, beta, seq = best
    return SearchResult(seq, beta, ratio)
