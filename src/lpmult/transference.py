"""Gaussian-damped transference pairing and multiplier deviation sweeps.

The pairing uses the unit-period torus and characters exp(2 pi i (j, x)),
separate from the [-pi, pi) convention used elsewhere; the two conventions
never mix inside one computation.  Its frequency quadrature always runs on
the same 65 nodes per axis, over the radius where the Gaussian window's
tail falls to 1e-14.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .symbols import MultiplierSymbol

# The quadrature radius R solves pi (p0 + q0) R^2 / eps = ln 1e14, and the
# step is R / _HALF_NODES.
_TAIL_LOG = math.log(1e14)
_HALF_NODES = 32


@dataclass(frozen=True)
class GaussianPairingConfig:
    """Inputs for the damped pairing of exp(2pi i (j,x)) against exp(2pi i (k,x))."""

    d: int
    j: tuple
    k: tuple
    eps: float
    p0: float = 2.0

    def __post_init__(self):
        j = tuple(float(v) for v in self.j)
        k = tuple(float(v) for v in self.k)
        if len(j) != self.d or len(k) != self.d:
            raise ValueError(f"frequencies must have length d={self.d}")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if not (math.isfinite(self.p0) and self.p0 > 1):
            raise ValueError(f"p0 must be finite and exceed 1, got {self.p0}")

    @property
    def q0(self) -> float:
        return self.p0 / (self.p0 - 1.0)


def gaussian_damped_pairing(cfg: GaussianPairingConfig, M: MultiplierSymbol) -> complex:
    """eps^{d/2} integral of (T_M(P L_{eps/p0}), Q L_{eps/q0}) over R^d.

    P = exp(2 pi i (j, x)), Q = exp(2 pi i (k, x)), L_a(x) = exp(-pi a |x|^2).
    T_M acts through the closed-form Gaussian spectrum of P L_{eps/p0}, and
    the x-integral collapses in closed form, leaving a single trapezoidal
    frequency quadrature of M(xi) against the Gaussian window

        (p0 q0 / eps)^{d/2} exp(-pi (p0 |xi - j|^2 + q0 |xi - k|^2) / eps),

    whose total mass is exp(-pi |j - k|^2 / eps) since 1/p0 + 1/q0 = 1.
    As eps -> 0 the value converges to M(j) delta_{jk}.  M must be scalar:
    a matrix symbol paired from a against b is the scalar symbol
    sum_ij conj(b_i) M_ij a_j.  A value out of floating-point range raises
    FloatingPointError, and an eps whose node step does not resolve at the
    center raises ValueError.
    """
    if M.d != cfg.d:
        raise ValueError(f"symbol dimension {M.d} != config dimension {cfg.d}")
    if M.m != 1:
        raise ValueError(f"the pairing takes a scalar symbol, got a {M.m} x {M.m} one")

    p0, q0, eps, d = cfg.p0, cfg.q0, cfg.eps, cfg.d
    s = p0 + q0
    j = np.asarray(cfg.j)
    k = np.asarray(cfg.k)
    center = (p0 * j + q0 * k) / s

    h = math.sqrt(_TAIL_LOG * eps / (math.pi * s)) / _HALF_NODES
    # Within 2^20 float spacings of the center, the nodes center + h n round
    # onto each other and the window goes flat.
    if h <= 2.0**20 * np.spacing(np.max(np.abs(center))):
        raise ValueError(f"eps={eps} is too small: node step {h} does not resolve at {center}")
    axis = center[:, None] + h * np.arange(-_HALF_NODES, _HALF_NODES + 1)[None, :]
    grids = np.meshgrid(*axis, indexing="ij")
    xi = np.stack(grids, axis=-1)

    diff_j = xi - j
    diff_k = xi - k
    weight = np.exp(-math.pi * (p0 * np.sum(diff_j**2, axis=-1)
                                + q0 * np.sum(diff_k**2, axis=-1)) / eps)

    integrand = M.evaluate(xi) * weight

    # Trapezoid weights: 1/2 at the box faces.
    for ax in range(d):
        w = np.ones(integrand.shape[ax])
        w[0] = w[-1] = 0.5
        shape = [1] * d
        shape[ax] = -1
        integrand = integrand * w.reshape(shape)

    quad = np.sum(integrand) * h**d
    value = complex((p0 * q0 / eps) ** (d / 2.0) * quad)
    if not cmath.isfinite(value):
        raise FloatingPointError(f"pairing {value} is not finite at eps={eps}")
    return value


def multiplier_deviation(M: MultiplierSymbol, support, N: int) -> float:
    """max over (l_1, ..., l_k) of ||M(l_k + l_{k-1}/N + ... + l_1/N^{k-1}) - M(l_k)||.

    Homogeneity turns the scaled argument M(N l_1 + ... + N^k l_k) into the
    perturbed direction above, so this measures how far the lifted symbol
    sits from its blockwise limit.  Every tuple must end in l_k != 0.
    """
    if N < 1:
        raise ValueError("N must be positive")
    worst = 0.0
    for tup in support:
        ls = [np.asarray(l, dtype=float) for l in tup]
        if any(l.shape != (M.d,) for l in ls):
            raise ValueError(f"support frequencies must have length {M.d}")
        if not np.any(ls[-1]):
            raise ValueError("the last frequency in each tuple must be nonzero")
        xi = sum(l / N ** (len(ls) - 1 - i) for i, l in enumerate(ls))
        a = M.evaluate(xi)
        bval = M.evaluate(ls[-1])
        diff = a - bval
        if M.m == 1:
            dev = abs(complex(diff))
        else:
            dev = float(np.linalg.norm(diff, ord=2))
        worst = max(worst, dev)
    return worst
