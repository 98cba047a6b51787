"""Bellman policies (Burkholder's value function done numerically, as Nazarov-Treil-Volberg).

Step k moves U = (F + G)/2 by +-d_k where beta_k = +1, else V = (F - G)/2.
A state (e, x) stands for (U, V) = 2^e x, x an integer pair with R <= max|x| < 2R, or
is the absorbing origin.  An action a in 0..2R moves x to x +- a e_i, brought back into
the band by doublings (e falls by one each) or one halving of an even pair, else refused.
The payoff (g^2 + tau^2 f^2)^(p/2) - C^p |f|^p, f = U + V and g = U - V, is p-homogeneous:
the program runs on the band alone, a child weighted by 1/2 2^(p de).  Bisection on C
picks a policy, and its backward evaluation is its ratio.
"""

from __future__ import annotations

import functools

import numpy as np

from .exponents import Frozen
from .martingale import ENUMERATION_CAP

RESOLUTION = 8  # the search's policy starts: the band's R, with actions 0..2R,
SOLVES = 21  # and the number of bisection solves on C


@functools.cache
def _band(R):
    """(x, child, de, start): the band's states x (S + 1, 2) in lexicographic order,
    the origin last; for each axis i, sign and action a the child's state index and
    exponent change, child and de (2, 2, 2R + 1, S + 1), a refused child -1; and the
    states +-R e_i that the forced first step reaches, start (2, 2)."""
    c = np.arange(1 - 2 * R, 2 * R, dtype=np.int32)
    x = np.stack(np.meshgrid(c, c, indexing="ij")).reshape(2, -1)
    x = np.concatenate([x[:, np.abs(x).max(0) >= R], [[0], [0]]], axis=1)
    S = x.shape[1] - 1
    y = np.empty((2, 2, 2, 2 * R + 1, S + 1), np.int16)  # coordinate, axis, sign, a, state
    y[:] = x[:, None, None, None, :]
    a = np.arange(2 * R + 1, dtype=np.int16)[:, None]
    for i in range(2):
        y[i, i] += np.stack([a, -a])
    M = np.maximum(np.abs(y[0]), np.abs(y[1]))
    # Doublings bring 0 < M < R into the band, 2^j M >= R: j is the bit length of (R - 1) // M.
    grow = np.array([0] + [((R - 1) // m).bit_length() for m in range(1, 4 * R)], np.int16)[M]
    halve = ((M >= 2 * R) & ((y[0] | y[1]) & 1 == 0)).astype(np.int16)
    y = ((y >> halve) << grow).astype(np.int32) + (2 * R - 1)
    o, w = 2 * R - 1, 4 * R - 1  # index of x at (x_1 + o) w + x_2 + o
    index = np.full(w * w, -1, np.int32)
    index[(x[0, :S] + o) * w + x[1, :S] + o] = np.arange(S)
    inside = (y >= 0).all(0) & (y < w).all(0)
    child = np.where(inside, index.take(y[0] * w + y[1], mode="clip"), -1)
    child[M == 0] = S
    child[..., 1:, S] = -1  # the origin is absorbing: only a = 0 is allowed there
    start = index[[[(o + R) * w + o, (o - R) * w + o], [o * w + o + R, o * w + o - R]]]
    return x.T, child, (halve - grow).astype(np.int8), start


@functools.cache
def _weights(R, p):
    """(canon, allowed).  State S - 1 - s is -x_s, of the same value bit for bit (a
    child pair's two products add in the other order), so the solves run on the
    states from x_(S/2) on, canon (S + 1,) giving each state's place among them.
    Per axis, `allowed` holds their allowed actions in state order: the children's
    places and weights 1/2 2^(p de) (2, n), each state's first, and the index of
    each into (S/2 + 1, 2R + 1)."""
    child, de = _band(R)[1:3]
    h = (child.shape[-1] - 1) // 2
    canon = np.concatenate([np.arange(h)[::-1], np.arange(h + 1)])
    ok = (child[..., h:] >= 0).all(1)
    allowed = []
    for i in range(2):
        at = np.flatnonzero(ok[i].T)
        s, a = np.divmod(at, ok.shape[1])
        first = np.flatnonzero(np.diff(s, prepend=-1))  # a = 0 is allowed at every state
        s += h
        allowed.append((canon[child[i][:, a, s]], 0.5 * 2.0 ** (p * de[i][:, a, s]), first, at))
    return canon, allowed


@functools.cache
def _payoff(R, p, tau):
    """The payoff's two terms on the band, (g^2 + tau^2 f^2)^(p/2) and |f|^p."""
    x = _band(R)[0].astype(float)
    f, g = x[:, 0] + x[:, 1], x[:, 0] - x[:, 1]
    return (g * g + tau * tau * f * f) ** (p / 2.0), np.abs(f) ** p


def _solve(p, tau, beta, R, C, policy=False):
    """The value of the payoff at C under the best policy, in some positive unit, and
    that policy's actions (N - 1, S + 1) uint8 for steps 2..N when `policy` is set."""
    canon, allowed = _weights(R, p)
    num, den = _payoff(R, p, tau)
    h = len(canon) // 2
    W = num[h:] - C**p * den[h:]
    actions = []
    for b in reversed(beta[1:]):
        child, weight, first, at = allowed[(1 - b) // 2]
        Wx = W.take(child)
        Wx *= weight
        Q = Wx[0] + Wx[1]
        if policy:  # the first best action of each state; a refused one is never best
            dense = np.full((len(W), 2 * R + 1), -np.inf)
            dense.flat[at] = Q
            actions.append(dense.argmax(1).astype(np.uint8)[canon])
        W = np.maximum.reduceat(Q, first)
        W /= np.abs(W).max()
    value = W[_band(R)[3][(1 - beta[0]) // 2, 0] - h]
    return value, np.array(actions[::-1], np.uint8).reshape(-1, len(canon))


def _bisect(p, tau, beta, R):
    """(actions, lo): the policy at lo, the last (so the largest) of SOLVES bisections
    of C on [0, p* - 1 + |tau|] whose value is positive."""
    lo, hi = 0.0, max(p, p / (p - 1.0)) - 1.0 + abs(tau)
    for _ in range(SOLVES):
        C = 0.5 * (lo + hi)
        if _solve(p, tau, beta, R, C)[0] > 0.0:
            lo = C
        else:
            hi = C
    return _solve(p, tau, beta, R, lo, policy=True)[1], lo


class Policy(Frozen):
    """A solved Bellman policy: p, tau, the flips beta, the band's R, the actions
    (N - 1, S + 1) uint8 for steps 2..N and C, the largest bound the bisection accepted."""

    __slots__ = ("p", "tau", "beta", "R", "actions", "C")

    def ratio(self) -> float:
        """The ratio at any N: the recursion with the stored actions, ratio^p = Num / Den."""
        _, child, de, start = _band(self.R)
        num, den = _payoff(self.R, self.p, self.tau)
        cols = np.arange(num.size)
        for b, a in zip(reversed(self.beta[1:]), self.actions[::-1]):  # none is a refused action
            i = (1 - b) // 2
            c, w = child[i][:, a, cols], 0.5 * 2.0 ** (self.p * de[i][:, a, cols])
            num, den = (num.take(c) * w).sum(0), (den.take(c) * w).sum(0)
            num, den = num / num.max(), den / num.max()
        s = start[(1 - self.beta[0]) // 2]
        return float((num[s].sum() / den[s].sum()) ** (1.0 / self.p))

    def tables(self):
        """Real m = 1 flat tables (2^(N+1) - 2, 1), for N <= ENUMERATION_CAP only: d_1 = R,
        and d_k = a_k(x) 2^e at the state (e, x) that r_1..r_{k-1} reach, whatever r_0."""
        if len(self.beta) > ENUMERATION_CAP:  # refused before 2^(N+1) floats, 16 GiB at N = 30
            raise ValueError(f"depth {len(self.beta)} exceeds enumeration cap {ENUMERATION_CAP}")
        _, child, de, start = _band(self.R)
        s, e = start[(1 - self.beta[0]) // 2], np.zeros(2, int)
        levels = [np.full(2, float(self.R))]
        for b, act in zip(self.beta[1:], self.actions):
            i, a = (1 - b) // 2, act[s]
            d = np.ldexp(a.astype(float), e)
            levels.append(np.concatenate([d, d]))
            s, e = child[i][:, a, s].T.reshape(-1), np.repeat(e, 2) + de[i][:, a, s].T.reshape(-1)
        return np.concatenate(levels)[:, None]


def solve_policy(p: float, tau: float, beta, N: int, R: int = RESOLUTION) -> Policy:
    """The Bellman policy for p, tau and the flips beta on the band of resolution R,
    from one bisection, the inputs checked first: a start of the search."""
    if not 1 <= R <= 32:  # the band's work arrays grow as R^3, to about 120 MiB at R = 32
        raise ValueError(f"resolution must be in 1..32, got {R}")
    beta = tuple(beta)
    if len(beta) != N or N < 1:
        raise ValueError(f"beta must have length N >= 1, got {len(beta)} for N = {N}")
    return Policy(p, tau, beta, R, *_bisect(p, tau, beta, R))
