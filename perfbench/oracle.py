"""Plain-numpy hypercube enumerator, written without lpmult.

A depth-N martingale F = sum_k d_k(r_0, ..., r_{k-1}) r_k is given by flat
tables: tables[k-1] has shape (B, 2**k, m) (B independent instances), and
row i of a table is the prefix (r_0, ..., r_{k-1}) whose bits, most
significant first, are 0 for r = +1 and 1 for r = -1.  This is the C-order
flattening of the (2,)*k + (m,) tables lpmult stores, so the same numbers
can be read from a store record or a --martingale file.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-10


def realize(tables, beta=None):
    """Values on all 2**(N+1) sign patterns, shape (B, 2**(N+1), m).

    Point index i lists (r_0, ..., r_N) as bits, most significant first, so
    for term k the points split into 2**k prefix blocks, each holding a
    half with r_k = +1 and then a half with r_k = -1.  beta, shape (B, N),
    flips term k by beta[:, k-1] when given.
    """
    N = len(tables)
    B, _, m = tables[0].shape
    out = np.zeros((B, 2 ** (N + 1), m), dtype=complex)
    for k in range(1, N + 1):
        sign = np.array([1.0, -1.0]).reshape(1, 1, 2, 1, 1)
        if beta is not None:
            sign = sign * beta[:, k - 1].reshape(B, 1, 1, 1, 1)
        view = out.reshape(B, 2**k, 2, 2 ** (N - k), m)
        view += tables[k - 1][:, :, None, None, :] * sign
    return out


def _abs2(values):
    return np.sum(values.real**2 + values.imag**2, axis=-1)


def ratios(tables, beta, tau, p, p0=None):
    """Exact ||(M_beta F, tau F)||_p0 / ||F||_p for B instances of one (N, m).

    beta has shape (B, N); tau, p and p0 are scalars or arrays of shape (B,).
    """
    beta = np.asarray(beta, dtype=float)
    B = beta.shape[0]
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (B,))[:, None]
    p = np.broadcast_to(np.asarray(p, dtype=float), (B,))[:, None]
    p0 = p if p0 is None else np.broadcast_to(np.asarray(p0, dtype=float), (B,))[:, None]
    f2 = _abs2(realize(tables))
    g2 = _abs2(realize(tables, beta))
    num = np.mean((g2 + tau**2 * f2) ** (p0 / 2.0), axis=1) ** (1.0 / p0[:, 0])
    den = np.mean(f2 ** (p / 2.0), axis=1) ** (1.0 / p[:, 0])
    return num / den


def ratio(tables, beta, tau, p, p0=None):
    """ratios() for a single instance given by unbatched (2**k, m) tables."""
    return float(ratios([np.asarray(t)[None] for t in tables], [beta], tau, p, p0)[0])


def ceiling(p, tau):
    """The sharp bound sqrt((p* - 1)^2 + tau^2) on the perturbed ratio (p0 = p)."""
    pstar = max(p, p / (p - 1.0))
    return math.hypot(pstar - 1.0, tau)


def close(value, expected, rel=REL_TOL):
    """True when value matches expected to rel, relative to max(1, |expected|)."""
    return (value is not None and math.isfinite(value)
            and abs(value - expected) <= rel * max(1.0, abs(expected)))


def tables_from_record(rec):
    """Flat (2**k, m) tables from a store record or --martingale file."""
    m = int(rec["m"])
    out = []
    for pairs in rec["tables"]:
        a = np.asarray(pairs, dtype=float)
        out.append((a[:, 0] + 1j * a[:, 1]).reshape(-1, m))
    return out


def check_record(rec):
    """Ratio of a stored record re-derived here; None when it does not reproduce."""
    expected = ratio(tables_from_record(rec), rec["beta"], rec["tau"], rec["p"], rec["p0"])
    return expected if close(rec["ratio"], expected) else None


def beurling_real(xi):
    """Re of the Ahlfors-Beurling symbol, (xi2^2 - xi1^2) / |xi|^2."""
    xi = np.asarray(xi, dtype=float)
    return (xi[..., 1] ** 2 - xi[..., 0] ** 2) / np.sum(xi**2, axis=-1)


def deviation(support, N):
    """max over tuples of |m_R(l_k + l_{k-1}/N + ...) - m_R(l_k)|."""
    worst = 0.0
    for tup in support:
        ls = [np.asarray(l, dtype=float) for l in tup]
        xi = sum(l / float(N) ** (len(ls) - 1 - i) for i, l in enumerate(ls))
        worst = max(worst, abs(float(beurling_real(xi) - beurling_real(ls[-1]))))
    return worst
