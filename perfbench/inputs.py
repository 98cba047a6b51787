"""Workload inputs, made from the workload seed alone (numpy only).

The benchmark process and the verify-store worker both call these
functions, so each builds the same inputs without passing them around.
Tables use the flat (2**k, m) layout described in oracle.py.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("search-chain", "certify-deep", "verify-store")

P = 4.0
SEARCH_DEPTHS = tuple(range(2, 9))
# Each round is one chain with its own lpmult seed.  A run covers several
# seeds, because the amount of ascent work, and so the chain's time,
# depends on the seed; iters 40 keeps a chain near 5 s on a 2-vCPU Xeon,
# so that a run fits four of them.
SEARCH_FLAGS = ("--p", "4", "--tau", "0", "--restarts", "4", "--iters", "40")
# Far above any search's run time (under 3 s each on a 2-vCPU Xeon): a
# result that depends on when the cap fires would depend on machine load.
SEARCH_WALL_CAP_S = 120.0

# (name, family, N, m) per certify op, run in this order at tau = 1.
CERTIFY_OPS = (("real-n8", "beurling-real", 8, 1),
               ("real-n9", "beurling-real", 9, 1),
               ("real-n10", "beurling-real", 10, 1),
               ("matrix-n8", "beurling-matrix", 8, 2))
CERTIFY_TAU = 1.0

BATCH_SIZE = 20000
BATCH_P2_SHARE = 0.1
DEEP_DEPTHS = tuple(range(16, 21))
DEEP_TAU = 0.5
STORE_DEPTHS = tuple(range(10, 17))
GAUSS_HALVINGS = 11
SHEAR_CHECKS = 40
DEVIATION_SWEEPS = 10
DEVIATION_N = tuple(10 * 2**i for i in range(6))

_TAG = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def rng_for(workload, seed, part=0):
    return np.random.default_rng([_TAG[workload], part, seed % 2**64])


def program_seed(seed, index=0):
    """The --seed handed to lpmult in round `index` of a workload seed."""
    return int(np.random.SeedSequence([seed % 2**64, index]).generate_state(1)[0])


def random_tables(rng, N, m):
    return [rng.standard_normal((2**k, m)) + 1j * rng.standard_normal((2**k, m))
            for k in range(1, N + 1)]


def random_beta(rng, N):
    return [int(b) for b in rng.choice([-1, 1], size=N)]


def record(tables, beta, tau, p, ratio=None):
    """A martingale in lpmult's record layout (complex entries as [re, im])."""
    rec = {"p": p, "p0": p, "tau": tau, "N": len(tables), "m": int(tables[0].shape[1]),
           "beta": beta,
           "tables": [np.stack([t.real.ravel(), t.imag.ravel()], axis=1).tolist()
                      for t in tables]}
    if ratio is not None:
        rec["ratio"] = ratio
    return rec


def certify_inputs(seed):
    rng = rng_for("certify-deep", seed)
    ops = []
    for name, family, N, m in CERTIFY_OPS:
        tables = random_tables(rng, N, m)
        ops.append({"name": name, "family": family, "N": N, "m": m, "p": P,
                    "tau": CERTIFY_TAU, "beta": random_beta(rng, N), "tables": tables})
    return ops


def batch_inputs(seed):
    """Random perturbed_ratio_exact instances with N <= 8 and p0 = p."""
    rng = rng_for("verify-store", seed, 1)
    n = BATCH_SIZE
    depth = rng.integers(1, 9, size=n)
    comps = rng.integers(1, 3, size=n)
    p = np.where(rng.random(n) < BATCH_P2_SHARE, 2.0, rng.choice([P, P / 3.0], size=n))
    tau = rng.choice([0.0, 0.5], size=n)
    beta = rng.choice([-1, 1], size=(n, 8))
    sizes = 2 * comps * (2 ** (depth + 1) - 2)
    normals = rng.standard_normal(int(np.sum(sizes)))
    out, at = [], 0
    for i in range(n):
        N, m = int(depth[i]), int(comps[i])
        tables = []
        for k in range(1, N + 1):
            re, im = normals[at:at + 2**k * m], normals[at + 2**k * m:at + 2**(k + 1) * m]
            tables.append((re + 1j * im).reshape(2**k, m))
            at += 2 ** (k + 1) * m
        out.append({"N": N, "m": m, "p": float(p[i]), "tau": float(tau[i]),
                    "beta": [int(b) for b in beta[i, :N]], "tables": tables})
    return out


def _nonzero_freq(rng):
    while True:
        j = [int(v) for v in rng.integers(-2, 3, size=2)]
        if any(j):
            return j


def gauss_inputs(seed):
    """Pairing sweeps eps = 2^0 .. 2^-10: identity on and off the diagonal,
    and the real Beurling symbol on the diagonal."""
    rng = rng_for("verify-store", seed, 2)
    calls = []
    for symbol, diagonal in (("identity", True), ("identity", False),
                             ("beurling-real", True), ("beurling-real", True)):
        j = _nonzero_freq(rng)
        k = list(j) if diagonal else [j[0] + int(rng.integers(1, 3)), j[1]]
        for h in range(GAUSS_HALVINGS):
            calls.append({"symbol": symbol, "j": j, "k": k, "eps": 2.0**-h})
    return calls


def shear_inputs(seed):
    """Coefficient arrays of two-block trigonometric polynomials on 8 x 8."""
    rng = rng_for("verify-store", seed, 3)
    return [[rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
             for _ in range(2)] for _ in range(SHEAR_CHECKS)]


def deviation_inputs(seed):
    rng = rng_for("verify-store", seed, 4)
    sweeps = []
    for _ in range(DEVIATION_SWEEPS):
        support = [(tuple(int(v) for v in rng.integers(-3, 4, size=2)), tuple(_nonzero_freq(rng)))
                   for _ in range(4)]
        sweeps.append(support)
    return sweeps


def deep_inputs(seed):
    rng = rng_for("verify-store", seed, 5)
    return [{"N": N, "m": 1, "p": P, "tau": DEEP_TAU, "beta": random_beta(rng, N),
             "tables": random_tables(rng, N, 1)} for N in DEEP_DEPTHS]


def store_inputs(seed):
    """Store records at tau = 0 (so `norms --family beurling` reads them)."""
    rng = rng_for("verify-store", seed, 6)
    return [{"N": N, "m": 1, "p": P, "tau": 0.0, "beta": random_beta(rng, N),
             "tables": random_tables(rng, N, 1)} for N in STORE_DEPTHS]
