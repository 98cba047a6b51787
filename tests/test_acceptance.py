"""Acceptance suite: one test per certification toolkit criterion.

Each test prints a single PASS line on success (visible with pytest -v as
the test outcome); the frozen oracle constants below were computed by
independent enumeration at development time.
"""

import json
import math
import time

import numpy as np

from lpmult.catalog import (beurling_real, family_symbol,
                            identity_symbol, target_constant)
from lpmult.cli import main
from lpmult.exponents import ExponentConfig
from lpmult.grid import TorusGrid, from_coefficients
from lpmult.martingale import (MartingaleDifferenceSequence, TransformConfig,
                               perturbed_ratio_exact, search_extremal)
from lpmult.transference import (GaussianPairingConfig,
                                 gaussian_damped_pairing,
                                 multiplier_deviation)
from lpmult.tensor import TensorGridFunction, shear_norm_check, tensor_lift_apply
from lpmult.witness import build_witness
from test_multiplier import complex_vs_matrix_path
from torus import mesh

# Exhaustive search oracle at depth 3, p = 4, tau = 0 (48 restarts over all
# eight flip patterns converge to sqrt(2) to machine precision).
ORACLE_N3_P4 = 1.4142135623730951

# Hand-enumerated ratio of the d1 = 1, d2 = 1 + r1 instance at
# beta = (-1, +1), tau = 1, p = 4: E|F|^4 = 21, E(|G|^2+|F|^2)^2 = 52.
ORACLE_EXPLICIT = (52.0 / 21.0) ** 0.25


def _random_sequence(rng, N, m):
    tables = [rng.standard_normal((2,) * k + (m,))
              + 1j * rng.standard_normal((2,) * k + (m,)) for k in range(1, N + 1)]
    return MartingaleDifferenceSequence(tuple(tables))


def _explicit_instance():
    d1 = np.ones((2, 1), dtype=complex)
    d2 = np.zeros((2, 2, 1), dtype=complex)
    d2[:, 0, 0] = 2.0
    return MartingaleDifferenceSequence((d1, d2))


def test_criterion_01_p2_exactness():
    """200 random instances at p = 2: ratio = sqrt(1 + tau^2) to 1e-12."""
    rng = np.random.default_rng(np.random.PCG64(101))
    exps = ExponentConfig(2.0)
    start = time.monotonic()
    for _ in range(200):
        N = int(rng.integers(1, 7))
        m = int(rng.integers(1, 3))
        seq = _random_sequence(rng, N, m)
        beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
        for tau in (0.0, 0.5, 3.0):
            ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
            assert abs(ratio - math.hypot(1.0, tau)) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 1: p=2 exactness on 200 instances ({elapsed:.2f}s)")


def test_criterion_02_ceiling_property():
    """1000 random instances stay below sqrt((p*-1)^2 + tau^2) + 1e-9."""
    rng = np.random.default_rng(np.random.PCG64(102))
    start = time.monotonic()
    count = 0
    for p in (4.0, 4.0 / 3.0):
        exps = ExponentConfig(p)
        for tau in (0.0, 0.5):
            ceiling = math.hypot(exps.pstar - 1.0, tau)
            for _ in range(250):
                N = int(rng.integers(1, 7))
                seq = _random_sequence(rng, N, 1)
                beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
                ratio = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
                assert ratio <= ceiling + 1e-9
                count += 1
    elapsed = time.monotonic() - start
    assert count == 1000 and elapsed < 60.0
    print(f"PASS criterion 2: ceiling respected on {count} instances ({elapsed:.2f}s)")


def test_criterion_03_explicit_instance_regression():
    """(52/21)^(1/4) by enumeration and through the witness pipeline."""
    start = time.monotonic()
    seq = _explicit_instance()
    ratio = perturbed_ratio_exact(seq, TransformConfig((-1, 1), 1.0),
                                  ExponentConfig(4.0))
    assert abs(ratio - ORACLE_EXPLICIT) < 1e-12
    res = build_witness(beurling_real(), seq, (-1, 1), 1.0, ExponentConfig(4.0))
    assert abs(res - ORACLE_EXPLICIT) < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 3: explicit instance = (52/21)^(1/4) ({elapsed:.2f}s)")


def test_criterion_04_search_progress():
    """Searches at p = 4: monotone in N, <= 3 + 1e-9, >= N=3 oracle.

    The depth-2 supremum is exactly 1 (any flip of a depth-2 sequence is a
    sign re-labeling of the hypercube at tau = 0), so the oracle floor
    applies from depth 3 on; depth 2 is still checked for the ceiling and
    the monotone chain.
    """
    exps = ExponentConfig(4.0)
    ratios = []
    for N in range(2, 9):
        res = search_extremal(exps, 0.0, N)
        ratios.append(res.ratio())
    for a, b in zip(ratios, ratios[1:]):
        assert b >= a - 1e-12
    for r in ratios:
        assert r <= 3.0 + 1e-9
    for r in ratios[1:]:   # depths 3..8
        assert r >= ORACLE_N3_P4 - 1e-6
    print("PASS criterion 4: search ratios N=2..8 "
          + ", ".join(f"{r:.6f}" for r in ratios))


def test_criterion_05_eigenrelation_exactness():
    """Axis sign functions are exact eigenfunctions on offset grids."""
    start = time.monotonic()
    for G in (2, 4, 8):
        grid = TorusGrid(2, G)
        theta = mesh(grid)
        for axis, sym, lam in ((0, beurling_real(), -1.0),
                               (1, beurling_real(), 1.0),
                               (0, family_symbol("beurling-imag"), 0.0),
                               (1, family_symbol("beurling-imag"), 0.0)):
            f = TensorGridFunction(grid, 1, np.sign(theta[..., axis]) + 0j)
            g = tensor_lift_apply(f, sym, 0)
            assert np.max(np.abs(g.values - lam * f.values)) <= 1e-12
        # Matrix symbol: +-identity on the two axes.
        for axis, lam in ((0, -1.0), (1, 1.0)):
            vals = np.zeros((G, G, 2), dtype=complex)
            vals[..., 0] = np.sign(theta[..., axis])
            vals[..., 1] = 0.5 * np.sign(theta[..., axis])
            f = TensorGridFunction(grid, 1, vals)
            g = tensor_lift_apply(f, family_symbol("beurling-matrix"), 0)
            assert np.max(np.abs(g.values - lam * f.values)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 5: axis eigenrelations exact at G in 2,4,8 ({elapsed:.2f}s)")


def test_criterion_06_shear_invariance():
    """Aligned shear configurations leave the summed Lp^p norm invariant."""
    rng = np.random.default_rng(np.random.PCG64(106))
    start = time.monotonic()
    grid = TorusGrid(1, 8)
    for _ in range(50):
        summands = []
        for _ in range(2):
            c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            summands.append(TensorGridFunction(grid, 2, np.fft.ifftn(c) * 64))
        chk = shear_norm_check(summands, 2, 4.0)
        assert chk.aligned
        assert abs(chk.lhs - chk.rhs) <= 1e-12 * max(1.0, abs(chk.rhs))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"PASS criterion 6: shear invariance on 50 polynomials ({elapsed:.2f}s)")


def test_criterion_07_deviation_decay():
    """m_R deviation 0.0198020 at N = 10 with quarter-ratio decay."""
    start = time.monotonic()
    sym = beurling_real()
    support = [((1.0, 0.0), (0.0, 1.0))]
    d10 = multiplier_deviation(sym, support, 10)
    d20 = multiplier_deviation(sym, support, 20)
    d40 = multiplier_deviation(sym, support, 40)
    assert abs(d10 - 0.0198020) < 1e-6
    assert 3.8 <= d10 / d20 <= 4.2
    assert 3.8 <= d20 / d40 <= 4.2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"PASS criterion 7: deviation {d10:.7f} at N=10, "
          f"quarter-ratios {d10 / d20:.3f}, {d20 / d40:.3f}")


def test_criterion_08_gaussian_transference():
    """Identity pairing = 1, off-diagonal decay, m_R diagonal convergence."""
    start = time.monotonic()
    ident = identity_symbol(2)
    for halving in range(11):
        eps = 2.0**-halving
        cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=eps)
        val = gaussian_damped_pairing(cfg, ident)
        assert abs(val - 1.0) < 1e-8
    off = gaussian_damped_pairing(
        GaussianPairingConfig(d=2, j=(0, 1), k=(1, 1), eps=0.05), ident)
    assert abs(off) < 1e-6
    errors = []
    for halving in range(11):
        eps = 2.0**-halving
        cfg = GaussianPairingConfig(d=2, j=(0, 1), k=(0, 1), eps=eps)
        val = gaussian_damped_pairing(cfg, beurling_real())
        errors.append(abs(val - 1.0))
    assert errors[-1] < 1e-3
    assert all(a >= b for a, b in zip(errors[3:], errors[4:]))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"PASS criterion 8: Gaussian pairing checks ({elapsed:.2f}s, "
          f"m_R error {errors[-1]:.2e} at eps=2^-10)")


def test_criterion_09_isomorphism_cross_path():
    """Complex-path and matrix-path Lp norms agree on 100 random functions.

    Inputs are trigonometric polynomials over the symmetric frequency band
    (no mass on the unpaired -G/2 alias row), where multiplication by the
    scalar symbol has an exact 2x2 real-matrix counterpart.
    """
    rng = np.random.default_rng(np.random.PCG64(109))
    start = time.monotonic()
    grid = TorusGrid(2, 16)
    ps = (2.0, 3.0, 4.0)
    for i in range(100):
        c = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        c[0, :] = 0.0
        c[:, 0] = 0.0
        f = TensorGridFunction(grid, 1, from_coefficients(c, grid, (0, 1)))
        a, b = complex_vs_matrix_path(f, ps[i % len(ps)])
        assert abs(a - b) <= 1e-10 * max(1.0, a)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS criterion 9: cross-path equality on 100 functions ({elapsed:.2f}s)")


def test_criterion_10_target_tables():
    """Printed target constants and external-assumption flags."""
    e4 = ExponentConfig(4.0)
    t = target_constant("beurling", e4)
    assert abs(t[0] - 3.0) < 1e-12 and not t[1]
    t = target_constant("vector", e4, 1.0)
    assert abs(t[0] - math.sqrt(10.0)) < 1e-12
    t = target_constant("F", e4, 1.0)
    assert abs(t[0] - 3.0 * math.sqrt(2.0)) < 1e-12
    assert not t[1]
    t = target_constant("scaled", e4, 0.5)
    assert abs(t[0] - 3.0) < 1e-12 and t[1]
    t = target_constant("scaled", e4, 2.0)
    assert abs(t[0] - 6.0) < 1e-12 and t[1]
    t = target_constant("F", e4, 2j)
    assert abs(t[0] - 6.0) < 1e-12 and t[1]
    print("PASS criterion 10: target tables match printed formulas")


def test_criterion_11_determinism(tmp_path):
    """Identical flags reproduce every computed numeric field."""
    def run(tag, args):
        out = tmp_path / f"{tag}.json"
        code = main(args + ["--out", str(out), "--store-dir",
                            str(tmp_path / f"store-{tag}")])
        assert code == 0
        rep = json.loads(out.read_text())
        rep.pop("timestamp")     # provenance, not a computed result
        rep.pop("wall_time_s")
        return rep

    search_args = ["search-martingale", "--p", "4", "--tau", "0.5", "--n", "3",
                   "--iters", "200"]
    assert run("s1", search_args) == run("s2", search_args)

    certify_args = ["certify", "beurling-real", "--p", "4", "--tau", "1",
                    "--n", "2", "--iters", "300"]
    assert run("c1", certify_args) == run("c2", certify_args)
    print("PASS criterion 11: reports bit-identical across re-runs")
