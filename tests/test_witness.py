"""Sign-function witnesses: the factored certificate against the torus evaluation."""

import json
import tracemalloc

import numpy as np
import pytest

from lpmult.catalog import beurling_matrix, beurling_real, family_symbol
from lpmult import cli
from lpmult.cli import main
from lpmult.exponents import ExponentConfig
from lpmult.grid import TorusGrid
from lpmult import tensor, witness
from lpmult.martingale import (ENUMERATION_CAP, MartingaleDifferenceSequence, TransformConfig,
                               perturbed_ratio_exact)
from lpmult.report import CrossCheckError, sequence_to_record, write_json
from lpmult.symbols import MultiplierSymbol
from lpmult.tensor import TensorGridFunction, tensor_lift_apply
from lpmult.witness import build_witness

from torus import mesh


def _explicit_instance(m=1):
    d1 = np.zeros((2, m), dtype=complex)
    d2 = np.zeros((2, 2, m), dtype=complex)
    d1[:, 0] = 1.0
    d2[:, 0, 0] = 2.0
    return MartingaleDifferenceSequence((d1, d2))


def _spec(seq, tau, symbol=None):
    """build_witness's (symbol, sequence, beta, tau, exps) at beta = (-1, 1), p = 4."""
    return (beurling_real() if symbol is None else symbol, seq, (-1, 1), tau,
            ExponentConfig(4.0))


def test_explicit_witness_matches_enumeration():
    target = (52.0 / 21.0) ** 0.25
    res = build_witness(*_spec(_explicit_instance(), 1.0))
    assert res == pytest.approx(target, abs=1e-10)


def test_witness_tau_zero():
    res = build_witness(*_spec(_explicit_instance(), 0.0))
    assert res == pytest.approx(1.0, abs=1e-10)


def test_matrix_witness_matches_scalar():
    seq = _explicit_instance(m=2)
    res = build_witness(*_spec(seq, 1.0, symbol=beurling_matrix()))
    assert res == pytest.approx((52.0 / 21.0) ** 0.25, abs=1e-10)


def test_witness_shape_dispatch():
    # A scalar symbol takes scalar tables only.
    with pytest.raises(ValueError, match="scalar witnesses need scalar"):
        build_witness(*_spec(_explicit_instance(m=2), 1.0))
    # The 2x2 matrix symbol takes scalar or C^2 tables, never C^3.
    with pytest.raises(ValueError, match="1 or the matrix size"):
        build_witness(*_spec(_explicit_instance(m=3), 1.0, symbol=beurling_matrix()))


def test_spec_validation():
    seq = _explicit_instance()
    # A beta shorter than the martingale is refused by the enumeration.
    with pytest.raises(ValueError):
        build_witness(beurling_real(), seq, (-1,), 0.0, ExponentConfig(4.0))
    # Im B vanishes on both axes and rotated(0) = -Re B has them reversed;
    # both are certified through Re B by a rotation, never directly.
    for symbol in (family_symbol("beurling-imag"), family_symbol("rotated", 0.0)):
        with pytest.raises(CrossCheckError):
            build_witness(*_spec(seq, 0.0, symbol=symbol))


_AXIS_FREQUENCIES = np.array([(0.0, 1.0), (0.0, -1.0), (1.0, 0.0), (-1.0, 0.0)])


def _changed_at_axes(symbol, changes):
    """symbol with its value v at axis frequency i replaced by change(v), per (i, change)."""
    def evaluator(xi):
        out = symbol.evaluate(xi)
        for i, change in changes:
            at = np.all(xi == _AXIS_FREQUENCIES[i], axis=-1)
            out[at] = change(out[at])
        return out

    return MultiplierSymbol(d=2, evaluator=evaluator, m=symbol.m,
                            name=f"changed {symbol.name}")


def _seeded_changes(rng, matrix):
    """Changes at one to four axis frequencies: by 1e-13 or 1e-9, real or imaginary
    (off the diagonal too for a matrix), or a sign flip."""
    kinds = ["real", "imag", "flip"] + (["off-diagonal"] if matrix else [])
    changes = []
    for i in rng.choice(4, size=int(rng.integers(1, 5)), replace=False):
        kind, eps = kinds[int(rng.integers(len(kinds)))], float(rng.choice([1e-13, 1e-9]))
        if kind == "flip":
            changes.append((int(i), lambda v: -v))
            continue
        step = (1j if kind == "imag" else 1.0) * eps
        if matrix:
            step = step * (np.array([[0.0, 1.0], [0.0, 0.0]]) if kind == "off-diagonal"
                           else np.eye(2))
        changes.append((int(i), lambda v, step=step: v + step))
    return changes


def test_exact_axis_check_refuses_every_changed_symbol():
    # Every change at an axis frequency, however small, is refused by the
    # certificate; Re B and its matrix form pass.
    rng = np.random.default_rng(np.random.PCG64(21))
    seq = _explicit_instance()
    for base in (beurling_real(), beurling_matrix()):
        build_witness(*_spec(seq, 1.0, symbol=base))
        for _ in range(40):
            changed = _changed_at_axes(base, _seeded_changes(rng, base.m > 1))
            with pytest.raises(CrossCheckError):
                build_witness(*_spec(seq, 1.0, symbol=changed))


def test_symbol_off_the_axis_values_exits_crosscheck(monkeypatch, tmp_path):
    # Re B changed by 1e-13 at (0, 1) fails the exact check:
    # a failed premise, exit 3, before anything is written.
    changed = _changed_at_axes(beurling_real(), [(0, lambda v: v + 1e-13)])
    monkeypatch.setattr(cli, "beurling_real", lambda: changed)
    store, out = tmp_path / "store", tmp_path / "out.json"
    assert main(["certify", "beurling-real", "--p", "4", "--n", "2", "--iters", "30",
                 "--restarts", "2", "--store-dir", str(store), "--out", str(out)]) == 3
    assert not list(store.glob("*.json"))
    assert not out.exists()


def test_symbol_checked_before_any_martingale_is_sought(monkeypatch, tmp_path):
    # A symbol off its axis values exits 3 before a search runs or a --martingale
    # file is read: this one does not exist, and reading it would exit 2.
    def no_search(*args, **kwargs):
        raise AssertionError("a martingale was sought before the symbol was checked")

    changed = _changed_at_axes(beurling_real(), [(0, lambda v: v + 1e-13)])
    monkeypatch.setattr(cli, "beurling_real", lambda: changed)
    monkeypatch.setattr(cli, "search_extremal", no_search)
    store, out = tmp_path / "store", tmp_path / "out.json"
    common = ["--p", "4", "--n", "2", "--store-dir", str(store), "--out", str(out)]
    for argv in (["certify", "beurling-real"], ["search-martingale"],
                 ["certify", "beurling-real", "--martingale", str(tmp_path / "none.json")]):
        assert main([*argv, *common]) == 3, argv
        assert not list(store.glob("*.json"))
        assert not out.exists()


def test_exponents_checked_before_the_axis_values(monkeypatch, tmp_path):
    # With p0 > p and a symbol off its axis values, the premise refuses p0 first:
    # exit 2, not 3, before anything is written.
    changed = _changed_at_axes(beurling_real(), [(0, lambda v: v + 1e-13)])
    monkeypatch.setattr(cli, "beurling_real", lambda: changed)
    store, out = tmp_path / "store", tmp_path / "out.json"
    common = ["--p", "4", "--p0", "8", "--n", "2", "--iters", "30", "--restarts", "2",
              "--store-dir", str(store), "--out", str(out)]
    for argv in (["certify", "beurling-real"], ["search-martingale"]):
        assert main([*argv, *common]) == 2, argv
        assert not list(store.glob("*.json"))
        assert not out.exists()


def test_no_certificate_runs_a_lift(monkeypatch, tmp_path):
    # Every family is certified at the axis values alone: with the multiplier
    # lift unusable each still gives the enumerated ratio, and a search certifies.
    def no_lift(*args, **kwargs):
        raise AssertionError("a certificate ran a multiplier lift")

    _, seq, beta, tau, exps = _random_spec(3)
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_json(inst, sequence_to_record(seq, beta, tau, exps, 1.0, 0, "def2"))
    bound = perturbed_ratio_exact(seq, TransformConfig(beta, tau), exps)
    monkeypatch.setattr(witness, "tensor_lift_apply", no_lift)
    monkeypatch.setattr(tensor, "tensor_lift_apply", no_lift)
    args = ["--p", "4", "--tau", "1", "--n", "3", "--martingale", str(inst),
            "--store-dir", str(tmp_path / "store"), "--out", str(out)]
    for family in (["beurling-real"], ["beurling-imag"], ["rotated", "--theta", "0.7"],
                   ["vector"], ["beurling-matrix"]):
        assert main(["certify", *family, *args]) == 0, family
        assert json.loads(out.read_text())["certified_lower_bound"] == bound, family
    assert main(["search-martingale", "--p", "4", "--n", "2", "--iters", "30",
                 "--restarts", "2", "--store-dir", str(tmp_path / "store")]) == 0


def test_p0_above_p_rejected():
    with pytest.raises(ValueError):
        build_witness(beurling_real(), _explicit_instance(), (-1, 1), 0.0,
                      ExponentConfig(2.0, 4.0))


def _random_spec(N, seed=0, m=1, tau=1.0, p=4.0):
    """build_witness's arguments for random complex tables and flips; m = 2 pairs
    them with the matrix symbol."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    seq = MartingaleDifferenceSequence(tuple(
        rng.standard_normal((2,) * k + (m,)) + 1j * rng.standard_normal((2,) * k + (m,))
        for k in range(1, N + 1)))
    beta = tuple(int(b) for b in rng.choice([-1, 1], size=N))
    return (beurling_matrix() if m > 1 else beurling_real(), seq, beta, tau,
            ExponentConfig(p))


def test_oversize_witness_refused_before_allocation():
    # The factored certificate enumerates the hypercube, so its depth limit is
    # the enumeration cap; one level deeper is refused before any allocation.
    N = ENUMERATION_CAP + 1
    seq = MartingaleDifferenceSequence(tuple(
        np.broadcast_to(np.complex128(1.0), (2,) * k + (1,)) for k in range(1, N + 1)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            build_witness(beurling_real(), seq, (1,) * N, 1.0, ExponentConfig(4.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_factored_witness_allocates_no_torus_array():
    # One full-size scalar array on (T^2)^9 at G = 2 is 4^9 complex values.
    spec = _random_spec(8)
    full = 4**9 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        build_witness(*spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full


def _torus_reference(symbol, sequence, beta, tau, exps, G):
    """The witness ratio evaluated on all G^(2(N+1)) torus points.

    Phi_k and T^k Phi_k depend only on blocks 0..k, so each summand is built
    and lifted with J = k + 1 (block k last) and added into running sums
    that grow by one block per step.
    """
    N, d = sequence.N, 2
    scalar = symbol.m == 1
    grid = TorusGrid(2, G)
    theta = mesh(grid)
    axis_sign = {1: np.sign(theta[..., 1]), -1: np.sign(theta[..., 0])}
    signs = [axis_sign[b] for b in (1,) + beta]
    idx = [((1 - s) / 2).astype(int) for s in signs]

    def on_block(arr, j, J):
        """Reshape a (G,)*d block field onto the axes of block j of J."""
        return arr.reshape((1,) * (d * j) + (G,) * d + (1,) * (d * (J - 1 - j)))

    def grow(prefix_sum, k):
        """View a sum over blocks 0..k-1 as constant along a new block k."""
        return prefix_sum.reshape(prefix_sum.shape[:d * k] + (1,) * d
                                  + prefix_sum.shape[d * k:])

    phi_sum = pair_sum = None
    for k in range(1, N + 1):
        J = k + 1
        table = sequence.tables[k - 1]
        gathered = table[tuple(on_block(idx[j], j, J) for j in range(k))]
        vals = on_block(signs[k], k, J)[..., None] * gathered
        if scalar:
            vals = vals[..., 0]
        top = tensor_lift_apply(TensorGridFunction(grid, J, vals), symbol, k).values
        with_axis = (G,) * (d * J) + (-1,)
        pair = np.concatenate([top.reshape(with_axis), tau * vals.reshape(with_axis)],
                              axis=-1)
        if k > 1:
            vals = vals + grow(phi_sum, k)
            pair = pair + grow(pair_sum, k)
        phi_sum, pair_sum = vals, pair
    den = TensorGridFunction(grid, N + 1, phi_sum).lp_norm(exps.p)
    num = TensorGridFunction(grid, N + 1, pair_sum).lp_norm(exps.p0)
    return num / den


def _reference_cases():
    for G, depths in ((2, range(1, 9)), (4, range(1, 4))):
        for N in depths:
            for m in (1, 2):
                for tau in (0.0, 1.0):
                    for p in (4.0, 4.0 / 3.0):
                        yield pytest.param(N, m, tau, p, G,
                                           id=f"G{G}-N{N}-m{m}-tau{tau:g}-p{p:.3g}")


@pytest.mark.parametrize("N, m, tau, p, G", _reference_cases())
def test_factored_matches_torus_reference(N, m, tau, p, G):
    spec = _random_spec(N, seed=100 * N + 10 * m + G, m=m, tau=tau, p=p)
    assert abs(build_witness(*spec) - _torus_reference(*spec, G)) <= 1e-10
