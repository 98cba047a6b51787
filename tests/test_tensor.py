"""Multi-block tensor functions, per-block lifts, and shear invariance."""

import numpy as np
import pytest

from lpmult.catalog import beurling_real, family_symbol, identity_symbol
from lpmult.grid import TorusGrid, coefficients, from_coefficients
from lpmult.catalog import MultiplierSymbol
from lpmult.tensor import (TensorGridFunction, check_grid_size, shear_norm_check,
                           tensor_lift_apply)

from torus import mesh

_P2_TOL = 1e-10


def p2_lift_bound_check(phis, M):
    """Exact p = 2 form of the tensor-lift inequality, phi_k lifted in block k.

    Returns (||sum_k T^k phi_k||_2, ||M||_{2->2} * ||sum_k phi_k||_2) for a
    scalar symbol M and asserts lhs <= rhs + 1e-10; the p = 2 operator norm
    is the largest |M| on the lattice, so this inequality is checkable
    without any search.
    """
    f0 = phis[0]
    lifted = [tensor_lift_apply(phi, M, k) for k, phi in enumerate(phis)]
    lhs = TensorGridFunction(f0.grid, f0.J,
                             sum(t.values for t in lifted)).lp_norm(2.0)
    norm = float(np.max(np.abs(M.evaluate(f0.grid.frequency_mesh()))))
    rhs = norm * TensorGridFunction(f0.grid, f0.J,
                                    sum(f.values for f in phis)).lp_norm(2.0)
    if lhs > rhs + _P2_TOL:
        raise AssertionError(f"tensor-lift bound violated: {lhs} > {rhs} + {_P2_TOL}")
    return lhs, rhs


def _random_mean_zero(grid, J, rng, block):
    """Random summand with the martingale support structure in block `block`:
    mean-zero along block `block` and constant in every later block."""
    d, G = grid.d, grid.G
    shape = (G,) * (d * J)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    zero_pos = G // 2
    for ax in range(d * block, d * block + d):
        idx = [slice(None)] * (d * J)
        idx[ax] = zero_pos
        c[tuple(idx)] = 0.0
    for ax in range(d * (block + 1), d * J):
        keep = [slice(None)] * (d * J)
        keep[ax] = zero_pos
        only = np.zeros_like(c)
        only[tuple(keep)] = c[tuple(keep)]
        c = only
    from lpmult.grid import from_coefficients
    return TensorGridFunction(grid, J, from_coefficients(c, grid, tuple(range(d * J))))


def test_shape_and_cap_validation():
    grid = TorusGrid(1, 4)
    with pytest.raises(ValueError):
        TensorGridFunction(grid, 2, np.ones((4, 6)))
    with pytest.raises(ValueError):
        TensorGridFunction(grid, 0, np.ones(4))
    with pytest.raises(ValueError):
        # The point cap triggers before the (huge) value array is validated.
        TensorGridFunction(TorusGrid(1, 64), 5, np.ones(1))
    with pytest.raises(ValueError):
        check_grid_size(TorusGrid(1, 64), 8)
    check_grid_size(TorusGrid(1, 8), 8)  # 8^8 points: at the cap, not over it


def test_block_axes_and_norms():
    grid = TorusGrid(2, 4)
    f = TensorGridFunction(grid, 2, np.ones((4, 4, 4, 4)))
    assert f.block_axes(0) == (0, 1)
    assert f.block_axes(1) == (2, 3)
    assert f.lp_norm(4.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        f.block_axes(2)


def test_lift_acts_on_single_block():
    # exp(i(j, theta_0)) * exp(i(k, theta_1)) lifted in block 1 picks up
    # the eigenvalue at k only.
    grid = TorusGrid(2, 4)
    theta = mesh(grid)
    j, k = np.array([1.0, 0.0]), np.array([1.0, -2.0])
    f0 = np.exp(1j * theta @ j)
    f1 = np.exp(1j * theta @ k)
    vals = f0[:, :, None, None] * f1[None, None, :, :]
    phi = TensorGridFunction(grid, 2, vals)
    out = tensor_lift_apply(phi, family_symbol("beurling"), 1)
    lam = family_symbol("beurling").evaluate(k)
    assert np.max(np.abs(out.values - lam * vals)) < 1e-12


def _fft_lift_reference(phi, M, k):
    """The lift as a full FFT over block k: coefficients, multiply, invert."""
    axes = phi.block_axes(k)
    c = coefficients(phi.values, phi.grid, axes)
    sym = M.evaluate(phi.grid.frequency_mesh())
    lead = [1] * (phi.grid.d * phi.J)
    for ax in axes:
        lead[ax] = phi.grid.G
    if M.m == 1:
        out_c = sym.reshape(lead) * c
    else:
        out_c = np.einsum("...ij,...j->...i", sym.reshape(lead + [M.m, M.m]), c)
    return from_coefficients(out_c, phi.grid, axes)


def _vector_as_matrix(tau):
    """The vector multiplier (Re B, tau)^T as the 2 x 2 matrix symbol
    [[Re B, 0], [tau, 0]], which sends (f, g) to (Re B f, tau f)."""

    def evaluator(xi):
        out = np.zeros(xi.shape[:-1] + (2, 2), dtype=complex)
        out[..., 0, 0] = beurling_real().evaluator(xi)
        out[..., 1, 0] = tau
        return out

    return MultiplierSymbol(d=2, evaluator=evaluator, m=2,
                            name=f"(beurling-real, {tau})")


_LIFT_SYMBOLS = {"scalar": family_symbol("beurling"), "vector": _vector_as_matrix(0.5),
                 "matrix": family_symbol("beurling-matrix"), "identity": identity_symbol(2)}


def _lift_cases():
    """Symbol x (J, k) x G x block-k mean removed or kept.

    The J = 3, mean-removed cases keep their ids "<symbol>-<k>-<G>"; J = 1
    adds "-J1" and a kept block-k mean adds "-mean".
    """
    for name, M in _LIFT_SYMBOLS.items():
        for J, k in ((3, 0), (3, 1), (3, 2), (1, 0)):
            for G in (2, 4):
                for keep_mean in (False, True):
                    tag = (f"{name}-{k}-{G}" + ("-J1" if J == 1 else "")
                           + ("-mean" if keep_mean else ""))
                    yield pytest.param(M, J, k, G, keep_mean, id=tag)


@pytest.mark.parametrize("M, J, k, G, keep_mean", _lift_cases())
def test_lift_matches_fft_reference(M, J, k, G, keep_mean):
    rng = np.random.default_rng(np.random.PCG64(10 * k + G))
    grid = TorusGrid(2, G)
    comp = (M.m,) if M.m > 1 else ()
    shape = (G,) * (2 * J) + comp
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if not keep_mean:
        vals -= vals.mean(axis=(2 * k, 2 * k + 1), keepdims=True)
    phi = TensorGridFunction(grid, J, vals)
    out = tensor_lift_apply(phi, M, k)
    ref = _fft_lift_reference(phi, M, k)
    assert out.values.shape == ref.shape
    assert np.max(np.abs(out.values - ref)) < 1e-12


def test_shear_aligned_exact():
    rng = np.random.default_rng(np.random.PCG64(0))
    grid = TorusGrid(1, 8)
    summands = []
    for _ in range(2):
        c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        summands.append(TensorGridFunction(grid, 2, np.fft.ifftn(c) * 64))
    chk = shear_norm_check(summands, 2, 4.0)
    assert chk.aligned
    assert chk.lhs == pytest.approx(chk.rhs, abs=1e-12 * max(1.0, chk.rhs))


def _shear_per_summand(summands, N, p):
    """(lhs, rhs) of the shear check with every summand shifted on its own."""
    f0 = summands[0]
    grid, J = f0.grid, f0.J

    def shift(f, cells):
        out = f.values
        for j, c in enumerate(cells):
            c %= grid.G
            if c:
                for ax in f.block_axes(j):
                    out = np.roll(out, -c, axis=ax)
        return out

    rhs = TensorGridFunction(grid, J, sum(f.values for f in summands)).lp_norm(p) ** p
    acc = 0.0
    for t in range(grid.G):
        cells = [t * N ** (j + 1) for j in range(J)]
        acc += TensorGridFunction(grid, J, sum(shift(f, cells) for f in summands)).lp_norm(p) ** p
    return acc / grid.G, rhs


def test_shear_of_the_sum_equals_per_summand_shifts():
    # A whole-cell shift permutes the samples and is the same for every
    # summand, so shifting the sum adds the same numbers in the same order.
    rng = np.random.default_rng(np.random.PCG64(15))
    for _ in range(49):
        d = int(rng.integers(1, 3))
        J = int(rng.integers(1, 6 if d == 1 else 4))
        G = int(rng.choice([g for g in (2, 4, 6) if g ** (d * J) <= 1024]))
        m = int(rng.choice([0, 2, 3]))
        shape = (G,) * (d * J) + ((m,) if m else ())
        summands = [TensorGridFunction(TorusGrid(d, G), J, rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))
                    for _ in range(int(rng.integers(1, 4)))]
        N, p = int(rng.choice([1, 2, 3, 5])), float(rng.choice([1.5, 3.0, 4.0]))
        chk = shear_norm_check(summands, N, p)
        assert (chk.lhs, chk.rhs) == _shear_per_summand(summands, N, p), (d, J, G, m, N, p)


def test_shear_input_validation():
    with pytest.raises(ValueError):
        shear_norm_check([], 2, 4.0)
    grid_a = TorusGrid(1, 4)
    grid_b = TorusGrid(1, 8)
    fa = TensorGridFunction(grid_a, 1, np.ones(4))
    fb = TensorGridFunction(grid_b, 1, np.ones(8))
    with pytest.raises(ValueError):
        shear_norm_check([fa, fb], 2, 4.0)


def test_p2_lift_inequality():
    rng = np.random.default_rng(np.random.PCG64(2))
    grid = TorusGrid(2, 4)
    phis = [_random_mean_zero(grid, 2, rng, block) for block in (0, 1)]
    lhs, rhs = p2_lift_bound_check(phis, family_symbol("beurling"))
    assert lhs <= rhs + 1e-10
