"""Multi-block tensor functions, per-block lifts, and shear invariance."""

import numpy as np
import pytest

from lpmult.catalog import (beurling, beurling_matrix, identity_symbol,
                            vector_perturbation)
from lpmult.grid import TorusGrid, coefficients, from_coefficients
from lpmult.tensor import (TensorGridFunction, shear_norm_check,
                           tensor_lift_apply, p2_lift_bound_check)


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
    theta = grid.mesh()
    j, k = np.array([1.0, 0.0]), np.array([1.0, -2.0])
    f0 = np.exp(1j * theta @ j)
    f1 = np.exp(1j * theta @ k)
    vals = f0[:, :, None, None] * f1[None, None, :, :]
    phi = TensorGridFunction(grid, 2, vals)
    out = tensor_lift_apply(phi, beurling(), 1)
    lam = beurling().evaluate(k)
    assert np.max(np.abs(out.values - lam * vals)) < 1e-12


def _fft_lift_reference(phi, M, k):
    """The lift as a full FFT over block k: coefficients, multiply, invert."""
    axes = phi.block_axes(k)
    c = coefficients(phi.values, phi.grid, axes)
    sym = M.evaluate(phi.grid.frequency_mesh())
    lead = [1] * (phi.grid.d * phi.J)
    for ax in axes:
        lead[ax] = phi.grid.G
    if M.shape == "scalar":
        out_c = sym.reshape(lead) * c
    elif M.shape == "vector":
        out_c = sym.reshape(lead + [M.m]) * c[..., None]
    else:
        out_c = np.einsum("...ij,...j->...i", sym.reshape(lead + [M.m, M.m]), c)
    return from_coefficients(out_c, phi.grid, axes)


_LIFT_SYMBOLS = {"scalar": beurling(), "vector": vector_perturbation(beurling(), 0.5),
                 "matrix": beurling_matrix(), "identity": identity_symbol(2)}


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
    comp = (M.m,) if M.shape == "matrix" else ()
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


def test_shear_fractional_flagged():
    rng = np.random.default_rng(np.random.PCG64(1))
    grid = TorusGrid(1, 8)
    c = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    f = TensorGridFunction(grid, 2, np.fft.ifftn(c) * 64)
    chk = shear_norm_check([f], 2, 4.0, eta_cells=[0.5, 1.0])
    assert not chk.aligned
    assert np.isfinite(chk.lhs)


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
    lhs, rhs = p2_lift_bound_check(phis, beurling())
    assert lhs <= rhs + 1e-10
