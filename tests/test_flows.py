"""Coupling flows: invertibility, exact log-det, Gaussian prior likelihoods."""

import math

import numpy as np
import pytest

from flowpath.errors import NumericError, ShapeError
from flowpath.flows import (
    BijectionStack,
    CouplingUnit,
    alternating_mask,
    flow_forward,
    flow_inverse,
    flow_log_density,
    flow_nll,
    flow_nll_value,
    gaussian_loglik,
    make_coupling_unit,
    make_flow,
    unit_inverse,
)
from flowpath.nets import DenseLayer, DenseNet, finite_diff_grad

from conftest import assert_close
import reference


def perturbed_flow(seed: int, dim: int, units: int, scale: float = 0.1,
                   hidden: int = 8):
    rng = np.random.default_rng(seed)
    flow = make_flow(rng, dim, units, hidden=hidden)
    for _, arr in flow.parameters():
        arr += scale * rng.standard_normal(arr.shape)
    return flow


def test_zero_initialized_unit_is_identity():
    unit = make_coupling_unit(np.random.default_rng(0), alternating_mask(4, 0))
    x = np.random.default_rng(1).standard_normal(4)
    y, logdet = flow_forward(BijectionStack(4, [unit]), x)
    assert np.array_equal(y, x)
    assert logdet == 0.0
    assert np.array_equal(unit_inverse(unit, x), x)


def test_pure_translation_unit():
    # S == 0, T == 1 on the transformed half; mask keeps dim 0
    net = DenseNet([DenseLayer(np.zeros((2, 1, 1)), np.array([[0.0], [1.0]]), "identity")])
    unit = CouplingUnit(np.array([1, 0]), net)
    y, logdet = flow_forward(BijectionStack(2, [unit]), np.array([2.0, 3.0]))
    assert np.allclose(y, [2.0, 4.0])
    assert logdet == 0.0
    x = unit_inverse(unit, np.array([2.0, 4.0]))
    assert np.allclose(x, [2.0, 3.0])


def test_unit_logdet_matches_numerical_jacobian():
    rng = np.random.default_rng(5)
    unit = make_coupling_unit(rng, alternating_mask(4, 1), hidden=8)
    for _, arr in unit.parameters():
        arr += 0.2 * rng.standard_normal(arr.shape)
    flow = BijectionStack(4, [unit])
    x = rng.standard_normal(4)
    _, logdet = flow_forward(flow, x)
    eps = 1e-6
    jac = np.zeros((4, 4))
    for j in range(4):
        hi, lo = x.copy(), x.copy()
        hi[j] += eps
        lo[j] -= eps
        jac[:, j] = (flow_forward(flow, hi)[0] - flow_forward(flow, lo)[0]) / (2 * eps)
    ref = math.log(abs(np.linalg.det(jac)))
    assert abs(logdet - ref) <= 1e-4 * abs(ref) + 1e-8


def test_unit_roundtrip_random():
    rng = np.random.default_rng(6)
    unit = make_coupling_unit(rng, alternating_mask(5, 0), hidden=8)
    for _, arr in unit.parameters():
        arr += 0.2 * rng.standard_normal(arr.shape)
    x = rng.standard_normal((200, 5))
    y, _ = flow_forward(BijectionStack(5, [unit]), x)
    assert np.abs(unit_inverse(unit, y) - x).max() < 1e-9


def test_mask_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        make_coupling_unit(rng, np.array([1, 1, 1]))
    with pytest.raises(ValueError):
        make_coupling_unit(rng, np.array([0, 0]))


def test_clamp_validation():
    rng = np.random.default_rng(0)
    for clamp in (0.0, -1.0, math.nan, (2.0, 2.0)):  # a lone unit runs one flow
        with pytest.raises(ValueError):
            make_coupling_unit(rng, alternating_mask(4, 0), clamp=clamp)


def test_zero_initialized_stack_is_identity():
    flow = make_flow(np.random.default_rng(3), dim=6, n_units=4)
    x = np.random.default_rng(4).standard_normal(6)
    z, logdet = flow_forward(flow, x)
    assert np.array_equal(z, x)
    assert logdet == 0.0


def test_stack_logdet_matches_end_to_end_jacobian():
    flow = perturbed_flow(8, dim=2, units=4, scale=0.2)
    x = np.random.default_rng(9).standard_normal(2)
    _, logdet = flow_forward(flow, x)
    eps = 1e-6
    jac = np.zeros((2, 2))
    for j in range(2):
        hi, lo = x.copy(), x.copy()
        hi[j] += eps
        lo[j] -= eps
        jac[:, j] = (flow_forward(flow, hi)[0] - flow_forward(flow, lo)[0]) / (2 * eps)
    ref = math.log(abs(np.linalg.det(jac)))
    assert abs(logdet - ref) <= 1e-4 * abs(ref) + 1e-8


def test_logdet_additivity_bitwise():
    flow = perturbed_flow(10, dim=4, units=5, scale=0.15)
    x = np.random.default_rng(11).standard_normal(4)
    _, total = flow_forward(flow, x)
    h = x
    acc = np.zeros(1)
    for u in flow.units:
        h2, ld = flow_forward(BijectionStack(4, [u]), h[None, :] if h.ndim == 1 else h)
        # replicate the stack's accumulation arithmetic exactly
        acc = acc + ld
        h = h2[0]
    assert float(acc[0]) == total


def test_flow_roundtrip_property():
    for seed, dim, units in ((0, 2, 4), (1, 4, 6), (2, 16, 10)):
        flow = perturbed_flow(seed, dim, units, scale=0.05, hidden=16)
        x = np.random.default_rng(seed + 50).standard_normal((1000, dim))
        z, _ = flow_forward(flow, x)
        assert np.abs(flow_inverse(flow, z) - x).max() < 1e-9


def test_gaussian_loglik_values():
    # standard normal at the origin, dim 2
    assert abs(gaussian_loglik(np.zeros(2), 0.0, 1.0) + math.log(2 * math.pi)) < 1e-12
    # z == mean: exponent vanishes
    var = np.array([0.5, 2.0, 1.5])
    got = gaussian_loglik(np.array([1.0, -2.0, 0.3]), np.array([1.0, -2.0, 0.3]), var)
    assert abs(got + 0.5 * float(np.log(2 * math.pi * var).sum())) < 1e-12
    # dim 3 quadratic form: -(3/2) ln(2 pi) - 7
    got = gaussian_loglik(np.array([1.0, 2.0, 3.0]), 0.0, 1.0)
    assert abs(got - (-1.5 * math.log(2 * math.pi) - 7.0)) < 1e-12


def test_gaussian_loglik_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        gaussian_loglik(np.zeros(2), 0.0, np.array([1.0, 0.0]))


def test_identity_flow_nll_at_origin():
    flow = make_flow(np.random.default_rng(0), dim=3, n_units=2)
    loss, _ = flow_nll(flow, np.zeros((1, 3)))
    assert abs(loss - 1.5 * math.log(2 * math.pi)) < 1e-12


def test_flow_nll_gradient_matches_finite_differences():
    flow = perturbed_flow(12, dim=4, units=2, scale=0.05, hidden=6)
    xs = np.random.default_rng(13).standard_normal((5, 4))
    _, grads = flow_nll(flow, xs)
    arrays = [a for _, a in flow.parameters()]
    numeric = finite_diff_grad(lambda: flow_nll_value(flow, xs), arrays, 1e-5)
    assert_close(grads, numeric, label="flow_nll")


def test_flow_nll_rejects_empty_batch():
    flow = make_flow(np.random.default_rng(0), dim=3, n_units=2)
    with pytest.raises(ShapeError):
        flow_nll(flow, np.zeros((0, 3)))


def test_training_improves_heldout_nll(trained_bimodal_flow):
    flow, heldout, initial = trained_bimodal_flow
    final = flow_nll_value(flow, heldout)
    assert final < initial - 0.5


def quadrature_mass(flow, n_cells: int = 400) -> float:
    """Midpoint quadrature of exp(log p) over a box holding 6 sigma of mass."""
    rng = np.random.default_rng(99)
    samples = flow_inverse(flow, rng.standard_normal((4000, flow.dim)))
    lo = samples.mean(axis=0) - 6.0 * samples.std(axis=0)
    hi = samples.mean(axis=0) + 6.0 * samples.std(axis=0)
    if flow.dim == 1:
        xs = np.linspace(lo[0], hi[0], n_cells + 1)
        mid = 0.5 * (xs[1:] + xs[:-1])
        dens = np.exp(flow_log_density(flow, mid[:, None]))
        return float(dens.sum() * (xs[1] - xs[0]))
    assert flow.dim == 2
    xs = np.linspace(lo[0], hi[0], n_cells + 1)
    ys = np.linspace(lo[1], hi[1], n_cells + 1)
    mx = 0.5 * (xs[1:] + xs[:-1])
    my = 0.5 * (ys[1:] + ys[:-1])
    grid = np.stack(np.meshgrid(mx, my, indexing="ij"), axis=-1).reshape(-1, 2)
    dens = np.exp(flow_log_density(flow, grid))
    return float(dens.sum() * (xs[1] - xs[0]) * (ys[1] - ys[0]))


def test_density_normalization_1d_identity_stack():
    flow = BijectionStack(1, [])  # coupling masks need >= 2 dims
    assert 0.99 <= quadrature_mass(flow) <= 1.01


def test_density_normalization_trained_2d(trained_bimodal_flow):
    flow, _, _ = trained_bimodal_flow
    assert 0.99 <= quadrature_mass(flow) <= 1.01


def test_batch_and_single_paths_agree():
    # batched and row-at-a-time evaluation may hit different BLAS kernels,
    # so agreement is to rounding, not bitwise
    flow = perturbed_flow(21, dim=5, units=3, scale=0.1)
    xs = np.random.default_rng(22).standard_normal((7, 5))
    zb, ldb = flow_forward(flow, xs)
    for i in range(7):
        zi, ldi = flow_forward(flow, xs[i])
        assert np.allclose(zi, zb[i], rtol=1e-13, atol=1e-14)
        assert abs(ldi - ldb[i]) < 1e-12
    xr = flow_inverse(flow, zb)
    for i in range(7):
        assert np.allclose(flow_inverse(flow, zb[i]), xr[i], rtol=1e-13, atol=1e-14)


def test_gaussian_loglik_batched_rows():
    rng = np.random.default_rng(23)
    z = rng.standard_normal((4, 3))
    mean = rng.standard_normal(3)
    var = rng.uniform(0.5, 2.0, 3)
    batch = gaussian_loglik(z, mean, var)
    assert batch.shape == (4,)
    for i in range(4):
        assert abs(batch[i] - gaussian_loglik(z[i], mean, var)) < 1e-12


def test_flow_rejects_bad_input_rank_and_length():
    flow = make_flow(np.random.default_rng(0), dim=4, n_units=2)
    with pytest.raises(ShapeError):
        flow_forward(flow, np.zeros((2, 2, 4)))
    with pytest.raises(ShapeError):
        flow_forward(flow, np.zeros(5))
    with pytest.raises(ShapeError):
        flow_inverse(flow, np.zeros(3))


@pytest.mark.parametrize("which", ["weight", "bias"])
def test_nan_in_hidden_layer_raises_from_flow_forward_and_nll(which):
    flow = perturbed_flow(31, dim=4, units=3)
    xs = np.random.default_rng(32).standard_normal((5, 4))
    getattr(reference.translate_net(flow.units[1]).layers[1], which)[0] = np.nan
    with pytest.raises(NumericError):
        flow_forward(flow, xs)
    with pytest.raises(NumericError):
        flow_nll(flow, xs)
