"""Controller transform: factorization, pair likelihood, synthesis."""

import math

import numpy as np
import pytest

from flowpath.errors import InsufficientDataError, NumericError, ValidationError
from flowpath.checks import full_3way_contraction
from flowpath.flows import flow_forward, gaussian_loglik
from flowpath.nets import Adam, finite_diff_grad
from flowpath.transform import (
    AgingModel,
    FactoredTransform,
    controller_gaussian_penalty,
    make_aging_model,
    pair_loglik,
    pair_objective_and_grads,
    synthesize_step,
    train_pair_step,
    transform_apply,
)
from conftest import assert_close
import reference


def small_model(seed: int, dim: int = 4, n_actions: int = 5,
                perturb: float = 0.05) -> AgingModel:
    rng = np.random.default_rng(seed)
    model = make_aging_model(rng, dim=dim, n_actions=n_actions, flow_units=2,
                             hidden=6, factors=3)
    if perturb:
        for _, arr in model.parameters():
            arr += perturb * rng.standard_normal(arr.shape)
    return model


def test_identity_configuration():
    g = FactoredTransform(np.eye(2), np.eye(2), np.ones((2, 4)), np.zeros(2))
    z = np.array([0.5, -0.3])
    assert np.allclose(transform_apply(g, z, 1), z)


def test_column_scaling_configuration():
    w_act = np.ones((2, 4))
    w_act[:, 2] = [2.0, 0.0]
    g = FactoredTransform(np.eye(2), np.eye(2), w_act, np.zeros(2))
    out = transform_apply(g, np.array([0.5, -0.3]), 2)
    assert np.allclose(out, [1.0, 0.0])


def test_factored_equals_brute_force_3way():
    rng = np.random.default_rng(17)
    for _ in range(25):
        d, f, na = (int(rng.integers(2, 7)) for _ in range(3))
        g = FactoredTransform(rng.standard_normal((d, f)),
                              rng.standard_normal((f, d)),
                              rng.standard_normal((f, na)),
                              rng.standard_normal(d))
        z = rng.standard_normal(d)
        k = int(rng.integers(0, na))
        fast = transform_apply(g, z, k)
        slow = full_3way_contraction(g, z, k)
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


def test_one_hot_exclusivity_bit_identical():
    rng = np.random.default_rng(21)
    g = FactoredTransform(rng.standard_normal((3, 4)), rng.standard_normal((4, 3)),
                          rng.standard_normal((4, 6)), rng.standard_normal(3))
    z = rng.standard_normal(3)
    before = transform_apply(g, z, 2)
    g.w_act[:, [0, 1, 3, 4, 5]] += 100.0  # perturb every other column
    after = transform_apply(g, z, 2)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("actions", [np.array([2.0]), np.eye(5)[2]],
                         ids=["float-index", "float-one-hot"])
def test_actions_must_be_integer_indices(actions):
    model = small_model(22)
    rng = np.random.default_rng(23)
    xp, xt = rng.standard_normal((2, 4))
    with pytest.raises(ValidationError, match="integer"):
        transform_apply(model.transform, xp, actions)
    with pytest.raises(ValidationError, match="integer"):
        pair_loglik(model, xp, xt, actions)
    with pytest.raises(ValidationError, match="integer"):
        pair_objective_and_grads(model, xp, xt, actions)


def test_zero_initialized_pair_loglik_reduces_to_standard_normal():
    model = small_model(3, perturb=0.0)
    for _, arr in model.transform.parameters():
        arr[...] = 0.0
    rng = np.random.default_rng(4)
    x_prev, x_t = rng.standard_normal(4), rng.standard_normal(4)
    ll = pair_loglik(model, x_prev, x_t, 2)
    assert abs(ll - gaussian_loglik(x_t, 0.0, 1.0)) < 1e-12


def test_pair_gradient_matches_finite_differences():
    model = small_model(5)
    rng = np.random.default_rng(6)
    xp = rng.standard_normal((4, 4))
    xt = rng.standard_normal((4, 4))
    acts = rng.integers(0, 5, size=4)
    _, grads = pair_objective_and_grads(model, xp, xt, acts, constraint_weight=0.1)
    arrays = [a for _, a in model.parameters()]
    numeric = finite_diff_grad(
        lambda: pair_objective_and_grads(model, xp, xt, acts, 0.1)[0], arrays, 1e-5)
    assert_close(grads, numeric, label="pair objective")


def permuted_model(model: AgingModel, perm: np.ndarray) -> AgingModel:
    """The same function on permuted observation coordinates x' = x[perm]."""
    g = model.transform
    units = [(u.mask[perm], [(layer.weight.shape[-2:], layer.activation) for layer in u.net.layers],
              u.clamp.ravel()) for u in model.flows.units]
    permuted = AgingModel(g.dim, units, reference.factors(g), g.n_actions)
    for old, new in zip(model.flows.units, permuted.flows.units):
        # position of each new slot's original dimension in the old order
        sigma = [int(np.flatnonzero(old.kept == perm[i])[0]) for i in new.kept]
        tau = [int(np.flatnonzero(old.trans == perm[i])[0]) for i in new.trans]
        for (_, dst), (_, src) in zip(new.parameters(), old.parameters()):
            dst[...] = src
        first, last = new.net.layers[0], new.net.layers[-1]
        first.weight[...] = old.net.layers[0].weight[..., sigma]
        last.weight[...] = old.net.layers[-1].weight[..., tau, :]
        last.bias[...] = old.net.layers[-1].bias[..., tau]
    h = permuted.transform
    h.w_out[...], h.w_lat[...], h.w_act[...] = g.w_out[perm, :], g.w_lat[:, perm], g.w_act
    h.bias[...] = g.bias[perm]
    return permuted


def test_pair_loglik_invariant_under_coordinate_permutation():
    model = small_model(9, dim=6, n_actions=4, perturb=0.15)
    rng = np.random.default_rng(10)
    perm = rng.permutation(6)
    pmodel = permuted_model(model, perm)
    for _ in range(5):
        xp = rng.standard_normal(6)
        xt = rng.standard_normal(6)
        a = int(rng.integers(0, 4))
        base = pair_loglik(model, xp, xt, a)
        permuted = pair_loglik(pmodel, xp[perm], xt[perm], a)
        assert abs(base - permuted) <= 1e-10 * max(1.0, abs(base))


def test_penalty_hand_value_and_symmetry():
    w_act = np.array([[-1.0, 1.0]])  # 1-d factor; actions select -1 / +1
    pen = controller_gaussian_penalty(w_act, np.array([0, 1]))[0]
    assert abs(pen - (-0.5 * math.log(2 * math.pi) - 0.5)) < 1e-12
    shuffled = controller_gaussian_penalty(w_act, np.array([1, 0]))[0]
    assert pen == shuffled


def test_penalty_degenerate_batch_uses_floor():
    w_act = np.array([[0.7, 0.1], [0.2, -0.3]])
    pen = controller_gaussian_penalty(w_act, np.array([1, 1, 1]))[0]
    floor = 1e-6
    expected = 2 * (-0.5 * math.log(2 * math.pi * floor))  # quadratic term is 0
    assert abs(pen - expected) < 1e-9


def test_penalty_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        controller_gaussian_penalty(np.ones((2, 3)), np.array([1]))


def test_penalty_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    w_act = rng.standard_normal((3, 4))
    acts = np.array([0, 1, 1, 3, 2, 0])
    _, grad = controller_gaussian_penalty(w_act, acts)
    numeric = finite_diff_grad(
        lambda: controller_gaussian_penalty(w_act, acts)[0], [w_act], 1e-6)
    assert_close([grad], numeric, label="penalty")


def test_train_step_definition_and_decoupling():
    model = small_model(14)
    rng = np.random.default_rng(15)
    xp, xt = rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
    acts = np.array([1, 3])
    lam = 0.25
    loss, _ = pair_objective_and_grads(model, xp, xt, acts, lam)
    hand = float(-np.mean(pair_loglik(model, xp, xt, acts))) \
        - lam * controller_gaussian_penalty(model.transform.w_act, acts)[0]
    assert abs(loss - hand) <= 1e-12 * max(1.0, abs(hand))

    # singleton batch is legal when the penalty is disabled
    loss1, grads1 = pair_objective_and_grads(model, xp[:1], xt[:1], acts[:1], 0.0)
    hand1 = -pair_loglik(model, xp[0], xt[0], int(acts[0]))
    assert abs(loss1 - hand1) <= 1e-12 * max(1.0, abs(hand1))
    with pytest.raises(InsufficientDataError):
        pair_objective_and_grads(model, xp[:1], xt[:1], acts[:1], 0.1)

    # zero weight leaves the pure likelihood gradient
    _, g_nopen = pair_objective_and_grads(model, xp, xt, acts, 0.0)
    _, g_pen = pair_objective_and_grads(model, xp, xt, acts, lam)
    names = [n for n, _ in model.parameters()]
    for name, a, b in zip(names, g_nopen, g_pen):
        if name == "transform.w_act":
            assert not np.allclose(a, b)
        else:
            assert np.array_equal(a, b)


def test_train_pair_step_applies_update():
    model = small_model(16)
    rng = np.random.default_rng(17)
    arrays = [a for _, a in model.parameters()]
    before = [a.copy() for a in arrays]
    opt = Adam(model.parameters(), 1e-3)
    loss = train_pair_step(model, opt, rng.standard_normal((4, 4)),
                           rng.standard_normal((4, 4)),
                           rng.integers(0, 5, size=4), 0.001)
    assert np.isfinite(loss)
    assert any(not np.array_equal(a, b) for a, b in zip(arrays, before))
    assert opt.step_count == 1


@pytest.mark.parametrize("which", ["weight", "bias"])
def test_nan_in_hidden_layer_raises_from_train_pair_step(which):
    model = small_model(19)
    rng = np.random.default_rng(20)
    getattr(reference.scale_net(model.source_flow.units[0]).layers[0], which)[0] = np.nan
    opt = Adam(model.parameters(), 1e-3)
    with pytest.raises(NumericError):
        train_pair_step(model, opt, rng.standard_normal((4, 4)),
                        rng.standard_normal((4, 4)), rng.integers(0, 5, size=4), 0.001)
    assert opt.step_count == 0


def test_synthesize_zero_model_returns_zero():
    model = small_model(18, perturb=0.0)
    for _, arr in model.transform.parameters():
        arr[...] = 0.0
    out = synthesize_step(model, np.random.default_rng(0).standard_normal(4), 3)
    assert np.allclose(out, 0.0)


def test_synthesize_deterministic_and_latent_roundtrip():
    model = small_model(19)
    x = np.random.default_rng(20).standard_normal(4)
    a = synthesize_step(model, x, 2)
    b = synthesize_step(model, x, 2)
    assert np.array_equal(a, b)
    z, _ = flow_forward(model.target_flow, a)
    z_prev, _ = flow_forward(model.source_flow, x)
    pred = transform_apply(model.transform, z_prev, 2)
    assert np.abs(z - pred).max() < 1e-9


def test_pair_training_improves_heldout_nll(small_pair_model):
    drop = small_pair_model["initial_heldout_nll"] - small_pair_model["final_heldout_nll"]
    assert drop >= 0.5


def test_trained_synthesis_action_zero_changes_less_than_fifteen(small_pair_model):
    model = small_pair_model["model"]
    d0, d15 = [], []
    for traj in small_pair_model["train"]:
        x = traj.observations[0]
        d0.append(float(np.mean((synthesize_step(model, x, 0) - x) ** 2)))
        d15.append(float(np.mean((synthesize_step(model, x, 15) - x) ** 2)))
    assert np.mean(d0) < np.mean(d15)


def test_pair_loglik_batch_matches_single():
    model = small_model(40)
    rng = np.random.default_rng(41)
    xp = rng.standard_normal((5, 4))
    xt = rng.standard_normal((5, 4))
    acts = rng.integers(0, 5, size=5)
    batch = pair_loglik(model, xp, xt, acts)
    for i in range(5):
        assert abs(batch[i] - pair_loglik(model, xp[i], xt[i], int(acts[i]))) < 1e-12


def test_transform_apply_batch_matches_single():
    rng = np.random.default_rng(42)
    g = FactoredTransform(rng.standard_normal((3, 4)), rng.standard_normal((4, 3)),
                          rng.standard_normal((4, 6)), rng.standard_normal(3))
    zs = rng.standard_normal((5, 3))
    acts = rng.integers(0, 6, size=5)
    batch = transform_apply(g, zs, acts)
    for i in range(5):
        assert np.allclose(batch[i], transform_apply(g, zs[i], int(acts[i])),
                           rtol=1e-13, atol=1e-14)
    # one action broadcast over the batch
    same = transform_apply(g, zs, 2)
    for i in range(5):
        assert np.allclose(same[i], transform_apply(g, zs[i], 2),
                           rtol=1e-13, atol=1e-14)
