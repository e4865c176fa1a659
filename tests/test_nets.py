"""Numeric core: dense nets, hand-derived gradients, Adam, finite differences."""

import math

import numpy as np
import pytest

from flowpath.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from flowpath.config import RunConfig
from flowpath.errors import CheckpointError, NumericError, ShapeError
from flowpath.nets import (
    Adam,
    DenseLayer,
    DenseNet,
    dense_net,
    finite_diff_grad,
    glorot_uniform,
    net_backward,
    net_forward,
)

from conftest import assert_close


def test_identity_layer_passthrough():
    net = DenseNet([DenseLayer(np.eye(2), np.zeros(2), "identity")])
    out = net_forward(net, np.array([1.0, -2.0]))
    assert np.array_equal(out, np.array([1.0, -2.0]))


def test_relu_clamps_negatives():
    net = DenseNet([DenseLayer(np.eye(2), np.zeros(2), "relu")])
    out = net_forward(net, np.array([1.0, -2.0]))
    assert np.array_equal(out, np.array([1.0, 0.0]))


def test_two_layer_hand_evaluation():
    # independent scalar evaluation of the affine+activation chain
    net = DenseNet([
        DenseLayer(np.array([[0.2], [-0.4]]), np.array([0.1, 0.3]), "tanh"),
        DenseLayer(np.array([[0.5, -0.25]]), np.array([0.05]), "identity"),
    ])
    h1 = math.tanh(0.2 * 0.5 + 0.1)
    h2 = math.tanh(-0.4 * 0.5 + 0.3)
    expected = 0.5 * h1 - 0.25 * h2 + 0.05
    out = net_forward(net, np.array([0.5]))
    assert abs(float(out[0]) - expected) < 1e-14


def test_forward_is_deterministic_and_pure():
    rng = np.random.default_rng(0)
    net = dense_net(rng, (4, 8, 3), hidden_activation="tanh")
    x = rng.standard_normal(4)
    a = net_forward(net, x)
    b = net_forward(net, x)
    assert np.array_equal(a, b)


def test_forward_shape_error():
    net = dense_net(np.random.default_rng(0), (4, 3))
    with pytest.raises(ShapeError):
        net_forward(net, np.zeros(5))


def test_softmax_final_only():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        DenseNet([
            DenseLayer(glorot_uniform(rng, 3, 2), np.zeros(3), "softmax"),
            DenseLayer(glorot_uniform(rng, 2, 3), np.zeros(2), "identity"),
        ])


def test_softmax_positive_and_normalized():
    rng = np.random.default_rng(1)
    net = dense_net(rng, (5, 8, 6), final_activation="softmax")
    out = net_forward(net, rng.standard_normal((32, 5)) * 5.0)
    assert np.all(out > 0)
    assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12


def test_linear_backward_product_rule():
    net = DenseNet([DenseLayer(np.array([[2.5]]), np.zeros(1), "identity")])
    grads, dx = net_backward(net, np.array([3.0]), np.array([1.0]))
    assert grads[0][0, 0] == 3.0  # dw = x
    assert grads[1][0] == 1.0     # db
    assert dx[0] == 2.5           # dx = w


def test_zero_upstream_gives_zero_grads():
    rng = np.random.default_rng(2)
    net = dense_net(rng, (3, 6, 2), hidden_activation="relu")
    grads, dx = net_backward(net, rng.standard_normal(3), np.zeros(2))
    assert all(np.all(g == 0) for g in grads)
    assert np.all(dx == 0)


@pytest.mark.parametrize("hidden_act,final_act", [
    ("relu", "identity"), ("tanh", "identity"), ("tanh", "softmax"),
])
def test_backward_matches_finite_differences(hidden_act, final_act):
    rng = np.random.default_rng(7)
    net = dense_net(rng, (4, 9, 5, 3), hidden_activation=hidden_act,
                    final_activation=final_act)
    x = rng.standard_normal(4)
    upstream = rng.standard_normal(3)
    grads, _ = net_backward(net, x, upstream)
    arrays = [a for _, a in net.parameters()]
    numeric = finite_diff_grad(lambda: float(net_forward(net, x) @ upstream),
                               arrays, 1e-6)
    assert_close(grads, numeric, label=f"{hidden_act}/{final_act}")


def test_backward_batch_sums_over_rows():
    rng = np.random.default_rng(8)
    net = dense_net(rng, (3, 5, 2), hidden_activation="tanh")
    xs = rng.standard_normal((6, 3))
    ups = rng.standard_normal((6, 2))
    batch_grads, batch_dx = net_backward(net, xs, ups)
    acc = [np.zeros_like(a) for _, a in net.parameters()]
    for i in range(6):
        gi, dxi = net_backward(net, xs[i], ups[i])
        for a, g in zip(acc, gi):
            a += g
        assert np.allclose(dxi, batch_dx[i], atol=1e-14)
    assert_close(acc, batch_grads, rtol=1e-12, atol=1e-14)


def test_finite_diff_quadratic():
    w = np.array([3.0])
    (g,) = finite_diff_grad(lambda: float(w[0] ** 2), [w], 1e-5)
    assert abs(g[0] - 6.0) < 1e-6


def test_finite_diff_two_parameter_quadratic():
    p = np.array([1.5, -2.0])
    # loss = 2 p0^2 + 0.5 p1^2 + p0 p1 -> grad = (4 p0 + p1, p1 + p0)
    (g,) = finite_diff_grad(
        lambda: float(2 * p[0] ** 2 + 0.5 * p[1] ** 2 + p[0] * p[1]), [p], 1e-6)
    assert np.allclose(g, [4 * 1.5 - 2.0, -2.0 + 1.5], atol=1e-7)


def test_finite_diff_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda: 0.0, [np.zeros(1)], 0.0)


def test_adam_zero_gradient_leaves_params():
    p = np.array([1.0, -2.0])
    opt = Adam([("p", p)], learning_rate=0.1)
    opt.step([np.zeros(2)])
    assert np.array_equal(p, [1.0, -2.0])
    assert opt.step_count == 1


def test_adam_constant_gradient_monotone():
    p = np.array([0.0])
    opt = Adam([("p", p)], learning_rate=0.01)
    prev = 0.0
    for _ in range(50):
        opt.step([np.array([1.0])])
        assert p[0] < prev  # moves against the gradient sign every step
        prev = p[0]


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(5)
    p = rng.standard_normal(4)
    initial = float((p**2).sum())
    opt = Adam([("p", p)], learning_rate=0.05)
    for _ in range(500):
        opt.step([2.0 * p])
    assert float((p**2).sum()) < 1e-3 * initial


def test_adam_rejects_nonfinite_gradient():
    p = np.zeros(2)
    opt = Adam([("weights", p)], learning_rate=0.1)
    with pytest.raises(NumericError, match="weights"):
        opt.step([np.array([np.nan, 0.0])])


def test_adam_shape_mismatch():
    p = np.zeros(2)
    opt = Adam([("p", p)])
    with pytest.raises(ShapeError):
        opt.step([np.zeros(3)])


def test_adam_state_roundtrip():
    rng = np.random.default_rng(11)
    p = rng.standard_normal(3)
    opt = Adam([("p", p)], learning_rate=0.02)
    for _ in range(5):
        opt.step([rng.standard_normal(3)])
    q = p.copy()
    clone = Adam([("p", q)], learning_rate=1.0)
    clone.load_state_dict(opt.state_dict())
    g = rng.standard_normal(3)
    opt.step([g])
    clone.step([g])
    assert np.array_equal(p, q)


class ReferenceAdam:
    """Per-array Adam in the textbook order, the oracle for the flat one."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        self.t += 1
        for i, (p, g) in enumerate(zip(params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1**self.t)
            v_hat = self.v[i] / (1.0 - self.beta2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def mixed_arrays(rng):
    return [rng.standard_normal((4, 3)), rng.standard_normal(5),
            rng.standard_normal(1), rng.standard_normal((2, 1))]


def named(arrays):
    return [(f"a{i}", a) for i, a in enumerate(arrays)]


def test_flat_adam_matches_per_array_reference_bitwise():
    rng = np.random.default_rng(21)
    params = mixed_arrays(rng)
    ref_params = [p.copy() for p in params]
    opt = Adam(named(params), learning_rate=0.03)
    ref = ReferenceAdam(ref_params, lr=0.03)
    for _ in range(50):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                 for p in params]
        opt.step(grads)
        ref.step(ref_params, grads)
        for p, q in zip(params, ref_params):
            assert np.array_equal(p, q)
    state = opt.state_dict()
    for a, b in zip(state["m"] + state["v"], ref.m + ref.v):
        assert np.array_equal(a, b)


def test_flat_adam_names_the_first_nonfinite_array():
    rng = np.random.default_rng(22)
    params = mixed_arrays(rng)
    opt = Adam(list(zip(["first", "second", "third", "fourth"], params)))
    grads = [np.zeros(p.shape) for p in params]
    grads[2][0] = np.inf
    grads[3][1, 0] = np.nan
    with pytest.raises(NumericError, match="third"):
        opt.step(grads)
    assert opt.step_count == 0


@pytest.mark.parametrize("slot", range(4))
def test_flat_adam_shape_mismatch_in_any_slot(slot):
    rng = np.random.default_rng(23)
    params = mixed_arrays(rng)
    opt = Adam(named(params))
    grads = [np.zeros(p.shape) for p in params]
    grads[slot] = np.zeros(grads[slot].size + 1)
    with pytest.raises(ShapeError, match=f"a{slot}"):
        opt.step(grads)
    with pytest.raises(ShapeError):
        opt.step(grads[:-1])


def test_flat_adam_state_keeps_per_array_shapes():
    rng = np.random.default_rng(24)
    params = mixed_arrays(rng)
    opt = Adam(named(params))
    opt.step(mixed_arrays(rng))
    state = opt.state_dict()
    assert [a.shape for a in state["m"]] == [p.shape for p in params]
    assert [a.shape for a in state["v"]] == [p.shape for p in params]
    state["m"][0][0, 0] = 123.0  # the state dict is a copy
    assert opt.state_dict()["m"][0][0, 0] != 123.0


def test_flat_adam_resumes_bitwise_through_a_checkpoint(tmp_path):
    rng = np.random.default_rng(25)
    params = mixed_arrays(rng)
    grads = [mixed_arrays(rng) for _ in range(10)]
    opt = Adam(named(params), learning_rate=0.01)
    for g in grads[:5]:
        opt.step(g)
    path = tmp_path / "opt.ckpt"
    save_checkpoint(path, Checkpoint(
        config=RunConfig(), params={"p": named(params)},
        opt_states={"p": opt.state_dict()}))
    loaded = load_checkpoint(path)
    resumed = Adam([(n, a.copy()) for n, a in loaded.params["p"]], learning_rate=1.0)
    resumed.load_state_dict(loaded.opt_states["p"])
    for g in grads[5:]:
        opt.step(g)
        resumed.step(g)
    for p, q in zip(params, resumed.params):
        assert np.array_equal(p, q)
    assert resumed.step_count == opt.step_count == 10


@pytest.mark.parametrize("key, slot", [("m", 0), ("v", 3)])
def test_flat_adam_load_rejects_moments_that_misfit_the_bound_arrays(key, slot):
    rng = np.random.default_rng(26)
    params = mixed_arrays(rng)
    source = Adam(named([p.copy() for p in params]))
    source.step(mixed_arrays(rng))
    state = source.state_dict()
    opt = Adam(named(params), learning_rate=0.5)
    before = opt.state_dict()
    state[key][slot] = state[key][slot].reshape(-1)
    with pytest.raises(CheckpointError, match=f"a{slot}"):
        opt.load_state_dict(state)
    state[key] = state[key][:-1]
    with pytest.raises(CheckpointError, match=f"3 stored {key}"):
        opt.load_state_dict(state)
    after = opt.state_dict()
    assert after["learning_rate"] == 0.5 and after["step_count"] == 0
    for a, b in zip(before["m"] + before["v"], after["m"] + after["v"]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("which", ["weight", "bias"])
def test_nan_in_hidden_layer_raises_from_net_forward(which):
    rng = np.random.default_rng(26)
    net = dense_net(rng, (3, 6, 6, 2), hidden_activation="relu")
    getattr(net.layers[1], which)[0] = np.nan
    with pytest.raises(NumericError):
        net_forward(net, rng.standard_normal((4, 3)))


def test_glorot_bounds():
    rng = np.random.default_rng(0)
    w = glorot_uniform(rng, 30, 20)
    s = np.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.all(np.abs(w) <= s)


def test_dense_net_requires_chaining_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError):
        DenseNet([
            DenseLayer(glorot_uniform(rng, 4, 3), np.zeros(4), "relu"),
            DenseLayer(glorot_uniform(rng, 2, 5), np.zeros(2), "identity"),
        ])
    with pytest.raises(ShapeError):
        DenseNet([])
