"""Stacked coupling subnets: views, checkpoints, lockstep training and a
per-net reference for the pair objective."""

import numpy as np
import pytest

from flowpath.checkpoint import Checkpoint, group_from_model, load_checkpoint, restore_group, \
    save_checkpoint
from flowpath.config import RunConfig
from flowpath.errors import NumericError, ShapeError
from flowpath.flows import (
    BijectionStack,
    CouplingUnit,
    alternating_mask,
    flow_forward,
    flow_nll,
    standard_normal_loglik,
)
from flowpath.nets import Adam, DenseLayer, DenseNet, net_backward, net_forward
from flowpath.transform import (
    AgingModel,
    controller_gaussian_penalty,
    make_aging_model,
    pair_objective_and_grads,
    transform_apply,
    transform_backward,
)

import reference

GROUPS = ("source_flow", "target_flow", "transform")


def perturbed_model(seed: int, units: int = 3) -> AgingModel:
    rng = np.random.default_rng(seed)
    model = make_aging_model(rng, dim=5, n_actions=6, flow_units=units, hidden=7,
                             factors=3)
    for name in GROUPS:
        for _, arr in getattr(model, name).parameters():
            arr += 0.1 * rng.standard_normal(arr.shape)
    return model


def test_writes_through_member_views_and_stacks_are_shared():
    model = perturbed_model(1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 6, 5))
    z_before, _ = flow_forward(model.flows, x)

    _, w = model.target_flow.parameters()[0]  # u00.scale.l0.w
    w[0, 0] += 0.5
    assert model.flows.units[0].net.layers[0].weight[1, 0, 0, 0] == w[0, 0]
    z_after, _ = flow_forward(model.flows, x)
    assert np.array_equal(z_after[0], z_before[0])
    assert not np.array_equal(z_after[1], z_before[1])

    stacked_bias = model.flows.units[1].net.layers[-1].bias  # (2 flows, 2 nets, out)
    stacked_bias[0, 1] = 0.3
    assert np.all(reference.translate_net(model.source_flow.units[1]).layers[-1].bias == 0.3)
    z_lone, ld_lone = flow_forward(model.source_flow, x[0])
    z_pair, ld_pair = flow_forward(model.flows, x)
    assert np.array_equal(z_lone, z_pair[0])
    assert np.array_equal(ld_lone, ld_pair[0])


def test_restore_group_round_trips_stacked_views_bit_for_bit(tmp_path):
    model = perturbed_model(3)
    path = tmp_path / "a.ckpt"
    params = {"model": group_from_model(model.parameters())}
    save_checkpoint(path, Checkpoint(config=RunConfig(), params=params))

    fresh = perturbed_model(4)
    loaded = load_checkpoint(path)
    restore_group(fresh.parameters(), loaded.params["model"])
    for (na, a), (nb, b) in zip(model.parameters(), fresh.parameters()):
        assert na == nb and np.array_equal(a, b)
    again = tmp_path / "b.ckpt"
    save_checkpoint(again, Checkpoint(config=RunConfig(), params={
        "model": group_from_model(fresh.parameters())}))
    assert again.read_bytes() == path.read_bytes()

    # member views are strided, so each of their arrays is copied on its own
    members = perturbed_model(5)
    for name in GROUPS:
        restore_group(getattr(members, name).parameters(),
                      group_from_model(getattr(model, name).parameters()))
    for (na, a), (nb, b) in zip(model.parameters(), members.parameters()):
        assert na == nb and np.array_equal(a, b)


def test_lockstep_pretraining_matches_two_sequential_flows():
    rng = np.random.default_rng(5)
    data = rng.standard_normal((120, 5))
    idx = rng.integers(0, data.shape[0], size=(2, 20, 16))
    sequential, lockstep = perturbed_model(6), perturbed_model(6)

    seq_losses = np.empty((2, 20))
    for f, flow in enumerate((sequential.source_flow, sequential.target_flow)):
        opt = Adam(flow.parameters(), 1e-2)
        for step in range(20):
            seq_losses[f, step], grads = flow_nll(flow, data[idx[f, step]])
            opt.step(grads)

    opt = Adam(lockstep.flows.parameters(), 1e-2)
    lock_losses = np.empty((2, 20))
    for step in range(20):
        lock_losses[:, step], grads = flow_nll(lockstep.flows, data[idx[:, step]])
        opt.step(grads)

    # both paths sum each member's bias gradient in the same row order
    assert np.array_equal(lock_losses, seq_losses)
    for name in ("source_flow", "target_flow"):
        for (na, a), (_, b) in zip(getattr(sequential, name).parameters(),
                                   getattr(lockstep, name).parameters()):
            assert np.array_equal(a, b), na


# ---------------------------------------------------------------------------
# A per-net reference: each subnet runs on its own, as plain nets
# ---------------------------------------------------------------------------

def reference_flow_forward(flow: BijectionStack, x: np.ndarray):
    caches, total, h = [], np.zeros(x.shape[0]), x
    for u in flow.units:
        xk, xt = h[:, u.kept], h[:, u.trans]
        s_raw = net_forward(reference.scale_net(u), xk)
        s = u.clamp * np.tanh(s_raw)
        es = np.exp(s)
        y = h.copy()
        y[:, u.trans] = xt * es + net_forward(reference.translate_net(u), xk)
        caches.append((xk, xt, s_raw, es))
        total = total + s.sum(axis=1)
        h = y
    return h, total, caches


def reference_flow_backward(flow: BijectionStack, caches, dz, dlogdet):
    grads, delta = [], dz
    for u, (xk, xt, s_raw, es) in zip(flow.units[::-1], caches[::-1]):
        dyt = delta[:, u.trans]
        ds = dyt * xt * es + dlogdet[:, None]
        ds_raw = ds * u.clamp * (1.0 - np.tanh(s_raw) ** 2)
        s_grads, dxk_s = net_backward(reference.scale_net(u), xk, ds_raw)
        t_grads, dxk_t = net_backward(reference.translate_net(u), xk, dyt)
        dx = np.empty_like(delta)
        dx[:, u.kept] = delta[:, u.kept] + dxk_s + dxk_t
        dx[:, u.trans] = dyt * es
        grads[:0] = s_grads + t_grads
        delta = dx
    return grads, delta


def reference_pair_objective(model: AgingModel, xp, xt, acts, weight):
    """Loss and {per-net parameter name: gradient}, one subnet at a time."""
    n = xp.shape[0]
    z_prev, _, prev_caches = reference_flow_forward(model.source_flow, xp)
    z_t, logdet, t_caches = reference_flow_forward(model.target_flow, xt)
    r = z_t - transform_apply(model.transform, z_prev, acts)
    loss = float(-(standard_normal_loglik(r) + logdet).mean())
    target, _ = reference_flow_backward(model.target_flow, t_caches, r / n,
                                        np.full(n, -1.0 / n))
    tr_grads, dz_prev = transform_backward(model.transform, z_prev, acts, -r / n)
    source, _ = reference_flow_backward(model.source_flow, prev_caches, dz_prev,
                                        np.zeros(n))
    pen, dw_act = controller_gaussian_penalty(model.transform.w_act, acts)
    loss -= weight * pen
    tr_grads[2] = tr_grads[2] - weight * dw_act
    grads = {}
    for name, group in (("source_flow", source), ("target_flow", target),
                        ("transform", tr_grads)):
        for (pname, _), g in zip(getattr(model, name).parameters(), group):
            grads[f"{name}.{pname}"] = g
    return loss, grads


def test_stacked_pair_objective_matches_per_net_reference():
    model = perturbed_model(7)
    rng = np.random.default_rng(8)
    xp, xt = rng.standard_normal((2, 9, 5))
    acts = rng.integers(0, 6, size=9)
    loss, grads = pair_objective_and_grads(model, xp, xt, acts, constraint_weight=0.1)
    ref_loss, ref = reference_pair_objective(model, xp, xt, acts, 0.1)
    assert loss == ref_loss

    stacked = dict(zip([n for n, _ in model.parameters()], grads))
    assert len(stacked) == 3 * 3 * 2 + 4
    for name, g in stacked.items():
        if name.startswith("transform."):
            assert np.abs(g - ref[name]).max() <= 1e-12, name
            continue
        _, unit, layer, kind = name.split(".")  # e.g. flows.u01.l2.b
        for f, flow in enumerate(("source_flow", "target_flow")):
            for k, net in enumerate(("scale", "translate")):
                member = ref[f"{flow}.{unit}.{net}.{layer}.{kind}"]
                assert g[f, k].shape == member.shape
                assert np.abs(g[f, k] - member).max() <= 1e-12, (name, flow, net)


def test_adam_names_the_unit_position_and_layer():
    model = perturbed_model(9)
    params = model.parameters()
    grads = [np.zeros_like(a) for _, a in params]
    bad = [n for n, _ in params].index("flows.u01.l2.b")
    grads[bad][1, 0, 0] = np.nan
    with pytest.raises(NumericError, match=r"flows\.u01\.l2\.b"):
        Adam(params).step(grads)


# ---------------------------------------------------------------------------
# What can be stacked
# ---------------------------------------------------------------------------

def test_unit_rejects_subnets_that_do_not_stack():
    for dims, lead in (((2, 6, 2), ()),         # a plain net: no member axis
                       ((2, 6, 2), (3,)),       # three members, not scale and translate
                       ((3, 6, 2), (2,)),       # takes 3 dims, the mask keeps 2
                       ((2, 6, 6, 1), (2,))):   # gives 1 dim, the mask transforms 2
        net = DenseNet([DenseLayer(np.zeros(lead + (d_out, d_in)), np.zeros(lead + (d_out,)),
                                   "identity") for d_in, d_out in zip(dims, dims[1:])])
        with pytest.raises(ShapeError):
            CouplingUnit(alternating_mask(4, 0), net)
    for lead in ((2,), (2, 2)):  # (scale, translate) alone, then behind a flow axis
        net = DenseNet([DenseLayer(np.zeros(lead + (2, 2)), np.zeros(lead + (2,)), "identity")])
        assert CouplingUnit(alternating_mask(4, 0), net, np.ones(lead[:-1])).lead == lead[:-1]
