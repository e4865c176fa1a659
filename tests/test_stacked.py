"""Stacked coupling subnets: views, checkpoints, lockstep training and a
per-net reference for the pair objective."""

import numpy as np
import pytest

from flowpath.checkpoint import Checkpoint, load_checkpoint, restore_group, save_checkpoint
from flowpath.config import RunConfig
from flowpath.errors import NumericError, ShapeError
from flowpath.flows import (
    BijectionStack,
    CouplingUnit,
    alternating_mask,
    flow_forward,
    flow_inverse,
    flow_nll,
    make_flow,
    standard_normal_loglik,
    subnet_layers,
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

    w = reference.scale_net(model.target_flow.units[0]).layers[0].weight
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
    params = {"model": model.parameters()}
    save_checkpoint(path, Checkpoint(config=RunConfig(), params=params))

    fresh = perturbed_model(4)
    loaded = load_checkpoint(path)
    restore_group(fresh.parameters(), loaded.params["model"])
    for (na, a), (nb, b) in zip(model.parameters(), fresh.parameters()):
        assert na == nb and np.array_equal(a, b)
    again = tmp_path / "b.ckpt"
    save_checkpoint(again, Checkpoint(config=RunConfig(), params={
        "model": fresh.parameters()}))
    assert again.read_bytes() == path.read_bytes()

    # member views are strided, so each of their arrays is copied on its own
    members = perturbed_model(5)
    for name in GROUPS:
        restore_group(getattr(members, name).parameters(), getattr(model, name).parameters())
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


def reference_flow_inverse(flow: BijectionStack, z: np.ndarray) -> np.ndarray:
    h = z.copy()
    for u in flow.units[::-1]:
        yk = h[:, u.kept]
        s = u.clamp * np.tanh(net_forward(reference.scale_net(u), yk))
        h[:, u.trans] = (h[:, u.trans] - net_forward(reference.translate_net(u), yk)) * np.exp(-s)
    return h


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
    for name, params, group in (
            ("source_flow", reference.per_net_parameters(model.source_flow), source),
            ("target_flow", reference.per_net_parameters(model.target_flow), target),
            ("transform", model.transform.parameters(), tr_grads)):
        for (pname, _), g in zip(params, group, strict=True):
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


# ---------------------------------------------------------------------------
# One parameter layout at every level
# ---------------------------------------------------------------------------

def test_every_unit_yields_its_stacked_arrays():
    lone = make_flow(np.random.default_rng(10), 5, n_units=2, hidden=7).units[1]
    model = perturbed_model(11)
    for unit in (lone, model.flows.units[1], model.source_flow.units[1],
                 model.target_flow.units[2]):
        params, stacked = unit.parameters("p."), unit.net.parameters("p.")
        assert [n for n, _ in params] == [n for n, _ in stacked]
        assert all(a is b for (_, a), (_, b) in zip(params, stacked, strict=True))


def test_flow_nll_gradients_match_parameter_shapes():
    rng = np.random.default_rng(12)
    flow = make_flow(rng, 5, n_units=3, hidden=7)
    model = perturbed_model(13)
    for stack, xs in ((flow, rng.standard_normal((6, 5))),
                      (model.flows, rng.standard_normal((2, 6, 5)))):
        _, grads = flow_nll(stack, xs)
        shapes = [g.shape for g in grads]
        assert shapes == [a.shape for _, a in stack.parameters()]
        assert shapes == [a.shape for u in stack.units for _, a in u.net.parameters()]


def test_stack_rejects_units_with_other_flow_axes():
    lone = make_flow(np.random.default_rng(14), 5, n_units=1, hidden=7).units[0]
    pair = perturbed_model(15).flows.units[1]
    for units in ([lone, pair], [pair, lone]):
        for lead in ((), (2,)):
            with pytest.raises(ShapeError):
                BijectionStack(5, units, lead)


def test_member_needs_one_flow_axis_and_an_index_inside_it():
    lone = make_flow(np.random.default_rng(4), 4, 2, 5)
    model = perturbed_model(5)
    empty = make_aging_model(np.random.default_rng(6), dim=5, n_actions=6, flow_units=0,
                             hidden=7, factors=3).flows
    for owner, f in ((lone, 0), (lone.units[0], 0), (model.flows, 2),
                     (model.flows.units[0], 2), (model.flows, -1), (empty, 2)):
        with pytest.raises(ShapeError, match="flow axes"):
            owner.member(f)
    assert model.flows.member(1).lead == () and len(empty.member(1).units) == 0


def test_a_model_without_units_still_runs_two_flows():
    model = make_aging_model(np.random.default_rng(16), dim=5, n_actions=6, flow_units=0,
                             hidden=7, factors=3)
    assert model.flows.lead == (2,) and model.source_flow.lead == ()
    xs = np.random.default_rng(17).standard_normal((2, 4, 5))
    losses, grads = flow_nll(model.flows, xs)
    assert losses.shape == (2,) and grads == []
    assert np.array_equal(losses, [flow_nll(model.source_flow, xs[0])[0],
                                   flow_nll(model.target_flow, xs[1])[0]])


# ---------------------------------------------------------------------------
# Consecutive units whose masks are not complementary
# ---------------------------------------------------------------------------

# a repeated mask, masks that overlap, and one complementary pair among them
UNEVEN_MASKS = ([1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1])


def uneven_model(seed: int) -> AgingModel:
    units = [(np.array(m), subnet_layers(np.array(m), 6), (2.0, 1.5)) for m in UNEVEN_MASKS]
    model = AgingModel(4, units, factors=3, n_actions=6)
    model.store[:] = 0.3 * np.random.default_rng(seed).standard_normal(model.store.size)
    return model


def test_member_stacks_reuse_the_swaps_a_fresh_stack_works_out():
    model = uneven_model(22)
    for f, flow in enumerate((model.source_flow, model.target_flow)):
        fresh = BijectionStack(4, [u.member(f) for u in model.flows.units])
        assert flow.swaps == fresh.swaps == [False, False, False, True]
        assert flow.lead == fresh.lead == () and flow.dim == fresh.dim == 4


def test_uneven_masks_match_the_per_unit_gather_reference_bit_for_bit():
    model = uneven_model(20)
    x = np.random.default_rng(21).standard_normal((2, 7, 4))
    n = x.shape[1]
    z_pair, ld_pair = flow_forward(model.flows, x)
    _, pair_grads = flow_nll(model.flows, x)
    for f, flow in enumerate((model.source_flow, model.target_flow)):
        z_ref, ld_ref, caches = reference_flow_forward(flow, x[f])
        z, ld = flow_forward(flow, x[f])
        for got, want in ((z, z_ref), (ld, ld_ref), (z_pair[f], z_ref), (ld_pair[f], ld_ref)):
            assert np.array_equal(got, want)

        ref, _ = reference_flow_backward(flow, caches, z_ref / n, np.full(n, -1.0 / n))
        ref = dict(zip([name for name, _ in reference.per_net_parameters(flow)], ref))
        _, grads = flow_nll(flow, x[f])
        for (name, _), g, g_pair in zip(flow.parameters(), grads, pair_grads, strict=True):
            unit, layer, kind = name.split(".")  # e.g. u01.l2.b
            for k, net in enumerate(("scale", "translate")):
                member = ref[f"{unit}.{net}.{layer}.{kind}"]
                assert np.array_equal(g[k], member) and np.array_equal(g_pair[f, k], member)

        back = flow_inverse(flow, z)
        assert np.array_equal(back, reference_flow_inverse(flow, z))
        assert np.array_equal(flow_inverse(model.flows, z_pair)[f], back)
        assert np.abs(back - x[f]).max() < 1e-12
