"""Flat parameter stores: every trained object's arrays view one float64
vector, fresh models draw into it, checkpoints fill it without drawing, and
`Adam` steps it with one subtraction."""

import numpy as np
import pytest

from flowpath import nets
from flowpath.checkpoint import Checkpoint, group_from_model, restore_group
from flowpath.config import RunConfig
from flowpath.errors import CheckpointError
from flowpath.flows import make_flow
from flowpath.irl import make_cost_net, make_policy_net
from flowpath.nets import Adam, flat_store, glorot_uniform
from flowpath.pipeline import (
    build_model,
    cost_from_checkpoint,
    model_from_checkpoint,
    policy_from_checkpoint,
)
from flowpath.transform import AgingModel, make_aging_model

from test_nets import ReferenceAdam
import reference

NET_OWNERS = ("source_flow", "target_flow", "transform")  # AgingModel attributes


def small_config() -> RunConfig:
    cfg = RunConfig()
    cfg.world.dim, cfg.world.n_actions = 5, 6
    cfg.flow.units, cfg.flow.hidden = 3, 7
    cfg.transform.factors = 4
    return cfg


def every_array(model: AgingModel) -> list[tuple[str, np.ndarray]]:
    """The model's arrays as each owner exposes them, member subnets included."""
    arrays = model.parameters() + model.transform.parameters()
    for name in ("source_flow", "target_flow"):
        flow = getattr(model, name)
        arrays += [(f"{name}.{n}", a) for n, a in flow.parameters()]
        for i, u in enumerate(flow.units):
            for role in ("scale_net", "translate_net"):
                arrays += [(f"{name}.u{i}.{role}.{n}", a)
                           for n, a in getattr(reference, role)(u).parameters()]
    return arrays


def test_every_model_array_views_the_one_store():
    model = build_model(small_config(), np.random.default_rng(1))
    assert flat_store([a for _, a in model.parameters()]) is not None
    assert sum(a.size for _, a in model.parameters()) == model.store.size
    arrays = every_array(model)
    for name, arr in arrays:
        assert np.shares_memory(arr, model.store), name
    model.store[:] = np.arange(model.store.size) * 1e-3
    for name, arr in model.parameters():
        assert np.any(arr != 0.0) or arr.size == 0, name
    before = {name: arr.copy() for name, arr in arrays}
    model.store += 1.0
    for name, arr in arrays:
        assert np.array_equal(arr, before[name] + 1.0), name


def reference_aging_model(seed: int, dim: int, n_actions: int, units: int, hidden: int,
                          factors: int) -> list[np.ndarray]:
    """The draws of building each plain net on its own: per flow, per unit, the
    scale net's three layers then the translate net's (final draws discarded
    for zero layers), then the transform's w_out, w_lat and w_act."""
    rng = np.random.default_rng(seed)
    arrays = []
    for _ in range(2):
        for i in range(units):
            kept = int(((np.arange(dim) % 2) == (i % 2)).sum())
            dims = (kept, hidden, hidden, dim - kept)
            for _ in range(2):
                for j, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
                    w = rng.uniform(-np.sqrt(6.0 / (d_in + d_out)),
                                    np.sqrt(6.0 / (d_in + d_out)), size=(d_out, d_in))
                    arrays += [np.zeros_like(w) if j == 2 else w, np.zeros(d_out)]
    for d_out, d_in in ((dim, factors), (factors, dim), (factors, n_actions)):
        s = np.sqrt(6.0 / (d_in + d_out))
        arrays.append(rng.uniform(-s, s, size=(d_out, d_in)))
    return arrays + [np.zeros(dim)]


@pytest.mark.parametrize("seed, dim", [(0, 5), (7, 4)])
def test_fresh_model_draws_in_per_net_order(seed, dim):
    model = make_aging_model(np.random.default_rng(seed), dim=dim, n_actions=6, flow_units=3,
                             hidden=7, factors=4)
    live = [a for name in NET_OWNERS for _, a in getattr(model, name).parameters()]
    ref = reference_aging_model(seed, dim, 6, 3, 7, 4)
    assert len(live) == len(ref)
    for a, b in zip(live, ref):
        assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("seed, dim", [(0, 5), (7, 4)])
def test_fresh_flow_draws_in_per_net_order(seed, dim):
    flow = make_flow(np.random.default_rng(seed), dim, n_units=3, hidden=7)
    names = [name for name, _ in flow.parameters()]
    assert names[:12] == [f"u00.{role}.l{i}.{kind}" for role in ("scale", "translate")
                          for i in range(3) for kind in "wb"]
    live = [a for _, a in flow.parameters()]
    ref = reference_aging_model(seed, dim, 6, 3, 7, 4)[:len(live)]  # a model's source flow
    assert len(live) == 3 * 2 * 3 * 2
    for a, b in zip(live, ref):
        assert a.shape == b.shape and np.array_equal(a, b)
    for u in flow.units:
        assert flat_store([a for _, a in u.net.parameters()]) is not None


def checkpoint_of(cfg: RunConfig, seed: int) -> Checkpoint:
    rng = np.random.default_rng(seed)
    model = build_model(cfg, rng)
    model.store[:] = rng.standard_normal(model.store.size)
    world = cfg.world
    cost = make_cost_net(rng, world.dim, world.n_actions, world.age_min, world.age_max)
    policy = make_policy_net(rng, world.dim, world.n_actions, world.age_min, world.age_max)
    params = {"model": group_from_model(model.parameters())}
    params["cost"] = group_from_model(cost.parameters())
    params["policy"] = group_from_model(policy.parameters())
    return Checkpoint(config=cfg, params=params)


def test_loading_makes_no_glorot_draw(monkeypatch):
    ckpt = checkpoint_of(small_config(), 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a load drew Glorot values")

    monkeypatch.setattr(nets, "glorot_uniform", refuse)
    model = model_from_checkpoint(ckpt)
    cost = cost_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    for (na, a), (nb, b) in zip(model.parameters(), ckpt.params["model"]):
        assert na == nb and np.array_equal(a, b)
    for net, group in ((cost, "cost"), (policy, "policy")):
        arrays = [a for _, a in net.parameters()]
        assert flat_store(arrays) is not None
        for a, (_, b) in zip(arrays, ckpt.params[group]):
            assert np.array_equal(a, b)


def test_adam_binds_the_store_and_matches_per_array_steps():
    cfg = small_config()
    stored = build_model(cfg, np.random.default_rng(4))
    copies = [(name, arr.copy()) for name, arr in stored.parameters()]
    opt, ref = Adam(stored.parameters(), 0.01), Adam(copies, 0.01)
    assert opt.store is not None and np.shares_memory(opt.store, stored.store)
    assert ref.store is None
    assert Adam(stored.source_flow.parameters()).store is None  # members are strided
    assert Adam(stored.flows.parameters()).store.size < stored.store.size
    rng = np.random.default_rng(5)
    for _ in range(20):
        grads = [rng.standard_normal(a.shape) for _, a in copies]
        opt.step(grads)
        ref.step(grads)
    for (name, a), (_, b) in zip(stored.parameters(), copies):
        assert np.array_equal(a, b), name


def test_store_adam_matches_textbook_reference_on_cost_net():
    rng = np.random.default_rng(6)
    cost = make_cost_net(rng, 3, 4)
    arrays = [a for _, a in cost.parameters()]
    ref_arrays = [a.copy() for a in arrays]
    opt, ref = Adam(cost.parameters(), learning_rate=0.02), ReferenceAdam(ref_arrays, lr=0.02)
    assert opt.store is not None
    for _ in range(30):
        grads = [rng.standard_normal(a.shape) for a in arrays]
        opt.step(grads)
        ref.step(ref_arrays, grads)
    for a, b in zip(arrays, ref_arrays):
        assert np.array_equal(a, b)


def test_flat_store_rejects_gaps_reorders_and_foreign_arrays():
    store = np.zeros(10)
    a, b, c = nets.carve(store, [(2, 2), (3,), (3,)])
    assert flat_store([a, b, c]).size == 10
    assert flat_store([b, c]).size == 6
    assert flat_store([a, c]) is None
    assert flat_store([b, a]) is None
    assert flat_store([a, np.zeros(3)]) is None
    assert flat_store([store[::2]]) is None
    assert flat_store([]) is None


@pytest.mark.parametrize("edit, message", [
    (lambda g: g.pop(1), r"missing parameter grp\.b"),
    (lambda g: g.append(("c", np.zeros(2))), r"unexpected parameter grp\.c"),
    (lambda g: g.append(("a", np.zeros(3))), r"duplicate parameter grp\.a"),
    (lambda g: g.__setitem__(0, ("a", np.zeros(4))), r"shape mismatch for grp\.a"),
    (lambda g: g[1][1].__setitem__(0, np.nan), r"non-finite values in grp\.b"),
    (lambda g: g[0][1].__setitem__(2, -np.inf), r"non-finite values in grp\.a"),
])
def test_restore_group_rejects_bad_groups_and_changes_nothing(edit, message):
    live = [("a", np.ones(3)), ("b", np.ones(2))]
    stored = [("a", np.full(3, 2.0)), ("b", np.full(2, 2.0))]
    edit(stored)
    with pytest.raises(CheckpointError, match=message):
        restore_group(live, stored, "grp")
    assert all(np.all(a == 1.0) for _, a in live)


def test_restore_group_takes_large_finite_values():
    live = [("a", np.zeros(2))]
    restore_group(live, [("a", np.full(2, 1e300))], "grp")
    assert np.all(live[0][1] == 1e300)


@pytest.mark.parametrize("group, name, where", [
    pytest.param("model", "transform.w_act", (-1, -1), id="transform-w_act"),
    # the source flow's (index 0) translate net (index 1) in unit 1's stacked bias
    pytest.param("model", "flows.u01.l1.b", (0, 1, -1), id="source_flow-u01.translate.l1.b"),
    pytest.param("cost", "l2.w", (-1, -1), id="cost-l2.w"),
    pytest.param("policy", "l0.b", (-1,), id="policy-l0.b"),
])
def test_load_rejects_a_nonfinite_parameter(group, name, where):
    ckpt = checkpoint_of(small_config(), 8)
    dict(ckpt.params[group])[name][where] = np.nan
    load = {"cost": cost_from_checkpoint, "policy": policy_from_checkpoint}.get(
        group, model_from_checkpoint)
    with pytest.raises(CheckpointError, match=rf"{group}\.{name.replace('.', '[.]')}"):
        load(ckpt)


def test_load_rejects_a_missing_model_group():
    ckpt = checkpoint_of(small_config(), 9)
    del ckpt.params["model"]
    with pytest.raises(CheckpointError, match="group model"):
        model_from_checkpoint(ckpt)


def test_glorot_fill_draws_like_glorot_uniform():
    shapes = [(3, 4), (2, 3)]
    weights = [np.zeros(s) for s in shapes]
    nets.glorot_fill(np.random.default_rng(10), weights, zero_final=True)
    rng = np.random.default_rng(10)
    assert np.array_equal(weights[0], glorot_uniform(rng, 3, 4))
    glorot_uniform(rng, 2, 3)
    assert not weights[1].any()
    nets.glorot_fill(np.random.default_rng(10), weights)
    rng = np.random.default_rng(10)
    for w, s in zip(weights, shapes):
        assert np.array_equal(w, glorot_uniform(rng, *s))
