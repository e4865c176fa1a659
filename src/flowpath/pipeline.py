"""End-to-end experiment stages: gen-data, pretrain, pairs, IRL, evaluate.

Every stage derives its randomness from (config seed, stage tag) so stages
are independently reproducible.  A stage reads each sequence file it uses as
the file's subject ids plus one `PathBatch`, row i holding subject ids[i],
checked once at load.  Artifacts live under the run's output directory:

    train_sequences.jsonl / heldout_sequences.jsonl   demo sequences
    pool_sequences.jsonl                              dense per-subject pool
    flow.ckpt / pairs.ckpt / model.ckpt               stage checkpoints
    irl_latest.ckpt                                   resume point, saved by train-irl at
                                                      each boundary learn_aging_policy
                                                      yields; model.ckpt is the last one
    pretrain_metrics.csv / pair_metrics.csv           stage training curves
    metrics.csv / summary.json                        IRL per-iteration metrics
    evaluation.json                                   held-out reports
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, load_checkpoint, restore_group, save_checkpoint
from .config import RunConfig
from .errors import CheckpointError, InsufficientDataError, ValidationError
from .evaluate import (
    energy_separation_report,
    evaluate_age_fidelity,
    path_recovery_report,
)
from .flows import flow_nll
from .irl import (
    CostNet,
    IterationMetrics,
    ModelDynamics,
    PathBatch,
    PolicyNet,
    learn_aging_policy,
    make_cost_net,
    make_policy_net,
    multi_input_init,
    plan_path_batch,
    plan_rollout,
    with_end_states,
)
from .metrics import write_atomic, write_csv, write_json
from .nets import Adam
from .transform import AgingModel, make_aging_model, pair_loglik, train_pair_step, synthesize_step
from .world import (
    generate_pool_sequence,
    generate_subject,
    make_archetype,
    observe,
    read_sequences,
    write_sequences,
)

STAGE_GEN, STAGE_FLOW, STAGE_PAIRS, STAGE_IRL, STAGE_EVAL = 1, 2, 3, 4, 5

TRAIN_FILE = "train_sequences.jsonl"
HELDOUT_FILE = "heldout_sequences.jsonl"
POOL_FILE = "pool_sequences.jsonl"

IRL_METRICS_HEADER = [f.name for f in dataclasses.fields(IterationMetrics)]


def _stage_rng(cfg: RunConfig, stage: int, sub: int = 0) -> np.random.Generator:
    return np.random.default_rng([cfg.seed, stage, sub])


def train_subject_seed(cfg: RunConfig, i: int) -> int:
    return cfg.seed * 1_000_000 + i


def heldout_subject_seed(cfg: RunConfig, i: int) -> int:
    return cfg.seed * 1_000_000 + 500_000 + i


# ---------------------------------------------------------------------------
# Stage: gen-data
# ---------------------------------------------------------------------------

def stage_gen_data(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    world = cfg.world
    train = [(train_subject_seed(cfg, i), generate_subject(world, train_subject_seed(cfg, i))[1])
             for i in range(world.train_subjects)]
    heldout = [(heldout_subject_seed(cfg, i),
                generate_subject(world, heldout_subject_seed(cfg, i))[1])
               for i in range(world.heldout_subjects)]
    pool = [(sid, generate_pool_sequence(world, sid, stride=1)) for sid, _ in train]
    write_sequences(out / TRAIN_FILE, train)
    write_sequences(out / HELDOUT_FILE, heldout)
    write_sequences(out / POOL_FILE, pool)
    return out


def _load_sequences(cfg: RunConfig, name: str, train_ids=()) -> tuple[list[int], PathBatch]:
    """One sequence file of the run as its distinct subject ids and one batch,
    row i holding subject ids[i].  Observations are checked against world.dim,
    ages against the world's age range and age gaps against its action count,
    and no subject may be one of `train_ids`."""
    path = Path(cfg.out_dir) / name
    if not path.exists():
        raise ValidationError(f"missing {name} under {path.parent}; run gen-data first")
    entries = read_sequences(path)
    ids, world = [sid for sid, _ in entries], cfg.world
    if len(set(ids)) < len(ids):
        repeated = next(sid for i, sid in enumerate(ids) if sid in ids[:i])
        raise ValidationError(f"{name}: subject {repeated} appears more than once")
    for sid, traj in entries:
        length = traj.observations.shape[1]
        if length != world.dim:
            raise ValidationError(f"{name}: subject {sid} has observations of length "
                                  f"{length}, not the configured dim {world.dim}")
        outside = traj.ages[(traj.ages < world.age_min) | (traj.ages > world.age_max)]
        if outside.size:
            raise ValidationError(f"{name}: subject {sid} has age {outside[0]}, outside the "
                                  f"world range [{world.age_min}, {world.age_max}]")
        gaps = np.diff(traj.ages)
        wide = gaps[gaps >= world.n_actions]
        if wide.size:
            raise ValidationError(f"{name}: subject {sid} has an age gap of {wide[0]}, outside "
                                  f"the action range [0, {world.n_actions})")
    if shared := set(ids) & set(train_ids):
        raise ValidationError(f"{name}: subject {min(shared)} is also in {TRAIN_FILE}")
    return ids, PathBatch.from_trajectories([traj for _, traj in entries], dim=world.dim)


# ---------------------------------------------------------------------------
# Model construction and checkpoint plumbing
# ---------------------------------------------------------------------------

def build_model(cfg: RunConfig, rng: np.random.Generator | None) -> AgingModel:
    """A fresh model drawn from `rng`, or with `rng` None the all-zero layout a
    checkpoint fills."""
    return make_aging_model(
        rng, dim=cfg.world.dim, n_actions=cfg.world.n_actions,
        flow_units=cfg.flow.units, hidden=cfg.flow.hidden, clamp=cfg.flow.clamp,
        factors=cfg.transform.factors)


def _fill(target, ckpt: Checkpoint, group: str):
    """Copy a checkpoint's parameter group into `target`'s arrays; returns `target`."""
    if group not in ckpt.params:
        raise CheckpointError(f"checkpoint missing parameter group {group}")
    restore_group(target.parameters(), ckpt.params[group], group)
    return target


def model_from_checkpoint(ckpt: Checkpoint) -> AgingModel:
    """The stored model, filled straight into a zero store: no random draws.  A group in
    the store's layout is one copy and one finiteness check; others go through `_fill`."""
    model, stored = build_model(ckpt.config, None), ckpt.params.get("model", [])
    if [(n, a.shape) for n, a in stored] == [(n, a.shape) for n, a in model.parameters()]:
        np.concatenate([a for _, a in stored], axis=None, out=model.store)
        if np.isfinite(model.store).all():
            return model
    return _fill(model, ckpt, "model")


def _make_irl_net(make, cfg: RunConfig, rng: np.random.Generator | None):
    world = cfg.world
    return make(rng, world.dim, world.n_actions, world.age_min, world.age_max)


def cost_from_checkpoint(ckpt: Checkpoint) -> CostNet | None:
    if "cost" not in ckpt.params:
        return None
    return _fill(_make_irl_net(make_cost_net, ckpt.config, None), ckpt, "cost")


def policy_from_checkpoint(ckpt: Checkpoint) -> PolicyNet:
    """Stored policy, or an exactly uniform all-zero policy when the stage has not run."""
    policy = _make_irl_net(make_policy_net, ckpt.config, None)
    return _fill(policy, ckpt, "policy") if "policy" in ckpt.params else policy


# ---------------------------------------------------------------------------
# Stage: pretrain-flow
# ---------------------------------------------------------------------------

def stage_pretrain_flow(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    _, train = _load_sequences(cfg, TRAIN_FILE)
    _, pool = _load_sequences(cfg, POOL_FILE)
    data, _ = PathBatch.concat([pool, train]).flat_states()
    rng = _stage_rng(cfg, STAGE_FLOW)
    model = build_model(cfg, rng)
    steps, size = cfg.flow.pretrain_steps, cfg.flow.batch_size
    idx = rng.integers(0, data.shape[0], size=(2, steps, size))
    opt = Adam(model.flows.parameters(), cfg.optimizer.learning_rate, cfg.optimizer.beta1,
               cfg.optimizer.beta2)
    losses = np.empty((2, steps))
    for step in range(steps):
        losses[:, step], grads = flow_nll(model.flows, data[idx[:, step]])
        opt.step(grads)
    rows = [[name, step, float(losses[f, step])]
            for f, name in enumerate(("source", "target")) for step in range(steps)
            if step % 100 == 0 or step == steps - 1]
    write_csv(out / "pretrain_metrics.csv", ["flow", "step", "nll"], rows)
    path = out / "flow.ckpt"
    save_checkpoint(path, Checkpoint(config=cfg, params={"model": model.parameters()},
                                     meta={"stage": "pretrain-flow"}))
    return path


# ---------------------------------------------------------------------------
# Stage: train-pairs
# ---------------------------------------------------------------------------

def pair_index(paths: PathBatch, n_actions: int):
    """The batch's states as one (M * (T+1), D) view, and for every (earlier, later) state
    pair of a row with an age gap inside the action range, in (row, i, j >= i) row-major
    order, the two states' indices into it and the gap."""
    width = paths.ages.shape[1]
    i, j = np.triu_indices(width)
    gap = paths.ages[:, j] - paths.ages[:, i]
    rows, pair = np.nonzero((j <= paths.lengths[:, None]) & (gap < n_actions))
    if not rows.size:
        raise ValidationError("no usable pairs in the dataset")
    states = paths.observations.reshape(-1, paths.observations.shape[-1])
    return states, rows * width + i[pair], rows * width + j[pair], gap[rows, pair]


def build_pairs(paths: PathBatch, n_actions: int):
    """The (earlier, later) observations and gap of every `pair_index` pair."""
    states, earlier, later, gap = pair_index(paths, n_actions)
    return states[earlier], states[later], gap


def stage_train_pairs(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    train_ids, train = _load_sequences(cfg, TRAIN_FILE)
    _, heldout = _load_sequences(cfg, HELDOUT_FILE, train_ids)
    _, pool = _load_sequences(cfg, POOL_FILE)
    ckpt = load_checkpoint(out / "flow.ckpt")
    model = model_from_checkpoint(ckpt)
    rng = _stage_rng(cfg, STAGE_PAIRS)

    states, earlier, later, acts = pair_index(PathBatch.concat([pool, train]), cfg.world.n_actions)
    hxp, hxt, hacts = build_pairs(heldout, cfg.world.n_actions)

    opt = Adam(model.parameters(), cfg.optimizer.learning_rate, cfg.optimizer.beta1,
               cfg.optimizer.beta2)
    rows = []
    for step in range(cfg.transform.train_steps):
        idx = rng.integers(0, acts.size, size=cfg.transform.batch_size)
        loss = train_pair_step(model, opt, states[earlier[idx]], states[later[idx]], acts[idx],
                               cfg.transform.constraint_weight)
        if step % 100 == 0 or step == cfg.transform.train_steps - 1:
            heldout_nll = float(-np.mean(pair_loglik(model, hxp, hxt, hacts)))
            rows.append([step, loss, heldout_nll])
    write_csv(out / "pair_metrics.csv", ["step", "loss", "heldout_nll"], rows)
    path = out / "pairs.ckpt"
    save_checkpoint(path, Checkpoint(config=cfg, params={"model": model.parameters()},
                                     meta={"stage": "train-pairs"}))
    return path


# ---------------------------------------------------------------------------
# Stage: train-irl
# ---------------------------------------------------------------------------

def _wall_seconds(path: Path, rows: list[list]) -> list[float]:
    """The wall seconds of metrics.csv at `path` if its first rows hold the checkpoint's metrics
    `rows`, else zeros: a missing, unreadable or other run's file fails no resume."""
    try:
        got = [[float(v) for v in line.split(",")]
               for line in path.read_text(encoding="utf-8").splitlines()[1:len(rows) + 1]]
    except (OSError, ValueError):
        got = []
    return [r[-1] for r in got] if [r[:-1] for r in got] == rows else [0.0] * len(rows)


def _restore_boundary(ckpt: Checkpoint, out: Path, nets: dict, opts: dict,
                      rng: np.random.Generator) -> list[IterationMetrics]:
    """Fill `nets`, `opts` and `rng` from a boundary checkpoint and return its history, whose
    length is the next iteration, timed by `_wall_seconds`; a bad value raises CheckpointError."""
    for name, net in nets.items():
        _fill(net, ckpt, name)
        if name not in ckpt.opt_states:
            raise CheckpointError(f"checkpoint missing optimizer state {name}")
        opts[name].load_state_dict(ckpt.opt_states[name])
    start, rows = ckpt.meta.get("next_iteration"), ckpt.meta.get("metrics")
    last = ckpt.config.irl.outer_iters
    if not isinstance(start, int) or isinstance(start, bool) or not 0 <= start <= last:
        raise CheckpointError(f"meta.next_iteration must be an integer in [0, {last}], "
                              f"not {start!r}")
    width = len(IRL_METRICS_HEADER) - 1
    if not isinstance(rows, list) or len(rows) != start or any(
            not isinstance(r, list) or len(r) != width for r in rows):
        raise CheckpointError(f"meta.metrics must hold {start} rows of {width} values")
    try:
        history = [IterationMetrics(int(r[0]), *map(float, r[1:]), wall_seconds=s)
                   for r, s in zip(rows, _wall_seconds(out / "metrics.csv", rows))]
        rng.bit_generator.state = ckpt.rng_state
    except (TypeError, ValueError, KeyError) as exc:
        raise CheckpointError(f"malformed metrics or rng state: {exc!r}") from exc
    return history


def _save_boundary(out: Path, cfg: RunConfig, model: AgingModel, nets: dict, opts: dict,
                   rng: np.random.Generator, history: list[IterationMetrics]) -> bytes:
    """Save irl_latest.ckpt after the iterations in `history`, then metrics.csv, and return
    the checkpoint's bytes.  Its metrics drop the wall clock, the last column."""
    rows = [dataclasses.astuple(m) for m in history]
    params = {"model": model.parameters()} | {n: net.parameters() for n, net in nets.items()}
    data = save_checkpoint(out / "irl_latest.ckpt", Checkpoint(
        config=cfg, params=params,
        opt_states={name: opt.state_dict() for name, opt in opts.items()},
        rng_state=rng.bit_generator.state,
        meta={"stage": "train-irl", "next_iteration": len(history),
              "metrics": [row[:-1] for row in rows]}))
    write_csv(out / "metrics.csv", IRL_METRICS_HEADER, rows)
    return data


def stage_train_irl(cfg: RunConfig, resume: str | None = None,
                    stop_after: int | None = None) -> Path | None:
    """Fresh runs start from pairs.ckpt; `resume` continues a boundary checkpoint."""
    if stop_after is not None and stop_after < 0:
        raise ValidationError(f"--stop-after must be >= 0, got {stop_after}")
    out = Path(cfg.out_dir)
    _, demos = _load_sequences(cfg, TRAIN_FILE)
    if len(demos) == 0:
        raise ValidationError(f"{out / TRAIN_FILE} holds no demonstrations")
    init_rng = _stage_rng(cfg, STAGE_IRL, 0)
    loop_rng = _stage_rng(cfg, STAGE_IRL, 1)
    ckpt = load_checkpoint(out / "pairs.ckpt" if resume is None else resume)
    if resume is not None:
        if ckpt.meta.get("stage") != "train-irl":
            raise CheckpointError(f"{resume} is not a train-irl boundary checkpoint")
        cfg = ckpt.config

    model = model_from_checkpoint(ckpt)
    nets = {name: _make_irl_net(make, cfg, init_rng)
            for name, make in (("cost", make_cost_net), ("policy", make_policy_net))}
    rates = {"cost": cfg.irl.cost_learning_rate, "policy": cfg.irl.policy_learning_rate}
    opts = {name: Adam(net.parameters(f"{name}."), rates[name],
                       cfg.optimizer.beta1, cfg.optimizer.beta2)
            for name, net in nets.items()}
    history = [] if resume is None else _restore_boundary(ckpt, out, nets, opts, loop_rng)

    saved = _save_boundary(out, cfg, model, nets, opts, loop_rng, history)
    target_iters = cfg.irl.outer_iters if stop_after is None \
        else min(cfg.irl.outer_iters, stop_after)
    for metrics in learn_aging_policy(
            demos, nets["cost"], nets["policy"], ModelDynamics(model),
            iterations=range(len(history), target_iters), inner_iters=cfg.irl.inner_iters,
            sample_paths=cfg.irl.sample_paths, demo_batch=cfg.irl.demo_batch,
            sample_batch=cfg.irl.sample_batch, policy_rollouts=cfg.irl.policy_rollouts,
            policy_steps=cfg.irl.policy_steps, cost_optimizer=opts["cost"],
            policy_optimizer=opts["policy"], rng=loop_rng):
        history.append(metrics)
        saved = _save_boundary(out, cfg, model, nets, opts, loop_rng, history)

    if target_iters < cfg.irl.outer_iters:
        return None

    path = out / "model.ckpt"
    write_atomic(path, saved)  # the final boundary state, metrics.csv already written
    summary = {
        "iterations": len(history),
        "final_demo_energy": history[-1].demo_energy if history else None,
        "final_sample_energy": history[-1].sample_energy if history else None,
        "final_policy_entropy": history[-1].policy_entropy if history else None,
        "total_wall_seconds": sum(m.wall_seconds for m in history),
    }
    write_json(out / "summary.json", summary)
    return path


# ---------------------------------------------------------------------------
# Stage: evaluate
# ---------------------------------------------------------------------------

def stage_evaluate(cfg: RunConfig, checkpoint_path: str | None = None) -> dict:
    """Both held-out reports read one greedy plan of each held-out subject to its last demo
    age.  Sequence files and evaluation.json live under `cfg.out_dir`, not the checkpoint's."""
    out = Path(cfg.out_dir)
    ckpt = load_checkpoint(checkpoint_path or out / "model.ckpt")
    cfg = ckpt.config
    cfg.out_dir = str(out)
    train_ids, train = _load_sequences(cfg, TRAIN_FILE)
    ids, heldout = _load_sequences(cfg, HELDOUT_FILE, train_ids)
    if len(heldout) == 0:
        raise InsufficientDataError("no held-out states to evaluate")
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    cost = cost_from_checkpoint(ckpt)

    dynamics, ends = ModelDynamics(model), heldout.ages[np.arange(len(heldout)), heldout.lengths]
    paths = with_end_states(dynamics, plan_path_batch(policy, dynamics, heldout.observations[:, 0],
                                                      heldout.ages[:, 0], ends))
    fidelity = evaluate_age_fidelity(paths, cfg.world, train, heldout)
    recovery = path_recovery_report(paths, cfg.world, ids, heldout)
    report = {"fidelity": fidelity,
              "path_recovery": {k: v for k, v in recovery.items() if k != "subjects"},
              "subjects": recovery["subjects"]}
    if cost is not None:
        rng = _stage_rng(cfg, STAGE_EVAL)
        report["energy"] = energy_separation_report(
            model, cost, train, policy,
            seed=int(rng.integers(0, 2**63 - 1)),
            partition_samples=cfg.irl.is_samples)
    write_json(out / "evaluation.json", report)
    return report


# ---------------------------------------------------------------------------
# Stage: plan / synthesize
# ---------------------------------------------------------------------------

def start_state_from_inputs(ckpt: Checkpoint, model: AgingModel,
                            inputs: list[tuple[np.ndarray, int]],
                            target: int | None = None) -> tuple[np.ndarray, int]:
    """Fold the inputs into one start (obs, age); input ages and target must lie in the world."""
    world = ckpt.config.world
    for _, age in inputs:
        if not (world.age_min <= age <= world.age_max):
            raise ValidationError(
                f"input age {age} outside world range [{world.age_min}, {world.age_max}]")
    if target is not None and target > world.age_max:
        raise ValidationError(f"target age {target} above world maximum {world.age_max}")
    return multi_input_init(inputs, model)


def default_subject_inputs(cfg: RunConfig, subject_seed: int, age: int
                           ) -> list[tuple[np.ndarray, int]]:
    arch = make_archetype(cfg.world, subject_seed)
    return [(observe(cfg.world, arch, age), age)]


def request_checkpoint(ckpt_path: str | Checkpoint, target: int | None) -> Checkpoint:
    """A loaded `Checkpoint` as is, else the groups a request reads from `ckpt_path`: `model`,
    and `policy` for a `target` (a missing policy plans uniformly)."""
    if isinstance(ckpt_path, Checkpoint):
        return ckpt_path
    return load_checkpoint(ckpt_path, ("model",) if target is None else ("model", "policy"))


def run_plan(ckpt_path: str | Checkpoint, inputs: list[tuple[np.ndarray, int]],
             target: int) -> dict:
    """Greedy plan to `target`, from the `request_checkpoint` of `ckpt_path`."""
    ckpt = request_checkpoint(ckpt_path, target)
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    obs, age = start_state_from_inputs(ckpt, model, inputs, target)
    actions, _, ages = plan_rollout(policy, ModelDynamics(model), obs, age, target)
    return {
        "start_age": age,
        "target_age": target,
        "actions": actions,
        "ages": ages.tolist(),
    }


def run_synthesize(ckpt_path: str | Checkpoint, inputs: list[tuple[np.ndarray, int]],
                   action: int | None = None, target: int | None = None) -> dict:
    """One action step or a plan to `target`, from the `request_checkpoint` of `ckpt_path`."""
    if (action is None) == (target is None):
        raise ValidationError("exactly one of action or target is required")
    ckpt = request_checkpoint(ckpt_path, target)
    model = model_from_checkpoint(ckpt)
    obs, age = start_state_from_inputs(ckpt, model, inputs, target)
    if action is not None:
        if not (0 <= action < model.n_actions):
            raise ValidationError(f"action {action} out of range [0, {model.n_actions})")
        observations = np.stack([obs, synthesize_step(model, obs, action)])
        ages = np.array([age, age + action])
    else:
        policy = policy_from_checkpoint(ckpt)
        actions, observations, ages = plan_rollout(policy, ModelDynamics(model), obs, age, target)
        if actions:  # the plan leaves the state its last action reaches zero
            observations[-1] = synthesize_step(model, observations[-2:-1], actions[-1:])[0]
    return {"ages": ages.tolist(), "observations": observations.tolist()}


def run_full_pipeline(cfg: RunConfig) -> dict:
    """gen-data -> pretrain -> pairs -> IRL -> evaluate, returning the report."""
    stage_gen_data(cfg)
    stage_pretrain_flow(cfg)
    stage_train_pairs(cfg)
    stage_train_irl(cfg)
    return stage_evaluate(cfg)
