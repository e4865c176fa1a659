"""End-to-end experiment stages: gen-data, pretrain, pairs, IRL, evaluate.

Every stage derives its randomness from (config seed, stage tag) so stages
are independently reproducible, and artifacts live under the run's output
directory:

    train_sequences.jsonl / heldout_sequences.jsonl   demo sequences
    pool_sequences.jsonl                              dense per-subject pool
    flow.ckpt / pairs.ckpt / model.ckpt               stage checkpoints
    irl_latest.ckpt                                   resume point (per outer iter);
                                                      model.ckpt is the final one
    pretrain_metrics.csv / pair_metrics.csv           stage training curves
    metrics.csv / summary.json                        IRL per-iteration metrics
    evaluation.json                                   held-out reports
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, group_from_model, load_checkpoint, restore_group, save_checkpoint
from .config import RunConfig
from .errors import CheckpointError, InsufficientDataError, ValidationError
from .evaluate import (
    energy_separation_report,
    evaluate_age_fidelity,
    path_recovery_report,
)
from .flows import flow_nll
from .irl import (
    AgingTrajectory,
    CostNet,
    IterationMetrics,
    ModelDynamics,
    PolicyNet,
    State,
    learn_aging_policy,
    make_cost_net,
    make_policy_net,
    multi_input_init,
    plan_path_batch,
    plan_rollout,
)
from .metrics import write_csv, write_json
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

IRL_METRICS_HEADER = ["iteration", "demo_energy", "sample_energy",
                      "loglik_estimate", "policy_entropy", "wall_seconds"]


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


def _load_sequences(cfg: RunConfig, name: str) -> list[tuple[int, AgingTrajectory]]:
    """One sequence file of the run, with observations checked against world.dim."""
    path = Path(cfg.out_dir) / name
    if not path.exists():
        raise ValidationError(f"missing {name} under {path.parent}; run gen-data first")
    entries = read_sequences(path)
    for sid, traj in entries:
        length = traj.states[0].observation.size
        if length != cfg.world.dim:
            raise ValidationError(f"{name}: subject {sid} has observations of length "
                                  f"{length}, not the configured dim {cfg.world.dim}")
    return entries


# ---------------------------------------------------------------------------
# Model construction and checkpoint plumbing
# ---------------------------------------------------------------------------

def build_model(cfg: RunConfig, rng: np.random.Generator) -> AgingModel:
    return make_aging_model(
        rng, dim=cfg.world.dim, n_actions=cfg.world.n_actions,
        flow_units=cfg.flow.units, hidden=cfg.flow.hidden, clamp=cfg.flow.clamp,
        factors=cfg.transform.factors)


MODEL_GROUPS = ("source_flow", "target_flow", "transform")  # AgingModel attributes


def _model_groups(model: AgingModel) -> dict:
    return {name: group_from_model(getattr(model, name).parameters()) for name in MODEL_GROUPS}


def model_from_checkpoint(ckpt: Checkpoint) -> AgingModel:
    model = build_model(ckpt.config, np.random.default_rng(0))
    for name in MODEL_GROUPS:
        restore_group(getattr(model, name).parameters(), ckpt.params[name])
    return model


def _make_irl_net(make, cfg: RunConfig, rng: np.random.Generator):
    world = cfg.world
    return make(rng, world.dim, world.n_actions, world.age_min, world.age_max)


def cost_from_checkpoint(ckpt: Checkpoint) -> CostNet | None:
    if "cost" not in ckpt.params:
        return None
    cost = _make_irl_net(make_cost_net, ckpt.config, np.random.default_rng(0))
    restore_group(cost.parameters(), ckpt.params["cost"])
    return cost


def policy_from_checkpoint(ckpt: Checkpoint) -> PolicyNet:
    """Stored policy, or a fresh uniform policy when the stage has not run."""
    policy = _make_irl_net(make_policy_net, ckpt.config, np.random.default_rng(0))
    if "policy" in ckpt.params:
        restore_group(policy.parameters(), ckpt.params["policy"])
    return policy


# ---------------------------------------------------------------------------
# Stage: pretrain-flow
# ---------------------------------------------------------------------------

def stage_pretrain_flow(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    train = _load_sequences(cfg, TRAIN_FILE)
    pool = _load_sequences(cfg, POOL_FILE)
    data = np.stack([s.observation for _, t in pool + train for s in t.states])
    rng = _stage_rng(cfg, STAGE_FLOW)
    model = build_model(cfg, rng)
    steps, size = cfg.flow.pretrain_steps, cfg.flow.batch_size
    # drawn in the sequential loop's order (all source batches, then all target
    # batches), so each flow trains on the same batches as before
    idx = np.array([rng.integers(0, data.shape[0], size=size)
                    for _ in range(2 * steps)]).reshape(2, steps, size)
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
    save_checkpoint(path, Checkpoint(config=cfg, params=_model_groups(model),
                                     meta={"stage": "pretrain-flow"}))
    return path


# ---------------------------------------------------------------------------
# Stage: train-pairs
# ---------------------------------------------------------------------------

def build_pairs(trajs: list[AgingTrajectory], n_actions: int):
    """All (earlier, later) state pairs with an age gap inside the action range.

    Pairs come in (trajectory, i, j >= i) row-major order.  Row indices are
    gathered first, so each output array is allocated once.
    """
    states = [s for traj in trajs for s in traj.states]
    ages = np.array([s.age for s in states], dtype=np.int64)
    firsts, seconds, start = [], [], 0
    for traj in trajs:
        i, j = np.triu_indices(len(traj.states))
        gap = ages[start + j] - ages[start + i]
        keep = (gap >= 0) & (gap < n_actions)
        firsts.append(start + i[keep])
        seconds.append(start + j[keep])
        start += len(traj.states)
    if not sum(i.size for i in firsts):
        raise ValidationError("no usable pairs in the dataset")
    obs = np.stack([s.observation for s in states])
    i, j = np.concatenate(firsts), np.concatenate(seconds)
    return obs[i], obs[j], ages[j] - ages[i]


def stage_train_pairs(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    train, heldout, pool = (_load_sequences(cfg, name)
                            for name in (TRAIN_FILE, HELDOUT_FILE, POOL_FILE))
    ckpt = load_checkpoint(out / "flow.ckpt")
    model = model_from_checkpoint(ckpt)
    rng = _stage_rng(cfg, STAGE_PAIRS)

    xp, xt, acts = build_pairs([t for _, t in pool] + [t for _, t in train],
                               cfg.world.n_actions)
    hxp, hxt, hacts = build_pairs([t for _, t in heldout], cfg.world.n_actions)

    opt = Adam(model.parameters(), cfg.optimizer.learning_rate, cfg.optimizer.beta1,
               cfg.optimizer.beta2)
    rows = []
    for step in range(cfg.transform.train_steps):
        idx = rng.integers(0, xp.shape[0], size=cfg.transform.batch_size)
        loss = train_pair_step(model, opt, xp[idx], xt[idx], acts[idx],
                               cfg.transform.constraint_weight)
        if step % 100 == 0 or step == cfg.transform.train_steps - 1:
            heldout_nll = float(-np.mean(pair_loglik(model, hxp, hxt, hacts)))
            rows.append([step, loss, heldout_nll])
    write_csv(out / "pair_metrics.csv", ["step", "loss", "heldout_nll"], rows)
    path = out / "pairs.ckpt"
    save_checkpoint(path, Checkpoint(config=cfg, params=_model_groups(model),
                                     meta={"stage": "train-pairs"}))
    return path


# ---------------------------------------------------------------------------
# Stage: train-irl
# ---------------------------------------------------------------------------

def _metrics_rows(history: list[IterationMetrics]) -> list[list]:
    """Checkpoint form: wall clock excluded so checkpoints stay reproducible."""
    return [[m.iteration, m.demo_energy, m.sample_energy, m.loglik_estimate,
             m.policy_entropy] for m in history]


def stage_train_irl(cfg: RunConfig, resume: str | None = None,
                    stop_after: int | None = None) -> Path | None:
    """Fresh runs start from pairs.ckpt; `resume` continues a boundary checkpoint."""
    out = Path(cfg.out_dir)
    demos = [t for _, t in _load_sequences(cfg, TRAIN_FILE)]
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
    start_iteration, history = 0, []
    if resume is not None:
        for name, net in nets.items():
            restore_group(net.parameters(), ckpt.params[name])
            opts[name].load_state_dict(ckpt.opt_states[name])
        loop_rng.bit_generator.state = ckpt.rng_state
        start_iteration = int(ckpt.meta["next_iteration"])
        history = [IterationMetrics(int(r[0]), *map(float, r[1:]), wall_seconds=0.0)
                   for r in ckpt.meta.get("metrics", [])]

    def save_state(path: Path, next_iteration: int) -> None:
        """Save the IRL state to `path`; metrics.csv follows so aborted runs show progress."""
        rows = _metrics_rows(history)
        params = _model_groups(model) | {name: group_from_model(net.parameters())
                                         for name, net in nets.items()}
        save_checkpoint(path, Checkpoint(
            config=cfg, params=params,
            opt_states={name: opt.state_dict() for name, opt in opts.items()},
            rng_state=loop_rng.bit_generator.state,
            meta={"stage": "train-irl", "next_iteration": next_iteration, "metrics": rows}))
        write_csv(out / "metrics.csv", IRL_METRICS_HEADER,
                  [row + [m.wall_seconds] for row, m in zip(rows, history)])

    def on_iteration(k: int, metrics: IterationMetrics) -> None:
        history.append(metrics)
        save_state(out / "irl_latest.ckpt", k + 1)

    save_state(out / "irl_latest.ckpt", start_iteration)
    target_iters = cfg.irl.outer_iters if stop_after is None \
        else min(cfg.irl.outer_iters, stop_after)
    learn_aging_policy(
        demos, nets["cost"], nets["policy"], ModelDynamics(model),
        outer_iters=target_iters, inner_iters=cfg.irl.inner_iters,
        sample_paths=cfg.irl.sample_paths, demo_batch=cfg.irl.demo_batch,
        sample_batch=cfg.irl.sample_batch, policy_rollouts=cfg.irl.policy_rollouts,
        policy_steps=cfg.irl.policy_steps, cost_optimizer=opts["cost"],
        policy_optimizer=opts["policy"], rng=loop_rng,
        start_iteration=start_iteration, on_iteration=on_iteration)

    if target_iters < cfg.irl.outer_iters:
        return None

    path = out / "model.ckpt"
    save_state(path, cfg.irl.outer_iters)
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
    train = _load_sequences(cfg, TRAIN_FILE)
    heldout = _load_sequences(cfg, HELDOUT_FILE)
    if not heldout:
        raise InsufficientDataError("no held-out states to evaluate")
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    cost = cost_from_checkpoint(ckpt)

    paths = plan_path_batch(policy, ModelDynamics(model), [t.states[0] for _, t in heldout],
                            [t.states[-1].age for _, t in heldout])
    fidelity = evaluate_age_fidelity(paths, cfg.world, [s for _, t in train for s in t.states],
                                     [t for _, t in heldout])
    recovery = path_recovery_report(paths, cfg.world, heldout)
    report = {"fidelity": fidelity,
              "path_recovery": {k: v for k, v in recovery.items() if k != "subjects"},
              "subjects": recovery["subjects"]}
    if cost is not None:
        rng = _stage_rng(cfg, STAGE_EVAL)
        report["energy"] = energy_separation_report(
            model, cost, [t for _, t in train], policy,
            seed=int(rng.integers(0, 2**63 - 1)),
            partition_samples=cfg.irl.is_samples)
    write_json(out / "evaluation.json", report)
    return report


# ---------------------------------------------------------------------------
# Stage: plan / synthesize
# ---------------------------------------------------------------------------

def start_state_from_inputs(ckpt: Checkpoint, model: AgingModel,
                            inputs: list[tuple[np.ndarray, int]],
                            target: int | None = None) -> State:
    """Fold the inputs into a start state; input ages and target must lie in the world."""
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


def run_plan(ckpt_path: str, inputs: list[tuple[np.ndarray, int]], target: int) -> dict:
    ckpt = load_checkpoint(ckpt_path)
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    start = start_state_from_inputs(ckpt, model, inputs, target)
    actions, states = plan_rollout(policy, ModelDynamics(model), start, target)
    return {
        "start_age": start.age,
        "target_age": target,
        "actions": actions,
        "ages": [s.age for s in states],
    }


def run_synthesize(ckpt_path: str, inputs: list[tuple[np.ndarray, int]],
                   action: int | None = None, target: int | None = None) -> dict:
    if (action is None) == (target is None):
        raise ValidationError("exactly one of action or target is required")
    ckpt = load_checkpoint(ckpt_path)
    model = model_from_checkpoint(ckpt)
    start = start_state_from_inputs(ckpt, model, inputs, target)
    if action is not None:
        if not (0 <= action < model.n_actions):
            raise ValidationError(f"action {action} out of range [0, {model.n_actions})")
        obs = synthesize_step(model, start.observation, action)
        states = [start, State(obs, start.age + action)]
    else:
        policy = policy_from_checkpoint(ckpt)
        _, states = plan_rollout(policy, ModelDynamics(model), start, target)
    return {
        "ages": [s.age for s in states],
        "observations": [[float(v) for v in s.observation] for s in states],
    }


def run_full_pipeline(cfg: RunConfig) -> dict:
    """gen-data -> pretrain -> pairs -> IRL -> evaluate, returning the report."""
    stage_gen_data(cfg)
    stage_pretrain_flow(cfg)
    stage_train_pairs(cfg)
    stage_train_irl(cfg)
    return stage_evaluate(cfg)
