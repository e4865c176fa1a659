"""End-to-end experiment stages: gen-data, pretrain, pairs, IRL, evaluate.

Every stage derives its randomness from (config seed, stage tag) so stages
are independently reproducible, and artifacts live under the run's output
directory:

    train_sequences.jsonl / heldout_sequences.jsonl   demo sequences
    pool_sequences.jsonl                              dense per-subject pool
    flow.ckpt / pairs.ckpt / model.ckpt               stage checkpoints
    irl_latest.ckpt                                   resume point (per outer iter)
    pretrain_metrics.csv / pair_metrics.csv           stage training curves
    metrics.csv / summary.json                        IRL per-iteration metrics
    evaluation.json                                   held-out reports
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, group_from_model, load_checkpoint, restore_group, save_checkpoint
from .config import RunConfig
from .errors import ValidationError
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


def _load_data(cfg: RunConfig):
    out = Path(cfg.out_dir)
    names = (TRAIN_FILE, HELDOUT_FILE, POOL_FILE)
    for name in names:
        if not (out / name).exists():
            raise ValidationError(f"missing {name} under {out}; run gen-data first")
    data = tuple(read_sequences(out / name) for name in names)
    for name, entries in zip(names, data):
        for sid, traj in entries:
            length = traj.states[0].observation.size
            if length != cfg.world.dim:
                raise ValidationError(f"{name}: subject {sid} has observations of length "
                                      f"{length}, not the configured dim {cfg.world.dim}")
    return data


# ---------------------------------------------------------------------------
# Model construction and checkpoint plumbing
# ---------------------------------------------------------------------------

def build_model(cfg: RunConfig, rng: np.random.Generator) -> AgingModel:
    return make_aging_model(
        rng, dim=cfg.world.dim, n_actions=cfg.world.n_actions,
        flow_units=cfg.flow.units, hidden=cfg.flow.hidden, clamp=cfg.flow.clamp,
        factors=cfg.transform.factors)


def _model_groups(model: AgingModel) -> dict:
    return {
        "source_flow": group_from_model(model.source_flow.parameters()),
        "target_flow": group_from_model(model.target_flow.parameters()),
        "transform": group_from_model(model.transform.parameters()),
    }


def _restore_model(model: AgingModel, ckpt: Checkpoint) -> None:
    restore_group(model.source_flow.parameters(), ckpt.params["source_flow"])
    restore_group(model.target_flow.parameters(), ckpt.params["target_flow"])
    restore_group(model.transform.parameters(), ckpt.params["transform"])


def model_from_checkpoint(ckpt: Checkpoint) -> AgingModel:
    model = build_model(ckpt.config, np.random.default_rng(0))
    _restore_model(model, ckpt)
    return model


def cost_from_checkpoint(ckpt: Checkpoint) -> CostNet | None:
    if "cost" not in ckpt.params:
        return None
    cfg = ckpt.config
    cost = make_cost_net(np.random.default_rng(0), cfg.world.dim, cfg.world.n_actions,
                         cfg.world.age_min, cfg.world.age_max)
    restore_group(cost.parameters(), ckpt.params["cost"])
    return cost


def policy_from_checkpoint(ckpt: Checkpoint) -> PolicyNet:
    """Stored policy, or a fresh uniform policy when the stage has not run."""
    cfg = ckpt.config
    policy = make_policy_net(np.random.default_rng(0), cfg.world.dim,
                             cfg.world.n_actions, cfg.world.age_min, cfg.world.age_max)
    if "policy" in ckpt.params:
        restore_group(policy.parameters(), ckpt.params["policy"])
    return policy


# ---------------------------------------------------------------------------
# Stage: pretrain-flow
# ---------------------------------------------------------------------------

def _all_observations(trajs: list[AgingTrajectory]) -> np.ndarray:
    return np.stack([s.observation for t in trajs for s in t.states])


def stage_pretrain_flow(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    train, _, pool = _load_data(cfg)
    data = _all_observations([t for _, t in pool] + [t for _, t in train])
    rng = _stage_rng(cfg, STAGE_FLOW)
    model = build_model(cfg, rng)
    rows = []
    for name, flow in (("source", model.source_flow), ("target", model.target_flow)):
        arrays = [a for _, a in flow.parameters()]
        names = [n for n, _ in flow.parameters()]
        opt = Adam(arrays, cfg.optimizer.learning_rate, cfg.optimizer.beta1,
                   cfg.optimizer.beta2)
        for step in range(cfg.flow.pretrain_steps):
            idx = rng.integers(0, data.shape[0], size=cfg.flow.batch_size)
            loss, grads = flow_nll(flow, data[idx])
            opt.step(arrays, grads, names)
            if step % 100 == 0 or step == cfg.flow.pretrain_steps - 1:
                rows.append([name, step, loss])
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
    train, heldout, pool = _load_data(cfg)
    ckpt = load_checkpoint(out / "flow.ckpt")
    model = model_from_checkpoint(ckpt)
    rng = _stage_rng(cfg, STAGE_PAIRS)

    xp, xt, acts = build_pairs([t for _, t in pool] + [t for _, t in train],
                               cfg.world.n_actions)
    hxp, hxt, hacts = build_pairs([t for _, t in heldout], cfg.world.n_actions)

    arrays = [a for _, a in model.parameters()]
    opt = Adam(arrays, cfg.optimizer.learning_rate, cfg.optimizer.beta1,
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
    return [[m.iteration, m.demo_energy, m.sample_energy, m.loglik_estimate,
             m.policy_entropy, m.wall_seconds] for m in history]


def _meta_rows(history: list[IterationMetrics]) -> list[list]:
    """Checkpoint form: wall clock excluded so checkpoints stay reproducible."""
    return [[m.iteration, m.demo_energy, m.sample_energy, m.loglik_estimate,
             m.policy_entropy] for m in history]


def _history_from_meta(meta: dict) -> list[IterationMetrics]:
    return [IterationMetrics(int(r[0]), *map(float, r[1:]), wall_seconds=0.0)
            for r in meta.get("metrics", [])]


def stage_train_irl(cfg: RunConfig, resume: str | None = None,
                    stop_after: int | None = None) -> Path | None:
    out = Path(cfg.out_dir)
    train, _, _ = _load_data(cfg)
    demos = [t for _, t in train]

    init_rng = _stage_rng(cfg, STAGE_IRL, 0)
    loop_rng = _stage_rng(cfg, STAGE_IRL, 1)

    if resume is not None:
        ckpt = load_checkpoint(resume)
        cfg = ckpt.config
        model = model_from_checkpoint(ckpt)
        cost = make_cost_net(init_rng, cfg.world.dim, cfg.world.n_actions,
                             cfg.world.age_min, cfg.world.age_max)
        policy = make_policy_net(init_rng, cfg.world.dim, cfg.world.n_actions,
                                 cfg.world.age_min, cfg.world.age_max)
        restore_group(cost.parameters(), ckpt.params["cost"])
        restore_group(policy.parameters(), ckpt.params["policy"])
        cost_opt = Adam([a for _, a in cost.parameters()], cfg.irl.cost_learning_rate,
                        cfg.optimizer.beta1, cfg.optimizer.beta2)
        policy_opt = Adam([a for _, a in policy.parameters()],
                          cfg.irl.policy_learning_rate, cfg.optimizer.beta1,
                          cfg.optimizer.beta2)
        cost_opt.load_state_dict(ckpt.opt_states["cost"])
        policy_opt.load_state_dict(ckpt.opt_states["policy"])
        loop_rng.bit_generator.state = ckpt.rng_state
        start_iteration = int(ckpt.meta["next_iteration"])
        history = _history_from_meta(ckpt.meta)
    else:
        pairs_ckpt = load_checkpoint(out / "pairs.ckpt")
        model = model_from_checkpoint(pairs_ckpt)
        cost = make_cost_net(init_rng, cfg.world.dim, cfg.world.n_actions,
                             cfg.world.age_min, cfg.world.age_max)
        policy = make_policy_net(init_rng, cfg.world.dim, cfg.world.n_actions,
                                 cfg.world.age_min, cfg.world.age_max)
        cost_opt = Adam([a for _, a in cost.parameters()], cfg.irl.cost_learning_rate,
                        cfg.optimizer.beta1, cfg.optimizer.beta2)
        policy_opt = Adam([a for _, a in policy.parameters()],
                          cfg.irl.policy_learning_rate, cfg.optimizer.beta1,
                          cfg.optimizer.beta2)
        start_iteration = 0
        history = []

    dynamics = ModelDynamics(model)

    def boundary_checkpoint(next_iteration: int, rows: list[IterationMetrics]) -> None:
        params = dict(_model_groups(model))
        params["cost"] = group_from_model(cost.parameters())
        params["policy"] = group_from_model(policy.parameters())
        save_checkpoint(out / "irl_latest.ckpt", Checkpoint(
            config=cfg, params=params,
            opt_states={"cost": cost_opt.state_dict(), "policy": policy_opt.state_dict()},
            rng_state=loop_rng.bit_generator.state,
            meta={"stage": "train-irl", "next_iteration": next_iteration,
                  "metrics": _meta_rows(rows)}))

    boundary_checkpoint(start_iteration, history)

    def on_iteration(k: int, metrics: IterationMetrics) -> None:
        history.append(metrics)
        boundary_checkpoint(k + 1, history)
        # keep the metrics file current so aborted runs still show progress
        write_csv(out / "metrics.csv", IRL_METRICS_HEADER, _metrics_rows(history))

    target_iters = cfg.irl.outer_iters if stop_after is None \
        else min(cfg.irl.outer_iters, stop_after)
    learn_aging_policy(
        demos, cost, policy, dynamics,
        outer_iters=target_iters, inner_iters=cfg.irl.inner_iters,
        sample_paths=cfg.irl.sample_paths, demo_batch=cfg.irl.demo_batch,
        sample_batch=cfg.irl.sample_batch, policy_rollouts=cfg.irl.policy_rollouts,
        policy_steps=cfg.irl.policy_steps, cost_optimizer=cost_opt,
        policy_optimizer=policy_opt, rng=loop_rng,
        start_iteration=start_iteration, on_iteration=on_iteration)

    if stop_after is not None and stop_after < cfg.irl.outer_iters:
        return None

    params = dict(_model_groups(model))
    params["cost"] = group_from_model(cost.parameters())
    params["policy"] = group_from_model(policy.parameters())
    path = out / "model.ckpt"
    save_checkpoint(path, Checkpoint(
        config=cfg, params=params,
        opt_states={"cost": cost_opt.state_dict(), "policy": policy_opt.state_dict()},
        rng_state=loop_rng.bit_generator.state,
        meta={"stage": "train-irl", "next_iteration": cfg.irl.outer_iters,
              "metrics": _meta_rows(history)}))
    write_csv(out / "metrics.csv", IRL_METRICS_HEADER, _metrics_rows(history))
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
    out = Path(cfg.out_dir)
    ckpt = load_checkpoint(checkpoint_path or out / "model.ckpt")
    cfg = ckpt.config
    out = Path(cfg.out_dir) if checkpoint_path is None else out
    train, heldout, _ = _load_data(cfg)
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    cost = cost_from_checkpoint(ckpt)

    train_states = [s for _, t in train for s in t.states]
    fidelity = evaluate_age_fidelity(model, policy, cfg.world, train_states,
                                     [t for _, t in heldout])
    recovery = path_recovery_report(model, policy, cfg.world, heldout)
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
        obs = synthesize_step(model, start.observation, action, 0.0)
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
