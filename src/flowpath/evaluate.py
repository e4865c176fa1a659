"""Held-out evaluation: path recovery, energy separation, and age fidelity.

Path recovery and age fidelity both read one `PathBatch` that the caller
plans: each held-out subject greedily from its first state to its last demo
age.  The age-fidelity report mirrors an age-estimation experiment: a simple
regressor is fit on real observations only, then scored on real held-out
states and on states synthesized at matching target ages.  The gap between
the two MAEs measures whether synthesized observations are perceived to be
at their bookkept ages.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientDataError
from .irl import (
    AgingTrajectory,
    ModelDynamics,
    PathBatch,
    PolicyNet,
    State,
    log_mean_exp,
    make_policy_net,
    path_energies,
    path_log_weights,
    sample_path_batch,
    weight_diagnostics,
)
from .transform import AgingModel
from .world import WorldConfig, WorldDynamics, archetype_cost, dp_optimal_path, make_archetype


def _stack(states: list[State]) -> tuple[np.ndarray, np.ndarray]:
    return np.array([s.observation for s in states]), np.array([s.age for s in states], float)


def _age_features(obs: np.ndarray) -> np.ndarray:
    return np.hstack([obs, obs * obs, np.ones((len(obs), 1))])


def fit_age_regressor(obs: np.ndarray, ages: np.ndarray) -> np.ndarray:
    """Least-squares readout from (obs, obs²) features of (N, D) observations to age."""
    if len(ages) < 2:
        raise InsufficientDataError("age regressor needs at least 2 states")
    coeff, *_ = np.linalg.lstsq(_age_features(obs), ages, rcond=None)
    return coeff


def regressor_mae(coeff: np.ndarray, obs: np.ndarray, ages: np.ndarray) -> float:
    if len(ages) == 0:
        raise InsufficientDataError("no states to score the age regressor on")
    return float(np.abs(_age_features(obs) @ coeff - ages).mean())


def synthesize_progressions(paths: PathBatch, trajs: list[AgingTrajectory]
                            ) -> tuple[np.ndarray, np.ndarray]:
    """(K, D) observations and (K,) ages synthesized at every later demo age.

    Row i of `paths` plans trajs[i] to its last demo age.  A greedy plan to an
    earlier age is a prefix of it, so it ends at the first state that reaches that age."""
    rows, steps = [], []
    for i, traj in enumerate(trajs):
        ages = paths.ages[i, :paths.lengths[i] + 1]
        later = np.searchsorted(ages, [s.age for s in traj.states[1:]]).tolist()
        rows += [i] * len(later)
        steps += later
    return paths.observations[rows, steps], paths.ages[rows, steps].astype(float)


def evaluate_age_fidelity(paths: PathBatch, config: WorldConfig, train_states: list[State],
                          heldout_trajs: list[AgingTrajectory]) -> dict:
    """MAE of an age regressor on real vs synthesized held-out states; row i of
    `paths` plans heldout_trajs[i] to its last demo age."""
    train_obs, train_ages = _stack(train_states)
    coeff = fit_age_regressor(train_obs, train_ages)
    synth_obs, synth_ages = synthesize_progressions(paths, heldout_trajs)
    mae_train = regressor_mae(coeff, train_obs, train_ages)
    mae_real = regressor_mae(coeff, *_stack([s for t in heldout_trajs for s in t.states]))
    mae_synth = regressor_mae(coeff, synth_obs, synth_ages)
    return {
        "mae_train": mae_train,
        "mae_real_heldout": mae_real,
        "mae_synth_heldout": mae_synth,
        "gap": mae_synth - mae_real,
        "normalized_gap": (mae_synth - mae_real) / config.age_span,
        "n_synth_states": len(synth_ages),
    }


def path_recovery_report(paths: PathBatch, config: WorldConfig,
                         heldout: list[tuple[int, AgingTrajectory]]) -> dict:
    """Compare planned paths with the ground-truth-optimal oracle paths; row i
    of `paths` plans heldout[i] to its last demo age."""
    matches = 0
    per_class_actions: dict[int, list[int]] = {}
    details = []
    for i, (sid, traj) in enumerate(heldout):
        arch = make_archetype(config, sid)
        planned = paths.actions[i, :paths.lengths[i]].tolist()
        world_dyn = WorldDynamics(config, arch)
        optimal = dp_optimal_path(world_dyn, archetype_cost(config, arch),
                                  world_dyn.state_at(traj.states[0].age), traj.states[-1].age,
                                  horizon_cap=config.horizon - 1)
        ok = planned == optimal.actions
        matches += ok
        per_class_actions.setdefault(arch.class_id, []).extend(planned)
        details.append({"subject_id": sid, "class_id": arch.class_id,
                        "planned": planned, "optimal": optimal.actions,
                        "match": bool(ok)})
    modal = {c: int(np.bincount(a).argmax()) for c, a in per_class_actions.items() if a}
    distinct = len(set(modal.values())) == len(modal)
    return {
        "match_rate": matches / len(heldout),
        "modal_action_per_class": {str(k): v for k, v in sorted(modal.items())},
        "distinct_paths_across_classes": bool(distinct and len(modal) >= 2),
        "subjects": details,
    }


def energy_separation_report(model: AgingModel, cost, demos: list[AgingTrajectory],
                             policy: PolicyNet, seed: int,
                             partition_samples: int = 2000) -> dict:
    """Mean learned energy of demos vs uniform-policy rollouts from demo starts,
    plus an importance-sampled log-partition estimate under the learned policy
    with the Kish effective sample size and largest normalized weight of its
    importance weights and the number of distinct action sequences among its
    rollouts.  The estimate uses the first demo's start and horizon
    only, so it depends on the order of `demos` (train_sequences.jsonl in a run).
    """
    dyn = ModelDynamics(model)
    uniform = make_policy_net(np.random.default_rng(0), model.dim, model.n_actions,
                              age_low=cost.age_low, age_high=cost.age_high)
    starts = [d.states[0] for d in demos]
    horizons = [max(1, d.horizon) for d in demos]
    rollouts = sample_path_batch(uniform, dyn, starts, horizons,
                                 m=2 * len(demos), seed=seed)
    demo_paths = PathBatch.from_trajectories(demos, cost.n_actions)
    demo_e = float(np.mean(path_energies(cost, demo_paths)))
    roll_e = float(np.mean(path_energies(cost, rollouts)))
    paths = sample_path_batch(policy, dyn, starts[:1], horizons[0], partition_samples, seed + 1)
    log_w = path_log_weights(cost, paths)
    ess, max_weight = weight_diagnostics(log_w)
    return {
        "demo_energy": demo_e,
        "uniform_rollout_energy": roll_e,
        "margin": roll_e - demo_e,
        "log_partition_estimate": log_mean_exp(log_w),
        "partition_samples": partition_samples,
        "partition_ess": ess,
        "partition_max_weight": max_weight,
        "partition_distinct_paths": len(np.unique(paths.actions, axis=0)),
    }
