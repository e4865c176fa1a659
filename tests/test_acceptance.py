"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  The end-to-end criteria share one default-config reference run
(session fixture); the determinism criterion repeats that run in place and
compares artifact bytes.
"""

import json
import math
import time

import numpy as np
import pytest

from flowpath.checks import full_3way_contraction, run_gradcheck
from flowpath.config import RunConfig
from flowpath.flows import flow_forward, flow_inverse, make_flow
from flowpath.irl import (
    enumerate_energies,
    estimate_log_partition,
    make_cost_net,
    make_policy_net,
    multi_input_init,
    plan_rollout,
    policy_update,
    ModelDynamics,
    FunctionDynamics,
)
from flowpath.metrics import read_csv_without_columns
from flowpath.nets import Adam
from flowpath.pipeline import model_from_checkpoint, policy_from_checkpoint, run_full_pipeline
from flowpath.checkpoint import load_checkpoint
from flowpath.transform import FactoredTransform, transform_apply
from flowpath.world import WorldConfig, WorldDynamics, make_archetype

from conftest import file_digest
import reference
from reference import State

# Frozen from reference runs (seeds 0..2 gave normalized gaps 0.019 / 0.010 /
# 0.012); the ceiling allowed for this world is 0.3 of the age range.
FIDELITY_GAP_BOUND_NORMALIZED = 0.06


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_c01_invertibility_suite():
    t0 = time.time()
    worst = 0.0
    for dim in (2, 4, 16):
        for units in (4, 10):
            rng = np.random.default_rng(1000 * dim + units)
            flow = make_flow(rng, dim, units, hidden=32)
            for _, arr in flow.parameters():
                arr += 0.05 * rng.standard_normal(arr.shape)
            x = rng.standard_normal((1000, dim))
            z, _ = flow_forward(flow, x)
            err = float(np.abs(flow_inverse(flow, z) - x).max())
            worst = max(worst, err)
            assert err < 1e-9, f"D={dim} units={units}: {err:.3e}"
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(f"criterion 1 PASS: invertibility worst |err| {worst:.3e} in {elapsed:.1f}s")


def test_c02_exact_likelihood_suite(trained_bimodal_flow):
    t0 = time.time()
    # (a) composed log-det vs numerical Jacobian determinant, D <= 4
    worst_rel = 0.0
    for dim in (2, 3, 4):
        for units in (3, 6):
            rng = np.random.default_rng(17 * dim + units)
            flow = make_flow(rng, dim, units, hidden=12)
            for _, arr in flow.parameters():
                arr += 0.1 * rng.standard_normal(arr.shape)
            for rep in range(5):
                x = rng.standard_normal(dim)
                _, logdet = flow_forward(flow, x)
                eps = 1e-6
                jac = np.zeros((dim, dim))
                for j in range(dim):
                    hi, lo = x.copy(), x.copy()
                    hi[j] += eps
                    lo[j] -= eps
                    jac[:, j] = (flow_forward(flow, hi)[0]
                                 - flow_forward(flow, lo)[0]) / (2 * eps)
                ref = math.log(abs(np.linalg.det(jac)))
                rel = abs(logdet - ref) / max(abs(ref), 1e-8)
                worst_rel = max(worst_rel, rel)
                assert abs(logdet - ref) <= 1e-4 * abs(ref) + 1e-8

    # (b) quadrature of the trained D=2 density
    from test_flows import quadrature_mass

    flow2, _, _ = trained_bimodal_flow
    mass = quadrature_mass(flow2)
    assert 0.99 <= mass <= 1.01
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(f"criterion 2 PASS: logdet rel err {worst_rel:.2e}, "
           f"trained density mass {mass:.5f} in {elapsed:.1f}s")


def test_c03_gradient_suite():
    t0 = time.time()
    results = run_gradcheck(seed=0)
    for name, passed, detail in results:
        assert passed, f"{name}: {detail}"
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report("criterion 3 PASS: " + "; ".join(
        f"{name} ({detail})" for name, _, detail in results) + f" in {elapsed:.1f}s")


def test_c04_factorization_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
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
        worst = max(worst, float(np.abs(fast - slow).max()))
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(f"criterion 4 PASS: 100 instances, worst |diff| {worst:.2e} "
           f"in {elapsed:.1f}s")


def test_c05_partition_function_oracle():
    t0 = time.time()
    cfg = WorldConfig(n_actions=3)
    arch = make_archetype(cfg, 3)
    dyn = WorldDynamics(cfg, arch)
    rng = np.random.default_rng(9)
    cost = make_cost_net(rng, dim=cfg.dim, n_actions=3, age_low=cfg.age_min,
                         age_high=cfg.age_max, hidden=8)
    for _, arr in cost.parameters():
        arr *= 0.5
    age = cfg.age_min + 5
    energies = enumerate_energies(dyn.obs_at(age), age, 3, cost, dyn)
    log_z = float(np.log(np.exp(-energies).sum()))
    policy = make_policy_net(np.random.default_rng(1), dim=cfg.dim, n_actions=3,
                             age_low=cfg.age_min, age_high=cfg.age_max)
    errs = [abs(estimate_log_partition(cost, policy, dyn, dyn.obs_at(age), age, 3, n=2000,
                                       seed=s) - log_z) / abs(log_z) for s in range(20)]
    mean_err = float(np.mean(errs))
    elapsed = time.time() - t0
    assert mean_err < 0.05
    assert elapsed < 60.0
    report(f"criterion 5 PASS: log Z rel err {mean_err:.4f} over 20 seeds "
           f"(exact {log_z:.4f}) in {elapsed:.1f}s")


def test_c06_max_entropy_bandit_recovery():
    t0 = time.time()
    dyn = FunctionDynamics(4, lambda obs, ages, actions: obs)
    start = State(np.zeros(3), 0)
    table = np.array([1.0, 0.0, 1.0, 1.0])
    policy = make_policy_net(np.random.default_rng(42), dim=3, n_actions=4,
                             age_low=0, age_high=10, uniform_init=False)
    opt = Adam(policy.parameters(), 0.05)
    for it in range(50):
        policy_update(policy, lambda obs, ages, actions: table[actions], dyn,
                      start.observation[None, :], [start.age], [1],
                      opt, n_rollouts=128, n_steps=5, seed=1000 + it)
    p = reference.probs(policy, start)
    target = np.exp(-table)
    target /= target.sum()
    tv = 0.5 * float(np.abs(p - target).sum())
    assert int(np.argmax(p)) == 1
    assert tv < 0.05

    dyn16 = FunctionDynamics(16, lambda obs, ages, actions: obs)
    policy16 = make_policy_net(np.random.default_rng(5), dim=3, n_actions=16,
                               age_low=0, age_high=10, uniform_init=False)
    for _, arr in policy16.parameters():
        arr += 0.3 * np.random.default_rng(6).standard_normal(arr.shape)
    opt16 = Adam(policy16.parameters(), 0.05)
    for it in range(60):
        policy_update(policy16, lambda obs, ages, actions: np.zeros(ages.size), dyn16,
                      start.observation[None, :], [start.age], [1], opt16, n_rollouts=256,
                      n_steps=2, seed=2000 + it)
    entropy_gap = math.log(16) - reference.entropy(policy16, start)
    assert abs(entropy_gap) < 1e-3
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(f"criterion 6 PASS: bandit TV {tv:.4f}, entropy gap {entropy_gap:.2e} "
           f"in {elapsed:.1f}s")


def test_c07_end_to_end_learning(default_run):
    rep = default_run["report"]
    energy = rep["energy"]
    recovery = rep["path_recovery"]
    assert energy["demo_energy"] < energy["uniform_rollout_energy"]
    assert recovery["match_rate"] >= 0.8
    assert recovery["distinct_paths_across_classes"]
    report(
        "criterion 7 PASS: demo energy "
        f"{energy['demo_energy']:.2f} < uniform {energy['uniform_rollout_energy']:.2f}; "
        f"path match {recovery['match_rate']:.2f}; modal steps per class "
        f"{recovery['modal_action_per_class']}")


def test_c08_age_fidelity_analog(default_run):
    t0 = time.time()
    fid = default_run["report"]["fidelity"]
    assert fid["mae_train"] < fid["mae_real_heldout"]
    assert fid["normalized_gap"] <= FIDELITY_GAP_BOUND_NORMALIZED
    assert FIDELITY_GAP_BOUND_NORMALIZED <= 0.3
    assert time.time() - t0 < 300.0
    report(
        f"criterion 8 PASS: MAE real {fid['mae_real_heldout']:.3f} vs synth "
        f"{fid['mae_synth_heldout']:.3f} (gap {fid['gap']:.3f} age units, "
        f"normalized {fid['normalized_gap']:.4f} <= {FIDELITY_GAP_BOUND_NORMALIZED})")


def test_c09_multi_input_reduction(default_run):
    t0 = time.time()
    ckpt = load_checkpoint(default_run["out"] / "model.ckpt")
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    cfg = ckpt.config
    arch = make_archetype(cfg.world, 424242)
    from flowpath.world import observe

    obs = observe(cfg.world, arch, 20)
    dyn = ModelDynamics(model)

    # single-input pipeline: encode/decode the observation, then greedy rollout
    z, _ = flow_forward(model.target_flow, obs)
    single_start = flow_inverse(model.target_flow, z)
    single_actions, single_obs, single_ages = plan_rollout(policy, dyn, single_start, 20, 44)

    multi_start, multi_age = multi_input_init([(obs, 20)], model)
    multi_actions, multi_obs, multi_ages = plan_rollout(policy, dyn, multi_start, multi_age, 44)

    assert multi_actions == single_actions
    assert len(multi_ages) == len(single_ages)
    assert multi_ages.tolist() == single_ages.tolist()
    assert np.array_equal(single_obs, multi_obs)  # bit-identical
    assert np.abs(multi_start - obs).max() < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(f"criterion 9 PASS: n=1 start/path/states bit-identical "
           f"({len(single_actions)} actions) in {elapsed:.1f}s")


ARTIFACTS = [
    "train_sequences.jsonl", "heldout_sequences.jsonl", "pool_sequences.jsonl",
    "flow.ckpt", "pairs.ckpt", "model.ckpt", "irl_latest.ckpt",
    "pretrain_metrics.csv", "pair_metrics.csv", "evaluation.json",
]


def test_c10_full_pipeline_determinism(default_run):
    t0 = time.time()
    out = default_run["out"]
    before = {name: file_digest(out / name) for name in ARTIFACTS}
    metrics_before = read_csv_without_columns(out / "metrics.csv", {"wall_seconds"})
    summary_before = {k: v for k, v in
                      json.loads((out / "summary.json").read_text()).items()
                      if "seconds" not in k}

    # repeat the identical run in place
    run_full_pipeline(RunConfig(seed=default_run["cfg"].seed, out_dir=str(out)))

    for name in ARTIFACTS:
        assert file_digest(out / name) == before[name], f"{name} differs"
    assert read_csv_without_columns(out / "metrics.csv", {"wall_seconds"}) \
        == metrics_before
    summary_after = {k: v for k, v in
                     json.loads((out / "summary.json").read_text()).items()
                     if "seconds" not in k}
    assert summary_after == summary_before
    report(f"criterion 10 PASS: {len(ARTIFACTS)} artifacts byte-identical, "
           f"metrics identical up to wall clock, in {time.time()-t0:.0f}s")
