"""Shared fixtures: tolerance helpers, a trained 2-d flow, a small pair-trained
model, and the full default-config pipeline run reused by the acceptance suite.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from flowpath.config import RunConfig
from flowpath.flows import flow_nll, make_flow
from flowpath.nets import Adam
from flowpath.pipeline import build_pairs, run_full_pipeline
from flowpath.transform import make_aging_model, train_pair_step
from flowpath.world import WorldConfig, generate_pool_sequence, generate_subject


def assert_close(analytic, numeric, rtol=1e-4, atol=1e-8, label=""):
    """Elementwise |a-b| <= rtol*max(|a|,|b|) + atol over parallel array lists."""
    for i, (a, b) in enumerate(zip(analytic, numeric)):
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        tol = rtol * np.maximum(np.abs(a), np.abs(b)) + atol
        bad = np.abs(a - b) > tol
        assert not bad.any(), (
            f"{label} group {i}: worst |a-b|={np.abs(a - b).max():.3e} "
            f"exceeds tolerance (rtol={rtol}, atol={atol})"
        )


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bimodal_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """2-d mixture of two well-separated Gaussians."""
    comp = rng.integers(0, 2, size=n)
    centers = np.array([[-2.0, 0.5], [2.0, -0.5]])
    return centers[comp] + 0.35 * rng.standard_normal((n, 2))


@pytest.fixture(scope="session")
def trained_bimodal_flow():
    """D=2 flow after 2000 optimizer steps on the bimodal dataset."""
    rng = np.random.default_rng(202)
    flow = make_flow(rng, dim=2, n_units=6, hidden=16)
    data = bimodal_samples(rng, 4096)
    heldout = bimodal_samples(rng, 1024)
    opt = Adam(flow.parameters(), 1e-3)
    from flowpath.flows import flow_nll_value

    initial = flow_nll_value(flow, heldout)
    for _ in range(2000):
        idx = rng.integers(0, data.shape[0], size=64)
        _, grads = flow_nll(flow, data[idx])
        opt.step(grads)
    return flow, heldout, initial


SMALL_WORLD = WorldConfig(dim=6, age_min=10, age_max=60, noise=0.05, horizon=5,
                          n_actions=16, train_subjects=12, heldout_subjects=6)


@pytest.fixture(scope="session")
def small_pair_model():
    """Pair-trained model on a small world: flows pretrained, 3000 pair steps."""
    cfg = SMALL_WORLD
    rng = np.random.default_rng(31)
    train = [generate_subject(cfg, i)[1] for i in range(cfg.train_subjects)]
    pool = [generate_pool_sequence(cfg, i) for i in range(cfg.train_subjects)]
    heldout = [generate_subject(cfg, 9000 + i)[1] for i in range(cfg.heldout_subjects)]
    data = np.stack([s.observation for t in pool + train for s in t.states])

    model = make_aging_model(rng, dim=cfg.dim, n_actions=cfg.n_actions,
                             flow_units=6, hidden=24, factors=16)
    for flow in (model.source_flow, model.target_flow):
        opt = Adam(flow.parameters(), 1e-3)
        for _ in range(800):
            idx = rng.integers(0, data.shape[0], size=64)
            _, grads = flow_nll(flow, data[idx])
            opt.step(grads)

    xp, xt, acts = build_pairs(pool + train, cfg.n_actions)
    hxp, hxt, hacts = build_pairs(heldout, cfg.n_actions)
    from flowpath.transform import pair_loglik

    initial_heldout_nll = float(-np.mean(pair_loglik(model, hxp, hxt, hacts)))
    opt = Adam(model.parameters(), 1e-3)
    for _ in range(3000):
        idx = rng.integers(0, xp.shape[0], size=64)
        train_pair_step(model, opt, xp[idx], xt[idx], acts[idx], 0.001)
    final_heldout_nll = float(-np.mean(pair_loglik(model, hxp, hxt, hacts)))
    return {
        "config": cfg,
        "model": model,
        "train": train,
        "heldout": heldout,
        "initial_heldout_nll": initial_heldout_nll,
        "final_heldout_nll": final_heldout_nll,
    }


@pytest.fixture(scope="session")
def default_run(tmp_path_factory):
    """One full default-config pipeline run (the criterion-7 reference run)."""
    out = tmp_path_factory.mktemp("default_run")
    cfg = RunConfig(seed=0, out_dir=str(out))
    report = run_full_pipeline(cfg)
    return {"cfg": cfg, "out": out, "report": report}


def tiny_config(out_dir: str, seed: int = 3) -> RunConfig:
    """A minutes-shaving configuration for harness and determinism tests."""
    cfg = RunConfig(seed=seed, out_dir=out_dir)
    cfg.world.train_subjects = 8
    cfg.world.heldout_subjects = 4
    cfg.flow.units = 4
    cfg.flow.hidden = 12
    cfg.flow.pretrain_steps = 120
    cfg.transform.train_steps = 150
    cfg.transform.factors = 8
    cfg.irl.outer_iters = 3
    cfg.irl.inner_iters = 6
    cfg.irl.sample_paths = 8
    cfg.irl.demo_batch = 4
    cfg.irl.sample_batch = 6
    cfg.irl.policy_rollouts = 8
    cfg.irl.policy_steps = 3
    return cfg


@pytest.fixture(scope="session")
def tiny_run(tmp_path_factory):
    """Fast full pipeline on a tiny config, for harness-level tests."""
    out = tmp_path_factory.mktemp("tiny_run")
    cfg = tiny_config(str(out))
    report = run_full_pipeline(cfg)
    return {"cfg": cfg, "out": out, "report": report}
