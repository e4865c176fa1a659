"""The benchmark's span tracer reads traced arguments by position and name
(for example `flow_nll`'s `xs`), so a traced fit cycle must still run."""

import importlib.util
import shutil
import time
from pathlib import Path

import numpy as np

from flowpath import pipeline

from conftest import tiny_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_run", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fit_stages_run_and_count_their_calls(tmp_path):
    cfg = tiny_config(str(tmp_path))
    cfg.flow.pretrain_steps = 3
    cfg.transform.train_steps = 3
    pipeline.stage_gen_data(cfg)
    tracer = _load_tracer().Tracer(time.perf_counter)
    with tracer:
        tracer.begin_op()
        pipeline.stage_pretrain_flow(cfg)
        tracer.begin_op()
        pipeline.stage_train_pairs(cfg)
    metrics = tracer.layer_metrics()
    assert metrics["flows.flow_nll.calls"] > 0
    assert metrics["transform.pair_objective_and_grads.calls"] > 0
    assert metrics["pipeline.stage_train_pairs.calls"] == 1
    # the tracer counts the arrays of `Adam.step`'s first argument, `grads`
    model = pipeline.build_model(cfg, np.random.default_rng(0))
    assert metrics["nets.Adam.step.calls"] == 6
    assert metrics["nets.Adam.step.arrays"] == (
        cfg.flow.pretrain_steps * len(model.flows.parameters())
        + cfg.transform.train_steps * len(model.parameters()))


def test_traced_evaluate_plans_in_one_batch(tiny_run, tmp_path):
    """Evaluate plans every held-out subject in one `plan_path_batch`, so the
    one traced `plan_rollout` is the `run_plan` request's."""
    out = tmp_path / "run"
    shutil.copytree(tiny_run["out"], out)
    cfg = tiny_config(str(out))
    tracer = _load_tracer().Tracer(time.perf_counter)
    with tracer:
        tracer.begin_op()
        pipeline.stage_evaluate(cfg)
        tracer.begin_op()
        response = pipeline.run_plan(str(out / "model.ckpt"),
                                     pipeline.default_subject_inputs(cfg, 5, 18), 50)
    metrics = tracer.layer_metrics()
    assert metrics["irl.rollout.failed"] == 0
    assert metrics["pipeline.stage_evaluate.calls"] == 1
    assert metrics["irl.plan_rollout.calls"] == 1
    assert metrics["irl.plan_rollout.steps"] == len(response["actions"]) > 0


def test_traced_irl_training_and_synthesis_count_their_calls(tiny_run, tmp_path):
    """The tracer patches the IRL loop's and the request path's functions by name, so a
    traced train-irl and synthesize must still run and count every call."""
    out = tmp_path / "run"
    shutil.copytree(tiny_run["out"], out)
    cfg = tiny_config(str(out))
    tracer = _load_tracer().Tracer(time.perf_counter)
    with tracer:
        tracer.begin_op()
        pipeline.stage_train_irl(cfg)
        tracer.begin_op()
        response = pipeline.run_synthesize(str(out / "model.ckpt"),
                                           pipeline.default_subject_inputs(cfg, 5, 18),
                                           target=40)
    metrics = tracer.layer_metrics()
    assert metrics["pipeline.stage_train_irl.calls"] == 1
    assert metrics["irl.policy_update.calls"] == cfg.irl.outer_iters
    assert metrics["irl.irl_loss_and_grad.calls"] > 0
    assert metrics["pipeline.run_synthesize.calls"] == 1
    assert metrics["irl.multi_input_init.calls"] == 1
    assert metrics["irl.plan_rollout.steps"] == len(response["ages"]) - 1 > 0
    assert metrics["irl.ModelDynamics.step.calls"] == 0
