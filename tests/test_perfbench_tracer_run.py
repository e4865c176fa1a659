"""The benchmark's span tracer reads traced arguments by position and name
(for example `flow_nll`'s `xs`), so a traced fit cycle must still run."""

import importlib.util
import time
from pathlib import Path

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
