"""Self-test of the benchmark at minimal sizes.

    python3 -m pytest perfbench/test_selftest.py

Each workload runs end to end and traced, in a subprocess as
BENCHMARK.json's command runs it, and every named metric must be printed with its unit.  A broken
plan response must count as a failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from flowpath import pipeline  # noqa: E402


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["fit", "irl", "plan-queries"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, result = _bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _declared()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    named = {"fit": ["pretrain_steps_per_s", "pair_steps_per_s"],
             "irl": ["irl_iters_per_s", "evaluate_s"],
             "plan-queries": ["plan_p50_ms", "plan_p99_ms", "synth_p50_ms", "synth_p99_ms",
                              "queries_per_s"]}[workload]
    for name in named + ["setup_s", "peak_rss_mb", "error_rate"]:
        assert any(line.split()[:1] == [name] and len(line.split()) >= 3
                   for line in lines[:-1]), name


@pytest.mark.parametrize("workload", ["fit", "irl", "plan-queries"])
def test_every_per_layer_metric_is_printed_with_its_unit(workload):
    _, result = _bench(workload, 1)
    declared = {m["name"]: m["unit"] for m in _declared()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert declared == tracer.metric_units()
    assert result["correct"]


def test_broken_plan_response_counts_as_failure(tmp_path, monkeypatch):
    workload = workloads.PlanQueries(tmp_path, seed=5, sizes=workloads.SMOKE)
    op = workload.plan_op(0)

    def broken_plan(ckpt_path, inputs, target):
        start = max(a for _, a in inputs)
        # the ages skip a year that no action accounts for
        return {"start_age": start, "target_age": target, "actions": [target - start],
                "ages": [start, target + 1]}

    monkeypatch.setattr(pipeline, "run_plan", broken_plan)
    tally = workloads.Tally()
    book = checks.DigestBook(tmp_path, "selftest")
    assert workloads.Runner(tally, book).run_op(op) is None
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "chain" in tally.problems[0]
