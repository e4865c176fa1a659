"""The benchmark's three workloads and the loop that times them.

Each workload is a set-up plus a cycle of two operation kinds, op1 and op2:

    fit           gen-data             | pretrain-flow stage, train-pairs stage
    irl           gen-data, demo order | train-irl stage, evaluate stage
                  pretrain, train-pairs
    plan-queries  gen-data ... IRL     | run_plan request, run_synthesize request

flowpath is a batch CLI and library, so every workload is a closed loop with
one client: an operation starts when the previous one has returned.  Inputs
come only from the workload seed; the plan-queries model is trained from a
fixed seed so that the seed changes the request stream, not the model that
serves it.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from flowpath import pipeline
from flowpath.config import RunConfig
from flowpath.world import WorldConfig, make_archetype, observe, read_sequences, write_sequences

import checks
from speed import SpeedProbe

SEQUENCE_FILES = [pipeline.TRAIN_FILE, pipeline.HELDOUT_FILE, pipeline.POOL_FILE]
PLAN_MODEL_SEED = 0


@dataclass(frozen=True)
class Sizes:
    """How much work each workload does; `full` is what BENCHMARK.json runs."""

    name: str
    setup_reps: int             # set-ups per untraced run; setup_s is their median
    fit_world: dict             # WorldConfig overrides
    fit_steps: int              # pretrain steps per flow, and pair steps, per stage call
    irl_world: dict
    irl_setup_steps: int        # pretrain and pair steps that build the pairs checkpoint
    irl_outer: int              # outer IRL iterations per train-irl stage call
    irl_settings: dict          # IrlSettings overrides for the irl workload
    plan_world: dict
    plan_setup_steps: int
    plan_irl: dict              # IrlSettings overrides that train the served model
    min_requests: int           # per request kind, per untraced run
    trace_requests: int         # per request kind, per traced phase


FULL = Sizes(
    name="full", setup_reps=3,
    fit_world={}, fit_steps=50,
    irl_world=dict(train_subjects=32, heldout_subjects=8), irl_setup_steps=60,
    irl_outer=1, irl_settings={},
    plan_world=dict(train_subjects=8, heldout_subjects=2), plan_setup_steps=30,
    plan_irl=dict(outer_iters=1, inner_iters=10, sample_paths=32, policy_rollouts=16,
                  policy_steps=5),
    min_requests=1000, trace_requests=200,
)

SMOKE = Sizes(
    name="smoke", setup_reps=2,
    fit_world=dict(train_subjects=16, heldout_subjects=4), fit_steps=60,
    irl_world=dict(train_subjects=6, heldout_subjects=3), irl_setup_steps=20,
    irl_outer=1, irl_settings=dict(inner_iters=2, sample_paths=8, is_samples=20,
                                   demo_batch=4, sample_batch=4, policy_rollouts=4,
                                   policy_steps=2),
    plan_world=dict(train_subjects=6, heldout_subjects=3), plan_setup_steps=20,
    plan_irl=dict(outer_iters=1, inner_iters=2, sample_paths=8, demo_batch=4,
                  sample_batch=4, policy_rollouts=4, policy_steps=2),
    min_requests=8, trace_requests=4,
)


@dataclass
class Op:
    """One timed call: `run` is timed, `verify` returns (digest, problems)."""

    kind: int                   # 0 for op1, 1 for op2
    label: str                  # digest label; equal labels must give equal digests
    units: int                  # work units the call completes
    run: Callable[[], object]
    verify: Callable[[object], tuple[str, list[str]]]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one operation; True when it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
            print(f"perfbench: {label} failed: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def make_config(out: Path, seed: int, world: dict, steps: int, irl: dict) -> RunConfig:
    cfg = RunConfig(world=WorldConfig(**world), seed=seed, out_dir=str(out))
    cfg.flow.pretrain_steps = steps
    cfg.transform.train_steps = steps
    cfg.irl = dataclasses.replace(cfg.irl, **irl)
    return cfg


def stage_op(label: str, stage: str, cfg: RunConfig, files: list[str]) -> Op:
    """A pipeline stage call whose output digest covers `files`.

    The stage is looked up when the op runs, so a traced run times the
    traced function.
    """
    out = Path(cfg.out_dir)
    return Op(0, label, 1, lambda: getattr(pipeline, stage)(cfg),
              lambda _: (checks.digest_files(out, files), []))


def gen_data_op(cfg: RunConfig) -> Op:
    return stage_op("gen-data", "stage_gen_data", cfg, SEQUENCE_FILES)


class Workload:
    """Set-up steps plus the two-kind operation cycle of one workload."""

    op_names: tuple[str, str]

    def __init__(self, out: Path, seed: int, sizes: Sizes):
        self.out = out
        self.seed = seed
        self.sizes = sizes

    def setup_ops(self) -> list[Op]:
        raise NotImplementedError

    def cycle(self, i: int) -> list[Op]:
        raise NotImplementedError

    def min_cycles(self) -> int:
        """Cycles an untraced run makes at least, however short --seconds is."""
        return 1

    def trace_cycles(self) -> int:
        """Cycles a traced run makes untraced, then again traced."""
        return 1

    def named_metrics(self, samples: "Samples", window_s: float
                      ) -> dict[str, tuple[float, str]]:
        """The workload's named metrics, as measured (not speed-normalized)."""
        raise NotImplementedError


def _median_rate(timings: list["Timing"]) -> float:
    return float(np.median([t.units / t.seconds for t in timings]))


class Fit(Workload):
    """Batch-64 training of both flows, then of the pair model."""

    op_names = ("pretrain_flow_step", "train_pairs_step")

    def __init__(self, out, seed, sizes):
        super().__init__(out, seed, sizes)
        self.cfg = make_config(out, seed, sizes.fit_world, sizes.fit_steps, {})

    def setup_ops(self):
        return [gen_data_op(self.cfg)]

    def cycle(self, i):
        cfg, out, steps = self.cfg, self.out, self.sizes.fit_steps

        def verify_pretrain(_):
            digest = checks.digest_files(out, ["pretrain_metrics.csv", "flow.ckpt"])
            return digest, checks.check_pretrain(out)

        def verify_pairs(_):
            digest = checks.digest_files(out, ["pair_metrics.csv", "pairs.ckpt"])
            return digest, checks.check_pairs(out)

        return [Op(0, "pretrain-flow", 2 * steps,
                   lambda: pipeline.stage_pretrain_flow(cfg), verify_pretrain),
                Op(1, "train-pairs", steps,
                   lambda: pipeline.stage_train_pairs(cfg), verify_pairs)]

    def named_metrics(self, samples, window_s):
        return {"pretrain_steps_per_s": (_median_rate(samples[0]), "1/s"),
                "pair_steps_per_s": (_median_rate(samples[1]), "1/s")}


def longest_demos_first(cfg: RunConfig) -> Op:
    """Reorder the training demos by decreasing length.

    evaluate's log-partition estimate rolls `is_samples` paths from the
    first demo's start over that demo's horizon, so the first demo's length
    (2 to 4 steps, by seed) would scale most of evaluate's work.  With a
    longest demo first every seed measures the same amount of work.
    """
    path = Path(cfg.out_dir) / pipeline.TRAIN_FILE

    def run():
        demos = read_sequences(path)
        write_sequences(path, sorted(demos, key=lambda d: -d[1].horizon))

    return Op(0, "order-demos", 1, run,
              lambda _: (checks.digest_files(path.parent, [path.name]), []))


class Irl(Workload):
    """MaxEnt IRL from a pairs checkpoint, then the evaluate stage."""

    op_names = ("irl_iteration", "evaluate")

    def __init__(self, out, seed, sizes):
        super().__init__(out, seed, sizes)
        self.cfg = make_config(out, seed, sizes.irl_world, sizes.irl_setup_steps,
                               dict(sizes.irl_settings, outer_iters=sizes.irl_outer))

    def setup_ops(self):
        return [gen_data_op(self.cfg), longest_demos_first(self.cfg),
                stage_op("setup-pretrain", "stage_pretrain_flow", self.cfg, ["flow.ckpt"]),
                stage_op("setup-pairs", "stage_train_pairs", self.cfg, ["pairs.ckpt"])]

    def cycle(self, i):
        cfg, out = self.cfg, self.out

        def verify_irl(_):
            digest = checks.digest_files(out, ["metrics.csv", "summary.json", "model.ckpt",
                                               "irl_latest.ckpt"])
            return digest, checks.check_irl_metrics(out, cfg.irl.outer_iters)

        def verify_evaluate(_):
            digest = checks.digest_files(out, ["evaluation.json"])
            return digest, checks.check_evaluation(out, cfg.world.heldout_subjects,
                                                   cfg.irl.is_samples)

        return [Op(0, "train-irl", cfg.irl.outer_iters,
                   lambda: pipeline.stage_train_irl(cfg), verify_irl),
                Op(1, "evaluate", 1, lambda: pipeline.stage_evaluate(cfg), verify_evaluate)]

    def named_metrics(self, samples, window_s):
        return {"irl_iters_per_s": (_median_rate(samples[0]), "1/s"),
                "evaluate_s": (float(np.median([t.seconds for t in samples[1]])), "s")}


def plan_inputs(world: WorldConfig, rng: np.random.Generator
                ) -> list[tuple[np.ndarray, int]]:
    """1-4 noisy observations of one fresh world subject, oldest last."""
    arch = make_archetype(world, int(rng.integers(1, 2**31)))
    ages = [int(rng.integers(world.age_min, world.age_max))]
    for _ in range(int(rng.integers(0, 4))):
        ages.append(max(world.age_min, ages[-1] - int(rng.integers(1, world.n_actions))))
    return [(observe(world, arch, a) + world.noise * rng.standard_normal(world.dim), a)
            for a in reversed(ages)]


class PlanQueries(Workload):
    """Single-row plan and synthesize requests, each loading the checkpoint."""

    op_names = ("plan", "synth")

    def __init__(self, out, seed, sizes):
        super().__init__(out, seed, sizes)
        self.cfg = make_config(out, PLAN_MODEL_SEED, sizes.plan_world,
                               sizes.plan_setup_steps, sizes.plan_irl)
        self.ckpt = str(out / "model.ckpt")

    def setup_ops(self):
        return [gen_data_op(self.cfg),
                stage_op("setup-pretrain", "stage_pretrain_flow", self.cfg, ["flow.ckpt"]),
                stage_op("setup-pairs", "stage_train_pairs", self.cfg, ["pairs.ckpt"]),
                stage_op("setup-irl", "stage_train_irl", self.cfg, ["model.ckpt"])]

    def plan_op(self, i: int) -> Op:
        world = self.cfg.world
        rng = np.random.default_rng([self.seed, 0, i])
        inputs = plan_inputs(world, rng)
        start = max(a for _, a in inputs)
        target = int(rng.integers(start + 1, world.age_max + 1))

        def verify(resp):
            return (checks.digest_json(resp)[:16],
                    checks.check_plan_response(resp, start, target, world.n_actions))

        return Op(0, f"plan{i}", 1, lambda: pipeline.run_plan(self.ckpt, inputs, target),
                  verify)

    def synth_op(self, i: int) -> Op:
        world = self.cfg.world
        rng = np.random.default_rng([self.seed, 1, i])
        inputs = plan_inputs(world, rng)
        start = max(a for _, a in inputs)
        action = int(rng.integers(0, world.n_actions))

        def verify(resp):
            return (checks.digest_json(resp)[:16],
                    checks.check_synth_response(resp, start, action, world.dim))

        return Op(1, f"synth{i}", 1,
                  lambda: pipeline.run_synthesize(self.ckpt, inputs, action=action), verify)

    def cycle(self, i):
        return [self.plan_op(i), self.synth_op(i)]

    def min_cycles(self):
        # a p99 needs 1000 samples to have 10 beyond it
        return self.sizes.min_requests

    def trace_cycles(self):
        return self.sizes.trace_requests

    def named_metrics(self, samples, window_s):
        out = {}
        for kind, name in enumerate(("plan", "synth")):
            ms = np.array([t.seconds * 1000 for t in samples[kind]])
            out[f"{name}_p50_ms"] = (float(np.percentile(ms, 50)), "ms")
            out[f"{name}_p99_ms"] = (float(np.percentile(ms, 99)), "ms")
            out[f"{name}_samples"] = (len(ms), "count")
        out["queries_per_s"] = ((len(samples[0]) + len(samples[1])) / window_s, "1/s")
        return out


WORKLOADS = {"fit": Fit, "irl": Irl, "plan-queries": PlanQueries}


# ---------------------------------------------------------------------------
# Timing loop
# ---------------------------------------------------------------------------

class Timing(NamedTuple):
    seconds: float              # probe-free time of the call
    units: int                  # work units it completed
    slowdown: float             # machine slowdown while it ran (1.0 if unprobed)

    def normalized(self) -> float:
        """Seconds per unit at nominal machine speed."""
        return self.seconds / self.units / self.slowdown


Samples = list[list[Timing]]


@dataclass
class Runner:
    """Times, checks and counts operations; `probe` keeps its own time out."""

    tally: Tally
    book: checks.DigestBook
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    tracer: object = None

    def run_op(self, op: Op) -> Timing | None:
        """Time one operation and check it; None if it failed."""
        if self.tracer is not None:
            self.tracer.begin_op()
        mark = self.probe.mark()
        try:
            t0 = self.probe.now()
            result = op.run()
            elapsed = self.probe.now() - t0
            digest, problems = op.verify(result)
        except Exception as exc:  # a raising operation is a failed operation
            self.tally.record(op.label, [repr(exc)])
            return None
        if not self.book.agrees(op.label, digest):
            problems = problems + ["output digest differs from an earlier run of this seed"]
        ok = self.tally.record(op.label, problems)
        return Timing(elapsed, op.units, self.probe.slowdown(mark)) if ok else None

    def run_setup(self, workload: Workload) -> Timing:
        """One full set-up, timed; raises if a set-up stage cannot complete."""
        mark = self.probe.mark()
        t0 = self.probe.now()
        for op in workload.setup_ops():
            result = op.run()
            digest, problems = op.verify(result)
            if not self.book.agrees(op.label, digest):
                problems = problems + ["set-up output differs from an earlier set-up"]
            self.tally.record(op.label, problems)
        return Timing(self.probe.now() - t0, 1, self.probe.slowdown(mark))

    def run_cycles(self, workload: Workload, start: int, seconds: float = 0.0,
                   min_cycles: int = 1) -> tuple[Samples, float]:
        """Run cycles from index `start` until `min_cycles` ran and `seconds` passed.

        Returns per-kind timings of the operations that succeeded, and the
        probe-free time of the whole loop.
        """
        samples: Samples = [[], []]
        t0 = self.probe.now()
        i = start
        while i - start < min_cycles or self.probe.now() - t0 < seconds:
            for op in workload.cycle(i):
                timing = self.run_op(op)
                if timing is not None:
                    samples[op.kind].append(timing)
            i += 1
        window = self.probe.now() - t0
        if not all(samples):
            raise RuntimeError(f"every {workload.op_names[samples.index([])]} operation failed")
        return samples, window
