"""Span tracer that wraps flowpath's public functions from outside the package.

Each traced function is replaced, in every flowpath module that binds it,
by a wrapper that records one span (name, start, end, parent, operation).
Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its direct child spans cover; the code is
synchronous, so child spans never overlap.  No layer has a queue, so no
wait time is recorded.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows_of(index: int, name: str):
    """Counter of the batch rows in one array argument (a vector is one row)."""
    def count(args, kwargs, result) -> int:
        shape = np.shape(_arg(args, kwargs, index, name))
        return int(shape[0]) if len(shape) == 2 else 1
    return count


# (layer, module, attribute, {extra: fn(args, kwargs, result) -> count, or None to
# count the calls that raise})
TRACED = [
    ("nets", "flowpath.nets", "Adam.step",
     {"arrays": lambda a, k, r: len(_arg(a, k, 1, "params"))}),
    ("nets", "flowpath.nets", "net_forward", {"rows": _rows_of(1, "x")}),
    ("nets", "flowpath.nets", "net_backward", {"rows": _rows_of(1, "x")}),
    ("flows", "flowpath.flows", "flow_nll", {"rows": _rows_of(1, "xs")}),
    ("flows", "flowpath.flows", "flow_forward", {"rows": _rows_of(1, "x")}),
    ("flows", "flowpath.flows", "flow_inverse", {"rows": _rows_of(1, "z")}),
    ("transform", "flowpath.transform", "train_pair_step", {}),
    ("transform", "flowpath.transform", "pair_objective_and_grads", {}),
    ("transform", "flowpath.transform", "pair_loglik", {"rows": _rows_of(1, "x_prev")}),
    ("transform", "flowpath.transform", "synthesize_step", {"rows": _rows_of(1, "x_prev")}),
    ("irl", "flowpath.irl", "sample_trajectories", {"trajectories": lambda a, k, r: len(r)}),
    ("irl", "flowpath.irl", "rollout", {"failed": None}),
    ("irl", "flowpath.irl", "ModelDynamics.step", {}),
    ("irl", "flowpath.irl", "irl_loss_and_grad", {}),
    ("irl", "flowpath.irl", "traj_log_proposal_density", {}),
    ("irl", "flowpath.irl", "sequence_energy", {}),
    ("irl", "flowpath.irl", "policy_update", {}),
    ("irl", "flowpath.irl", "estimate_log_partition", {}),
    ("irl", "flowpath.irl", "plan_rollout", {"steps": lambda a, k, r: len(r[0])}),
    ("irl", "flowpath.irl", "multi_input_init", {}),
    ("checkpoint", "flowpath.checkpoint", "save_checkpoint", {}),
    ("checkpoint", "flowpath.checkpoint", "load_checkpoint",
     {"bytes": lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))}),
    ("pipeline", "flowpath.pipeline", "stage_gen_data", {}),
    ("pipeline", "flowpath.pipeline", "stage_pretrain_flow", {}),
    ("pipeline", "flowpath.pipeline", "stage_train_pairs", {}),
    ("pipeline", "flowpath.pipeline", "stage_train_irl", {}),
    ("pipeline", "flowpath.pipeline", "stage_evaluate", {}),
    ("pipeline", "flowpath.pipeline", "model_from_checkpoint", {}),
    ("pipeline", "flowpath.pipeline", "run_plan", {}),
    ("pipeline", "flowpath.pipeline", "run_synthesize", {}),
    ("world", "flowpath.world", "generate_subject", {}),
    ("world", "flowpath.world", "brute_force_optimal_path", {}),
    ("world", "flowpath.world", "read_sequences", {}),
    ("world", "flowpath.world", "write_sequences", {}),
    ("metrics", "flowpath.metrics", "write_csv", {}),
    ("metrics", "flowpath.metrics", "write_json", {}),
    ("evaluate", "flowpath.evaluate", "evaluate_age_fidelity", {}),
    ("evaluate", "flowpath.evaluate", "path_recovery_report", {}),
    ("evaluate", "flowpath.evaluate", "energy_separation_report", {}),
]

REPEAT_SHARE = "irl.transition_repeat_share"
OVERHEAD = ("tracing.op1_overhead", "tracing.op2_overhead")


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for layer, _, attr, extras in TRACED:
        units[f"{layer}.{attr}.calls"] = "count"
        units[f"{layer}.{attr}.self_s"] = "s"
        for extra in extras:
            units[f"{layer}.{attr}.{extra}"] = "bytes" if extra == "bytes" else "count"
    units[REPEAT_SHARE] = "ratio"
    for name in OVERHEAD:
        units[name] = "ratio"
    return units


class Tracer:
    """Patches the TRACED functions while active; holds spans and counters.

    `clock` times the spans; pass a clock that skips time the benchmark
    itself spends inside an operation.
    """

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # one entry per span, in start order
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self.span_op: list[int] = []
        self.stack: list[int] = []
        self.op = -1
        self.extras: dict[str, float] = {}
        self.transitions: set = set()
        self.repeats = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- operation scoping --------------------------------------------------
    def begin_op(self) -> None:
        """Spans opened from here on belong to a new top-level operation."""
        self.op += 1

    # -- patching -----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for layer, module_name, attr, extras in TRACED:
            module = sys.modules[module_name]
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._patch(owner, leaf, self._wrap(f"{layer}.{attr}", original, extras))
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(f"{layer}.{attr}", original, extras)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "flowpath" and not mod_name.startswith("flowpath."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _wrap(self, name: str, fn, extras: dict):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        counted = [(f"{name}.{extra}", count) for extra, count in extras.items()
                   if count is not None]
        failed_key = f"{name}.failed" if "failed" in extras else None
        is_transition = name == "irl.ModelDynamics.step"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_transition:
                self._note_transition(args[1], args[2])
            index = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1] if self.stack else -1)
            self.span_op.append(self.op)
            self.span_end.append(0.0)
            self.stack.append(index)
            self.span_start.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.span_end[index] = self.clock()
                self.stack.pop()
                if failed_key is not None:
                    self.extras[failed_key] = self.extras.get(failed_key, 0) + 1
                raise
            self.span_end[index] = self.clock()
            self.stack.pop()
            for key, count in counted:
                self.extras[key] = self.extras.get(key, 0) + count(args, kwargs, result)
            return result

        return wrapper

    def _note_transition(self, state, action) -> None:
        key = (state.observation.tobytes(), int(state.age), int(action))
        if key in self.transitions:
            self.repeats += 1
        else:
            self.transitions.add(key)

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """calls, self seconds and extras per traced function, zero if unfired."""
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        child = [0.0] * len(self.span_name)
        for i in range(len(self.span_name) - 1, -1, -1):
            duration = self.span_end[i] - self.span_start[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration
            calls[self.span_name[i]] += 1
            self_s[self.span_name[i]] += duration - child[i]
        out: dict[str, float] = {}
        for name in metric_units():
            if name.endswith(".calls") and name[:-6] in self.name_ids:
                out[name] = calls[self.name_ids[name[:-6]]]
            elif name.endswith(".self_s") and name[:-7] in self.name_ids:
                out[name] = self_s[self.name_ids[name[:-7]]]
            elif name in self.extras:
                out[name] = self.extras[name]
            elif name not in OVERHEAD:
                out[name] = 0
        steps = out["irl.ModelDynamics.step.calls"]
        out[REPEAT_SHARE] = self.repeats / steps if steps else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, operation."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.span_name)):
                fh.write(json.dumps([self.names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i],
                                     self.span_op[i]]) + "\n")
