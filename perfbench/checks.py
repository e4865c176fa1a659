"""Output checks and output digests for the benchmark's operations.

Every check returns a list of problems; an empty list means the output is
correct.  Digests cover only the deterministic bytes of an output (the
wall-clock columns and keys are masked), so two runs of one source tree
with one seed must produce the same digests.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

from flowpath.checkpoint import load_checkpoint
from flowpath.metrics import read_csv_without_columns
from flowpath.pipeline import IRL_METRICS_HEADER, model_from_checkpoint, policy_from_checkpoint


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _all_finite(obj) -> bool:
    """True when every number in a nested JSON value is finite."""
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _read_rows(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _reloads(path, with_policy: bool = False) -> list[str]:
    try:
        ckpt = load_checkpoint(path)
        model_from_checkpoint(ckpt)
        if with_policy:
            policy_from_checkpoint(ckpt)
    except Exception as exc:  # any failure to reload is a wrong output
        return [f"{Path(path).name} does not reload: {exc!r}"]
    return []


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def check_pretrain(out: Path) -> list[str]:
    """Each flow's last logged NLL is finite and below its first; flow.ckpt reloads."""
    problems = []
    rows = _read_rows(out / "pretrain_metrics.csv")
    for flow in ("source", "target"):
        nll = [float(r["nll"]) for r in rows if r["flow"] == flow]
        if len(nll) < 2 or not all(map(math.isfinite, nll)):
            problems.append(f"{flow} flow NLL curve missing or non-finite: {nll}")
        elif not nll[-1] < nll[0]:
            problems.append(f"{flow} flow NLL did not fall: {nll[0]} -> {nll[-1]}")
    return problems + _reloads(out / "flow.ckpt")


def check_pairs(out: Path) -> list[str]:
    """Held-out pair NLL is finite and falls; pairs.ckpt reloads."""
    problems = []
    held = [float(r["heldout_nll"]) for r in _read_rows(out / "pair_metrics.csv")]
    if len(held) < 2 or not all(map(math.isfinite, held)):
        problems.append(f"held-out pair NLL missing or non-finite: {held}")
    elif not held[-1] < held[0]:
        problems.append(f"held-out pair NLL did not fall: {held[0]} -> {held[-1]}")
    return problems + _reloads(out / "pairs.ckpt")


# ---------------------------------------------------------------------------
# irl
# ---------------------------------------------------------------------------

def check_irl_metrics(out: Path, iterations: int) -> list[str]:
    """metrics.csv has every iteration, in order, with finite values."""
    rows = _read_rows(out / "metrics.csv")
    problems = []
    if [int(r["iteration"]) for r in rows] != list(range(iterations)):
        problems.append(f"metrics.csv iterations {[r['iteration'] for r in rows]} "
                        f"!= 0..{iterations - 1}")
    for r in rows:
        if list(r) != IRL_METRICS_HEADER:
            problems.append(f"metrics.csv columns {list(r)} != {IRL_METRICS_HEADER}")
            break
        if not all(math.isfinite(float(v)) for v in r.values()):
            problems.append(f"non-finite metrics.csv row {r}")
    return problems + _reloads(out / "model.ckpt", with_policy=True)


def check_evaluation(out: Path, heldout_subjects: int, is_samples: int) -> list[str]:
    """evaluation.json has every report and subject, with finite numbers."""
    report = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))
    problems = []
    if not _all_finite(report):
        problems.append("evaluation.json holds a non-finite number")
    fidelity = report.get("fidelity", {})
    for key in ("mae_train", "mae_real_heldout", "mae_synth_heldout", "gap",
                "normalized_gap", "n_synth_states"):
        if not _finite(fidelity.get(key)):
            problems.append(f"fidelity.{key} missing or non-finite")
    if not _finite(report.get("path_recovery", {}).get("match_rate")):
        problems.append("path_recovery.match_rate missing")
    if len(report.get("subjects", [])) != heldout_subjects:
        problems.append(f"{len(report.get('subjects', []))} subjects != {heldout_subjects}")
    energy = report.get("energy", {})
    for key in ("demo_energy", "uniform_rollout_energy", "margin", "log_partition_estimate"):
        if not _finite(energy.get(key)):
            problems.append(f"energy.{key} missing or non-finite")
    if energy.get("partition_samples") != is_samples:
        problems.append(f"partition_samples {energy.get('partition_samples')} != {is_samples}")
    return problems


# ---------------------------------------------------------------------------
# plan-queries
# ---------------------------------------------------------------------------

def check_plan_response(resp: dict, start_age: int, target: int, n_actions: int) -> list[str]:
    """Ages chain through the actions and end at or just past the target."""
    actions, ages = resp.get("actions"), resp.get("ages")
    if not isinstance(actions, list) or not isinstance(ages, list) or not ages:
        return ["plan response lacks actions or ages"]
    problems = []
    if resp.get("start_age") != start_age or ages[0] != start_age:
        problems.append(f"path starts at {ages[0]}, not the oldest input age {start_age}")
    if resp.get("target_age") != target:
        problems.append(f"target_age {resp.get('target_age')} != {target}")
    if len(ages) != len(actions) + 1:
        problems.append(f"{len(ages)} ages for {len(actions)} actions")
    elif any(ages[i + 1] != ages[i] + a for i, a in enumerate(actions)):
        problems.append("ages do not chain through the actions")
    if any(not (0 <= a < n_actions) for a in actions):
        problems.append("action out of range")
    if not (0 <= ages[-1] - target < n_actions):
        problems.append(f"path ends at {ages[-1]} for target {target}")
    return problems


def check_synth_response(resp: dict, start_age: int, action: int, dim: int) -> list[str]:
    """Two states one action apart, each a finite observation of dimension dim."""
    ages, obs = resp.get("ages"), resp.get("observations")
    if ages != [start_age, start_age + action]:
        return [f"synthesized ages {ages} != {[start_age, start_age + action]}"]
    if not isinstance(obs, list) or len(obs) != len(ages):
        return ["one observation per age is required"]
    if any(len(o) != dim or not all(map(_finite, o)) for o in obs):
        return [f"observations must be finite with dimension {dim}"]
    return []


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def digest_files(out: Path, names: list[str]) -> str:
    """sha256 over named run files, with wall-clock columns and keys masked."""
    h = hashlib.sha256()
    for name in names:
        path = out / name
        if name.endswith(".csv"):
            data = read_csv_without_columns(path, {"wall_seconds"}).encode("utf-8")
        elif name == "summary.json":
            summary = json.loads(path.read_text(encoding="utf-8"))
            summary.pop("total_wall_seconds", None)
            data = json.dumps(summary, sort_keys=True).encode("utf-8")
        else:
            data = path.read_bytes()
        h.update(name.encode("utf-8") + b"\0" + data)
    return h.hexdigest()


def digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def source_digest(roots: list[Path]) -> str:
    """sha256 over every .py file under the given roots (the code being run)."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root.parent)).encode("utf-8") + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


class DigestBook:
    """Digests of one (source tree, workload, seed, size), kept across runs.

    The first digest recorded for a label is the reference; any later
    digest for that label, in this run or a later one, must equal it.  Each
    key has a file of its own, so a run loads only its own digests.
    """

    def __init__(self, directory: Path, key: str):
        directory.mkdir(parents=True, exist_ok=True)
        self.path = directory / f"{key}.json"
        self.entries = (json.loads(self.path.read_text(encoding="utf-8"))
                        if self.path.exists() else {})

    def agrees(self, label: str, digest: str) -> bool:
        return self.entries.setdefault(label, digest) == digest

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.entries, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)
