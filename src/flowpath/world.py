"""Procedural longitudinal world with known dynamics and ground-truth cost.

Every subject is an archetype drawn deterministically from a seed: an
archetype class (which fixes the subject's preferred step size and the
class-level observation structure), an aging rate, a phase offset, and a
stationarity flag.  Observations are a smooth sinusoid-plus-linear function
of (trait, age), so the class is linearly readable from the observation and
transitions depend on age alone, which is what makes the dynamic-programming
oracle valid.  Everything here is a pure function of (config, seed).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .irl import AgingTrajectory, Cost, Dynamics, enumerate_levels
from .metrics import write_atomic

PREFERRED_STEP_FRACTIONS = (0.2, 0.4, 0.6)  # of the largest action index
N_ARCHETYPE_CLASSES = 3


@dataclass
class WorldConfig:
    dim: int = 16
    age_min: int = 10
    age_max: int = 60
    noise: float = 0.05
    horizon: int = 5  # maximum number of states in a demo sequence
    n_actions: int = 16
    train_subjects: int = 64
    heldout_subjects: int = 16

    def __post_init__(self):
        if self.dim < 2:
            raise ValidationError("observation dim must be >= 2")
        if self.horizon < 2:
            raise ValidationError("horizon must be >= 2")
        if self.age_max <= self.age_min:
            raise ValidationError("age range must be non-empty")
        if self.noise < 0:
            raise ValidationError("noise level must be >= 0")
        if self.n_actions < 2:
            raise ValidationError("need at least 2 actions")
        if self.train_subjects < 1 or self.heldout_subjects < 1:
            raise ValidationError("train_subjects and heldout_subjects must be >= 1")

    @property
    def age_span(self) -> int:
        return self.age_max - self.age_min


@dataclass
class SubjectArchetype:
    """Hidden per-subject aging traits, a deterministic function of the seed."""

    class_id: int
    rate: float
    nonstationary: bool
    phase: float
    seed: int


def preferred_step(class_id: int, n_actions: int) -> int:
    """The archetype class's designated step size, scaled to the action space."""
    frac = PREFERRED_STEP_FRACTIONS[class_id % N_ARCHETYPE_CLASSES]
    return max(1, round(frac * (n_actions - 1)))


@functools.lru_cache(maxsize=None)
def _class_bank(class_id: int, dim: int):
    """Fixed per-class observation structure: signature, slope, amp, freq, phase."""
    sig = np.random.default_rng(1000 + class_id).uniform(-1.5, 1.5, dim)
    slope = np.random.default_rng(2000 + class_id).normal(0.0, 0.8, dim)
    amp = np.random.default_rng(3000 + class_id).uniform(0.2, 0.6, dim)
    freq = np.random.default_rng(4000 + class_id).uniform(0.5, 2.0, dim)
    base_phase = np.random.default_rng(5000 + class_id).uniform(0.0, 2 * np.pi, dim)
    return sig, slope, amp, freq, base_phase


def make_archetype(config: WorldConfig, seed: int) -> SubjectArchetype:
    rng = np.random.default_rng(seed)
    return SubjectArchetype(
        int(rng.integers(0, N_ARCHETYPE_CLASSES)), float(rng.uniform(0.6, 1.4)),
        bool(rng.integers(0, 2)), float(rng.uniform(0.0, 2 * np.pi)), seed)


def observe(config: WorldConfig, arch: SubjectArchetype, age: int | np.ndarray) -> np.ndarray:
    """Noise-free observation, (D,) at an int age or (K, D) at K ages, row k bit
    for bit that at age k; constant in age when the rate is zero."""
    sig, slope, amp, freq, base_phase = _class_bank(arch.class_id, config.dim)
    u = (age - config.age_min) / config.age_span
    wave = amp * np.sin(np.multiply.outer(u, 2 * np.pi * freq) + base_phase + arch.phase)
    return sig + arch.rate * (np.multiply.outer(u, slope) + wave)


def ground_truth_cost(ages, actions, arch: SubjectArchetype, config: WorldConfig) -> np.ndarray:
    """Hidden per-step cost the IRL must recover, elementwise over ages and actions.

    The archetype's preferred step is strictly cheapest at every state with
    a margin of at least 0.5; nonstationary archetypes add a mild age- and
    action-dependent tilt that never moves the argmin.
    """
    actions = np.asarray(actions)
    base = np.abs(actions - preferred_step(arch.class_id, config.n_actions)).astype(np.float64)
    if arch.nonstationary:
        u = (np.asarray(ages) - config.age_min) / config.age_span
        base += 0.1 * u * (1.0 + actions / max(1, config.n_actions - 1))
    return base


def archetype_cost(config: WorldConfig, arch: SubjectArchetype) -> Cost:
    """The archetype's `ground_truth_cost` as a batch cost."""
    return lambda obs, ages, actions: ground_truth_cost(ages, actions, arch, config)


class WorldDynamics:
    """Deterministic ground-truth transitions: the noise-free aging curve."""

    def __init__(self, config: WorldConfig, arch: SubjectArchetype):
        self.config = config
        self.arch = arch
        self.n_actions = config.n_actions

    def transition(self, obs: np.ndarray, ages: np.ndarray, parents: np.ndarray,
                   actions: np.ndarray) -> np.ndarray:
        """The observations at ages[parents] + actions; `obs` plays no part."""
        nxt, row = np.unique(ages[parents] + actions, return_inverse=True)
        return observe(self.config, self.arch, nxt)[row]

    def obs_at(self, age: int | np.ndarray) -> np.ndarray:
        return observe(self.config, self.arch, age)


def brute_force_optimal_path(dynamics: Dynamics, cost: Cost, obs: np.ndarray, age: int,
                             target_age: int, horizon_cap: int, budget: int = 1_000_000
                             ) -> AgingTrajectory:
    """Exhaustive minimum-cost path from (obs, age) reaching at least the target age.

    Every path of `enumerate_levels` ends the first time its age reaches the
    target.  Ties break as min over (cost, actions), so a shorter action
    tuple ranks before its extensions.  BudgetError is raised before any
    level would hold more than `budget` rows, and once more than `budget`
    paths complete.
    """
    if target_age < age:
        raise ValidationError("target age below the start age")
    n = dynamics.n_actions
    best: tuple[float, tuple[int, ...]] | None = None
    completed, lives = 0, []
    for energies, ages, live in enumerate_levels(dynamics, cost, obs, age, horizon_cap,
                                                 target_age, budget):
        done = np.flatnonzero(ages >= target_age)
        completed += done.size
        if completed > budget:
            raise BudgetError(f"enumeration exceeded budget {budget}")
        if done.size:
            # the first minimum of a level has the smallest actions of its length
            row = int(done[np.argmin(energies[done])])
            cand_cost, actions = float(energies[row]), []
            for parents in reversed(lives):
                actions.append(row % n)
                row = int(parents[row // n])
            cand = (cand_cost, tuple(reversed(actions)))
            if best is None or cand < best:
                best = cand
        lives.append(live)
    if best is None:
        raise ValidationError(
            f"target {target_age} unreachable from {age} in {horizon_cap} steps"
        )
    ages = age + np.cumsum((0,) + best[1])
    path = [obs]
    for t, a in enumerate(best[1]):
        path.append(dynamics.transition(path[-1][None, :], ages[t:t + 1], np.arange(1),
                                        np.array([a]))[0])
    return AgingTrajectory(np.stack(path), ages)


def dp_optimal_path(dynamics: WorldDynamics, cost: Cost, start_age: int, target_age: int,
                    horizon_cap: int) -> AgingTrajectory:
    """Shortest-path oracle on the (age x steps-left) DAG, from the world's
    observation at `start_age`; it generates the demos and scores path
    recovery, and raises the ValidationErrors of `brute_force_optimal_path`.

    A Bellman recursion over value[s][age], the least cost of reaching the
    target from `age` in at most s steps, valid because the observation
    depends only on age.  One cost call scores every (age, action) of the
    ages a path can leave with a step to spare, [start, min(target, start +
    (cap-1)(n-1) + 1)); each level is one argmin over cost[age, a] +
    value[s-1][age+a], 0 once age + a reaches the target, +inf past the
    table.  NaN sums count as +inf and infinite values as unreachable.  Sums
    run right to left and argmin takes the first minimum, so ties break as
    min over (cost, actions), as in the brute-force search.
    """
    if target_age < start_age:
        raise ValidationError("target age below the start age")
    n = dynamics.n_actions
    ages = np.arange(start_age, min(target_age, start_age + (horizon_cap - 1) * (n - 1) + 1))
    # value[s - 1] at ages start_age.., n - 1 ages past the table
    value = np.where(np.arange(ages.size + n - 1) + start_age >= target_age, 0.0, np.inf)
    choices = []
    if ages.size:
        table = cost(np.repeat(dynamics.obs_at(ages), n, axis=0), np.repeat(ages, n),
                     np.tile(np.arange(n), ages.size)).reshape(ages.size, n)
        window = np.lib.stride_tricks.sliding_window_view(value, n)  # [i, a]: ages[i] + a
        for _ in range(horizon_cap):
            with np.errstate(invalid="ignore"):  # -inf cost + inf value: NaN, made +inf
                cand = table + window
            cand[np.isnan(cand)] = np.inf
            choices.append(cand.argmin(axis=1))
            best = cand[np.arange(ages.size), choices[-1]]
            value[:ages.size] = np.where(np.isinf(best), np.inf, best)
    if horizon_cap < 0 or np.isinf(value[0]):
        raise ValidationError(
            f"target {target_age} unreachable from {start_age} in {horizon_cap} steps"
        )
    path_ages = [start_age]
    for choice in reversed(choices):  # from (start_age, horizon_cap) down
        if path_ages[-1] < target_age:
            path_ages.append(path_ages[-1] + int(choice[path_ages[-1] - start_age]))
    return AgingTrajectory(dynamics.obs_at(np.array(path_ages)), path_ages)


def generate_subject(config: WorldConfig, seed: int
                     ) -> tuple[SubjectArchetype, AgingTrajectory]:
    """One subject's archetype and its demonstration sequence.

    The demo follows the ground-truth-optimal path (`dp_optimal_path`) from
    a random start age over a span that is a multiple of the archetype's
    preferred step, with observation noise added on top of the noise-free
    curve.  Reproducible from (config, seed).
    """
    rng = np.random.default_rng(seed)
    arch = make_archetype(config, seed)
    step = preferred_step(arch.class_id, config.n_actions)
    max_steps = config.horizon - 1
    lo = min(2, max_steps)
    hi = min(max_steps, max(lo, config.age_span // step))
    n_steps = int(rng.integers(lo, hi + 1))
    span = n_steps * step
    if span > config.age_span:
        raise ValidationError(
            f"age range {config.age_span} too narrow for {n_steps} steps of {step}"
        )
    start_age = int(rng.integers(config.age_min, config.age_max - span + 1))
    dyn = WorldDynamics(config, arch)
    optimal = dp_optimal_path(dyn, archetype_cost(config, arch), start_age,
                              start_age + span, horizon_cap=max_steps)
    noise = config.noise * rng.standard_normal(optimal.observations.shape)
    return arch, AgingTrajectory(optimal.observations + noise, optimal.ages)


def generate_pool_sequence(config: WorldConfig, seed: int, stride: int = 1
                           ) -> AgingTrajectory:
    """A dense same-subject sequence across the whole age range.

    Used for flow pretraining and for harvesting controller training pairs at
    every step size, analogous to pairing all images of a subject.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    arch = make_archetype(config, seed)
    ages = np.arange(config.age_min, config.age_max + 1, stride)
    clean = observe(config, arch, ages)
    return AgingTrajectory(clean + config.noise * rng.standard_normal(clean.shape), ages)


# ---------------------------------------------------------------------------
# Sequence file format (line-delimited JSON records)
# ---------------------------------------------------------------------------

def write_sequences(path, entries: list[tuple[int, AgingTrajectory]]) -> None:
    """Write atomically (temp file + rename), one JSON record per line."""
    lines = [json.dumps({"subject_id": sid, "ages": traj.ages.tolist(),
                         "observations": traj.observations.tolist()})
             for sid, traj in entries]
    write_atomic(path, ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


SEQUENCE_KEYS = ("subject_id", "ages", "observations")


def check_sequence_fields(ages, observations, where: str, source: str) -> np.ndarray:
    """(len(ages), dim) observations of a sequence record or input file, checked:
    lists, integer ages, equal counts, equal-length finite 1-d observations, no
    booleans (sought only when `source`, the parsed JSON text, spells true or false)."""
    if not isinstance(ages, list) or not isinstance(observations, list):
        raise ValidationError(f"{where}: ages and observations must be lists")
    if not all(type(a) is int and -2**63 <= a < 2**63 for a in ages):
        raise ValidationError(f"{where}: ages must be integers that fit in 64 bits")
    if ("true" in source or "false" in source) and any(
            type(v) is bool for row in observations for v in (row if type(row) is list else [row])):
        raise ValidationError(f"{where}: observations must be numbers, not true or false")
    try:
        obs = np.array(observations, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: malformed record ({exc})") from exc
    if len(ages) != len(obs) or not ages:
        raise ValidationError(f"{where}: malformed record (ages and observations "
                              "must be nonempty and of equal count)")
    if obs.ndim != 2:
        raise ValidationError(f"{where}: observations must be equal-length 1-d lists")
    if not np.all(np.isfinite(obs)):
        raise ValidationError(f"{where}: observations must be finite")
    return obs


def _parse_record(line: str, where: str) -> tuple[int, AgingTrajectory]:
    """One sequence record; any defect raises ValidationError naming `where`."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc})") from exc
    if not isinstance(rec, dict) or any(k not in rec for k in SEQUENCE_KEYS):
        raise ValidationError(f"{where}: a record needs the keys {', '.join(SEQUENCE_KEYS)}")
    if unknown := rec.keys() - SEQUENCE_KEYS:
        raise ValidationError(f"{where}: unknown record keys {', '.join(sorted(unknown))}")
    sid, ages = rec["subject_id"], rec["ages"]
    if type(sid) is not int:
        raise ValidationError(f"{where}: subject_id and ages must be integers")
    if not 0 <= sid < 2**63:  # it seeds the subject's archetype
        raise ValidationError(f"{where}: subject_id must be a non-negative integer "
                              f"below 2**63, not {sid}")
    obs = check_sequence_fields(ages, rec["observations"], where, line)
    if any(b < a for a, b in zip(ages, ages[1:])):
        raise ValidationError(f"{where}: sequence ages must be non-decreasing")
    return sid, AgingTrajectory(obs, ages)


def read_sequences(path) -> list[tuple[int, AgingTrajectory]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [_parse_record(line, f"{path} line {n}")
                for n, line in enumerate(fh, start=1) if line.strip()]
