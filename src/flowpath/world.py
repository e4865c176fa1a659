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
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .irl import AgingTrajectory, Cost, Dynamics, State, enumerate_levels
from .metrics import write_text_atomic

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


@dataclass(eq=False)
class SubjectArchetype:
    """Hidden per-subject aging traits, a deterministic function of the seed."""

    trait: np.ndarray  # [class_id, rate, nonstationary, phase]
    seed: int

    @property
    def class_id(self) -> int:
        return int(self.trait[0])

    @property
    def rate(self) -> float:
        return float(self.trait[1])

    @property
    def nonstationary(self) -> bool:
        return bool(self.trait[2])

    @property
    def phase(self) -> float:
        return float(self.trait[3])


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
    class_id = int(rng.integers(0, N_ARCHETYPE_CLASSES))
    rate = float(rng.uniform(0.6, 1.4))
    nonstat = float(rng.integers(0, 2))
    phase = float(rng.uniform(0.0, 2 * np.pi))
    return SubjectArchetype(np.array([class_id, rate, nonstat, phase]), seed)


def observe(config: WorldConfig, arch: SubjectArchetype, age: int) -> np.ndarray:
    """Noise-free observation at an age; constant in age when the rate is zero."""
    sig, slope, amp, freq, base_phase = _class_bank(arch.class_id, config.dim)
    u = (age - config.age_min) / config.age_span
    wave = amp * np.sin(2 * np.pi * freq * u + base_phase + arch.phase)
    return sig + arch.rate * (slope * u + wave)


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
    """Deterministic ground-truth transitions: the noise-free aging curve.

    States are cached per age (the observation is a pure function of age for
    a fixed archetype) and must be treated as read-only by callers.
    """

    def __init__(self, config: WorldConfig, arch: SubjectArchetype):
        self.config = config
        self.arch = arch
        self.n_actions = config.n_actions
        self._states: dict[int, State] = {}

    def transition(self, obs: np.ndarray, ages: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """The observations at ages + actions; `obs` plays no part."""
        nxt, row = np.unique(ages + actions, return_inverse=True)
        return np.stack([self.state_at(age).observation for age in nxt.tolist()])[row]

    def state_at(self, age: int) -> State:
        if age not in self._states:
            self._states[age] = State(observe(self.config, self.arch, age), age)
        return self._states[age]


def brute_force_optimal_path(dynamics: Dynamics, cost: Cost, start: State, target_age: int,
                             horizon_cap: int, budget: int = 1_000_000
                             ) -> AgingTrajectory:
    """Exhaustive minimum-cost path reaching at least the target age.

    Every path of `enumerate_levels` ends the first time its age reaches the
    target.  Ties break as min over (cost, actions), so a shorter action
    tuple ranks before its extensions.  BudgetError is raised before any
    level would hold more than `budget` rows, and once more than `budget`
    paths complete.
    """
    if target_age < start.age:
        raise ValidationError("target age below the start age")
    n = dynamics.n_actions
    best: tuple[float, tuple[int, ...]] | None = None
    completed, lives = 0, []
    for energies, ages, live in enumerate_levels(dynamics, cost, start, horizon_cap,
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
            f"target {target_age} unreachable from {start.age} in {horizon_cap} steps"
        )
    states = [start]
    for a in best[1]:
        obs = dynamics.transition(states[-1].observation[None, :],
                                  np.array([states[-1].age]), np.array([a]))
        states.append(State(obs[0], states[-1].age + a))
    return AgingTrajectory(states, list(best[1]))


def dp_optimal_path(dynamics: WorldDynamics, cost: Cost, start: State, target_age: int,
                    horizon_cap: int) -> AgingTrajectory:
    """Shortest-path oracle on the (age x steps-left) DAG.

    It generates the demos and scores path recovery; `oracle-check` and the
    tests compare it against `brute_force_optimal_path`.  Valid because the
    world's observation depends only on age.  Values are (cost,
    action-suffix) pairs so the lexicographic tie-break matches the
    brute-force enumeration exactly.  All actions at an age are scored in one
    cost call.
    """
    INF = (math.inf, ())
    n = dynamics.n_actions

    @functools.lru_cache(maxsize=None)
    def value(age: int, steps_left: int) -> tuple[float, tuple[int, ...]]:
        if age >= target_age:
            return (0.0, ())
        if steps_left == 0:
            return INF
        obs = np.broadcast_to(dynamics.state_at(age).observation, (n, dynamics.config.dim))
        costs = cost(obs, np.full(n, age), np.arange(n)).tolist()
        best = INF
        for a in range(n):
            sub = value(age + a, steps_left - 1)
            if math.isinf(sub[0]):
                continue
            cand = (costs[a] + sub[0], (a,) + sub[1])
            if cand < best:
                best = cand
        return best

    total, actions = value(start.age, horizon_cap)
    value.cache_clear()
    if math.isinf(total):
        raise ValidationError(
            f"target {target_age} unreachable from {start.age} in {horizon_cap} steps"
        )
    states = [start]
    for a in actions:
        states.append(dynamics.state_at(states[-1].age + a))
    return AgingTrajectory(states, list(actions))


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
    optimal = dp_optimal_path(dyn, archetype_cost(config, arch), dyn.state_at(start_age),
                              start_age + span, horizon_cap=max_steps)
    states = []
    for s in optimal.states:
        obs = s.observation + config.noise * rng.standard_normal(config.dim)
        states.append(State(obs, s.age))
    return arch, AgingTrajectory(states, list(optimal.actions))


def generate_pool_sequence(config: WorldConfig, seed: int, stride: int = 1
                           ) -> AgingTrajectory:
    """A dense same-subject sequence across the whole age range.

    Used for flow pretraining and for harvesting controller training pairs at
    every step size, analogous to pairing all images of a subject.
    """
    rng = np.random.default_rng(seed ^ 0x5EED)
    arch = make_archetype(config, seed)
    ages = list(range(config.age_min, config.age_max + 1, stride))
    states = [State(observe(config, arch, a)
                    + config.noise * rng.standard_normal(config.dim), a)
              for a in ages]
    actions = [ages[i + 1] - ages[i] for i in range(len(ages) - 1)]
    return AgingTrajectory(states, actions)


# ---------------------------------------------------------------------------
# Sequence file format (line-delimited JSON records)
# ---------------------------------------------------------------------------

def trajectory_record(subject_id: int, traj: AgingTrajectory) -> str:
    return json.dumps({
        "subject_id": subject_id,
        "ages": [s.age for s in traj.states],
        "observations": [[float(v) for v in s.observation] for s in traj.states],
    })


def write_sequences(path, entries: list[tuple[int, AgingTrajectory]]) -> None:
    """Write atomically (temp file + rename), one JSON record per line."""
    lines = [trajectory_record(sid, traj) for sid, traj in entries]
    write_text_atomic(path, "\n".join(lines) + ("\n" if lines else ""))


SEQUENCE_KEYS = ("subject_id", "ages", "observations")


def check_sequence_fields(ages, observations, where: str) -> np.ndarray:
    """(len(ages), dim) observations of a sequence record or input file, checked:
    lists, integer ages, equal counts, equal-length finite 1-d observations."""
    if not isinstance(ages, list) or not isinstance(observations, list):
        raise ValidationError(f"{where}: ages and observations must be lists")
    if not all(type(a) is int for a in ages):
        raise ValidationError(f"{where}: ages must be integers")
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
    sid, ages = rec["subject_id"], rec["ages"]
    if type(sid) is not int:
        raise ValidationError(f"{where}: subject_id and ages must be integers")
    obs = check_sequence_fields(ages, rec["observations"], where)
    actions = [ages[i + 1] - ages[i] for i in range(len(ages) - 1)]
    if any(a < 0 for a in actions):
        raise ValidationError(f"{where}: sequence ages must be non-decreasing")
    return sid, AgingTrajectory([State(o, a) for o, a in zip(obs, ages)], actions)


def read_sequences(path) -> list[tuple[int, AgingTrajectory]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [_parse_record(line, f"{path} line {n}")
                for n, line in enumerate(fh, start=1) if line.strip()]
