"""Maximum-entropy IRL over longitudinal aging trajectories.

Trajectories alternate states (observation + integer age) and integer step
actions: action a moves the age by a.  A trajectory's probability is Gibbs
in its summed step cost, the partition function is approximated by
self-normalized importance sampling under the current policy (exact
enumeration is available on small worlds), and the policy is refined
against the learned cost by entropy-regularized policy gradient.
Transitions are deterministic (synthesis with zero noise) and demo start
states are fixed, so proposal densities reduce to products of per-step
action probabilities.

Dynamics and costs take batches only.  A dynamics has `n_actions` and
`transition(obs (K, D), ages (K,), actions (K,)) -> (K, D)`, the next
observations; the next ages are ages + actions.  A cost is a callable
`cost(obs, ages, actions) -> (K,)`, one step cost per row.  `CostNet` is
one, `ModelDynamics` and `FunctionDynamics` are dynamics.

Sampling and scoring work on a `PathBatch`, a struct-of-arrays batch of
padded trajectories.  One lockstep engine rolls all of a call's paths
together.  Transitions are deterministic, so rows that share a start index
and an action prefix share every state along it: the engine keeps a node id
per row, runs one policy forward pass per time step over the distinct live
nodes, picks each row's action with one uniform from a single matrix the
call draws up front (row i, step t), and synthesizes each distinct child
(node, action) once.  Actions therefore do not depend on how rows share
nodes or how work is chunked; observations do only up to float rounding,
because batched matrix products may round differently.  Energies, proposal
densities and the cost gradient are each one net pass over all (row, step)
pairs.  Greedy planning also fills a `PathBatch` in lockstep, and exact
enumeration expands every action sequence level by level
(`enumerate_levels`).  Cost and policy parameter updates require exclusive
access.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import (
    BudgetError,
    DegenerateWeightsError,
    ShapeError,
    ValidationError,
)
from .nets import Adam, DenseNet, dense_net, net_backward, net_forward
from .transform import DEFAULT_NUM_ACTIONS, AgingModel, synthesize_step, transform_apply
from .flows import flow_forward, flow_inverse

ENUMERATION_BUDGET = 1_000_000
# Most rows one sampling call passes to one transition or one scoring pass.
# All of a call's rows step together and read their uniforms from one matrix
# drawn up front, so the cap changes speed and memory only, never the actions.
ROLL_BLOCK = 256


@dataclass(eq=False)
class State:
    """Observation vector plus its integer age label."""

    observation: np.ndarray
    age: int

    def __post_init__(self):
        self.observation = np.asarray(self.observation, dtype=np.float64)
        self.age = int(self.age)


@dataclass(eq=False)
class AgingTrajectory:
    """Alternating states and actions for one subject; ages must add up."""

    states: list[State]
    actions: list[int]

    def __post_init__(self):
        self.actions = [int(a) for a in self.actions]

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def validate(self, n_actions: int | None = None) -> None:
        if len(self.states) < 1 or len(self.states) != len(self.actions) + 1:
            raise ValidationError(
                f"trajectory needs T states and T-1 actions, got "
                f"{len(self.states)} states / {len(self.actions)} actions"
            )
        for t, a in enumerate(self.actions):
            if a < 0 or (n_actions is not None and a >= n_actions):
                raise ValidationError(f"action {a} at step {t} out of range")
            expect = self.states[t].age + a
            if self.states[t + 1].age != expect:
                raise ValidationError(
                    f"age bookkeeping violated at step {t}: "
                    f"{self.states[t + 1].age} != {self.states[t].age} + {a}"
                )


@dataclass(eq=False)
class PathBatch:
    """M trajectories as padded arrays; row i takes lengths[i] actions.

    observations (M, T+1, D), ages (M, T+1) and actions (M, T) hold zeros
    past a row's length.  log_q is each row's log proposal density under
    the policy that rolled it (zero for batches built from data).
    """

    observations: np.ndarray
    ages: np.ndarray
    actions: np.ndarray
    lengths: np.ndarray
    log_q: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, step) indices of every action taken, row by row."""
        return np.nonzero(np.arange(self.actions.shape[1]) < self.lengths[:, None])

    def take(self, rows: np.ndarray) -> "PathBatch":
        return PathBatch(self.observations[rows], self.ages[rows], self.actions[rows],
                         self.lengths[rows], self.log_q[rows])

    def trajectories(self) -> list[AgingTrajectory]:
        return [AgingTrajectory([State(self.observations[i, t], self.ages[i, t])
                                 for t in range(n + 1)], self.actions[i, :n].tolist())
                for i, n in enumerate(self.lengths.tolist())]

    @classmethod
    def from_trajectories(cls, trajs: Sequence[AgingTrajectory],
                          n_actions: int | None = None) -> "PathBatch":
        if not trajs:
            raise ValidationError("need at least one trajectory")
        for traj in trajs:
            traj.validate(n_actions)
        width = max(traj.horizon for traj in trajs)
        dim = trajs[0].states[0].observation.size
        obs = np.zeros((len(trajs), width + 1, dim))
        ages = np.zeros((len(trajs), width + 1), dtype=np.int64)
        actions = np.zeros((len(trajs), width), dtype=np.int64)
        for i, traj in enumerate(trajs):
            n = traj.horizon
            obs[i, :n + 1] = [s.observation for s in traj.states]
            ages[i, :n + 1] = [s.age for s in traj.states]
            actions[i, :n] = traj.actions
        lengths = np.array([traj.horizon for traj in trajs], dtype=np.int64)
        return cls(obs, ages, actions, lengths, np.zeros(len(trajs)))

    @classmethod
    def concat(cls, batches: Sequence["PathBatch"]) -> "PathBatch":
        """Rows of every batch in order, padded to the widest."""
        width = max(b.actions.shape[1] for b in batches)

        def joined(name: str) -> np.ndarray:
            parts = [getattr(b, name) for b in batches]
            if name in ("observations", "ages", "actions"):
                parts = [np.pad(a, [(0, 0), (0, width - b.actions.shape[1])]
                                + [(0, 0)] * (a.ndim - 2)) for a, b in zip(parts, batches)]
            return np.concatenate(parts)

        return cls(*(joined(f.name) for f in dataclasses.fields(cls)))


class Dynamics(Protocol):
    """Deterministic transitions: the observations of K rows after each takes its action."""

    n_actions: int

    def transition(self, obs: np.ndarray, ages: np.ndarray, actions: np.ndarray
                   ) -> np.ndarray: ...


Cost = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class ModelDynamics:
    """Transitions via the synthesis model with zero injected noise."""

    def __init__(self, model: AgingModel):
        self.model = model
        self.n_actions = model.n_actions

    def transition(self, obs: np.ndarray, ages: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return synthesize_step(self.model, obs, actions)

    # Unused: kept because perfbench/tracer.py patches it by name; ROADMAP item 1 deletes it.
    def step(self, state: State, action: int) -> State:
        obs = synthesize_step(self.model, state.observation, action)
        return State(obs, state.age + action)


class FunctionDynamics:
    """Dynamics from a plain batch (obs, ages, actions) -> next observations callable."""

    def __init__(self, n_actions: int, fn: Callable[..., np.ndarray]):
        self.n_actions = n_actions
        self.transition = fn


class _AgeNet:
    """A dense net over rows of observation ⊕ age, the age mapped from
    [age_low, age_high] onto [0, 1]."""

    def __init__(self, net: DenseNet, n_actions: int, age_low: float, age_high: float):
        if age_high <= age_low:
            raise ValidationError("age_high must exceed age_low")
        self.net = net
        self.n_actions = n_actions
        self.age_low = float(age_low)
        self.age_high = float(age_high)

    def _inputs(self, obs: np.ndarray, ages: np.ndarray, *extra: np.ndarray) -> np.ndarray:
        """Net input rows of (K, D) observations and (K,) ages, then any extra columns."""
        unit = (ages - self.age_low) / (self.age_high - self.age_low)
        return np.concatenate([obs, unit[:, None], *extra], axis=1)

    def parameters(self, prefix: str = "") -> list[tuple[str, np.ndarray]]:
        return self.net.parameters(prefix)


class CostNet(_AgeNet):
    """Per-step cost c(s, a): dense net on (observation ⊕ age ⊕ action one-hot)."""

    def __init__(self, net: DenseNet, n_actions: int, age_low: float, age_high: float):
        super().__init__(net, n_actions, age_low, age_high)
        if net.in_dim - 1 - n_actions < 1 or net.out_dim != 1:
            raise ShapeError("cost net must map (obs ⊕ age ⊕ one-hot action) to a scalar")

    def __call__(self, obs: np.ndarray, ages: np.ndarray, actions: np.ndarray) -> np.ndarray:
        return net_forward(self.net, _cost_inputs(self, obs, ages, actions))[:, 0]


class PolicyNet(_AgeNet):
    """Step-size policy q(a | s): dense net to logits, softmax on top."""

    def __init__(self, net: DenseNet, n_actions: int, age_low: float, age_high: float):
        if net.out_dim != n_actions:
            raise ShapeError("policy net must emit one logit per action")
        if net.layers[-1].activation != "identity":
            raise ValueError("policy net must emit raw logits")
        super().__init__(net, n_actions, age_low, age_high)


def _cost_inputs(cost: CostNet, obs: np.ndarray, ages: np.ndarray, actions: np.ndarray
                 ) -> np.ndarray:
    """Net input rows of a cost: observation ⊕ age ⊕ action one-hot."""
    onehot = np.zeros((actions.size, cost.n_actions))
    onehot[np.arange(actions.size), actions] = 1.0
    return cost._inputs(obs, ages, onehot)


def _action_distribution(policy: PolicyNet, feats: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise action probabilities and log-probabilities from one forward pass."""
    logits = net_forward(policy.net, feats)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    return e / total, shifted - np.log(total)


def make_cost_net(rng: np.random.Generator, dim: int,
                  n_actions: int = DEFAULT_NUM_ACTIONS, age_low: float = 10.0,
                  age_high: float = 60.0, hidden: int = 32) -> CostNet:
    """2 hidden ReLU layers of `hidden` units, identity scalar output."""
    net = dense_net(rng, (dim + 1 + n_actions, hidden, hidden, 1))
    return CostNet(net, n_actions, age_low, age_high)


def make_policy_net(rng: np.random.Generator, dim: int,
                    n_actions: int = DEFAULT_NUM_ACTIONS, age_low: float = 10.0,
                    age_high: float = 60.0, hidden: int = 32,
                    uniform_init: bool = True) -> PolicyNet:
    """Policy with a zeroed final layer by default, i.e. an exactly uniform start."""
    net = dense_net(rng, (dim + 1, hidden, hidden, n_actions), zero_final=uniform_init)
    return PolicyNet(net, n_actions, age_low, age_high)


# ---------------------------------------------------------------------------
# Energies and trajectory distributions
# ---------------------------------------------------------------------------

def path_energies(cost: Cost, batch: PathBatch) -> np.ndarray:
    """Per-row summed step cost, from one cost call over every (row, step) pair."""
    rows, steps = batch.pairs()
    values = cost(batch.observations[rows, steps], batch.ages[rows, steps],
                  batch.actions[rows, steps])
    return np.bincount(rows, weights=values, minlength=len(batch))


def path_log_proposals(policy: PolicyNet, batch: PathBatch) -> np.ndarray:
    """Per-row log q: summed action log-probabilities, one forward pass."""
    rows, steps = batch.pairs()
    _, log_probs = _action_distribution(
        policy, policy._inputs(batch.observations[rows, steps], batch.ages[rows, steps]))
    chosen = log_probs[np.arange(rows.size), batch.actions[rows, steps]]
    return np.bincount(rows, weights=chosen, minlength=len(batch))


def sequence_energy(traj: AgingTrajectory, cost: Cost) -> float:
    """Sum of per-step costs over the trajectory's (state, action) pairs."""
    return float(path_energies(cost, PathBatch.from_trajectories([traj]))[0])


def enumerate_levels(dynamics: Dynamics, cost: Cost, start: State, depth: int,
                     stop_age: float = math.inf, budget: int = ENUMERATION_BUDGET):
    """Every action sequence of at most `depth` steps from `start`, level by level.

    Yields (energies, ages, live) for levels 0..depth.  Level 0 is `start`
    alone; row j of level d+1 extends row live[j // n] of level d by action
    j % n, so every level lists its sequences in lexicographic order, and
    when nothing stops early row j's actions are the base-n digits of j
    (first action most significant).  A row is live, and extended, while
    d < depth and its age is below `stop_age`.  Energies sum the step costs
    left to right.  A level makes one batched cost call over its rows and one
    batched transition over its live rows.  BudgetError is raised before any
    level would hold more than `budget` rows.
    """
    n = dynamics.n_actions
    obs, ages, energies = start.observation[None, :], np.array([start.age]), np.zeros(1)
    for d in range(depth + 1):
        live = np.flatnonzero(ages < stop_age) if d < depth else np.zeros(0, dtype=np.int64)
        yield energies, ages, live
        if live.size * n > budget:
            raise BudgetError(f"level {d + 1} of the enumeration would hold "
                              f"{live.size * n} paths, over the budget {budget}")
        if not live.size:
            return
        if d:
            obs = dynamics.transition(parent_obs[live], parent_ages[live], actions[live])
        parent_obs, parent_ages = np.repeat(obs, n, axis=0), np.repeat(ages[live], n)
        actions = np.tile(np.arange(n), live.size)
        energies = np.repeat(energies[live], n) + cost(parent_obs, parent_ages, actions)
        ages = parent_ages + actions


def enumerate_energies(start: State, horizon: int, cost: Cost, dynamics: Dynamics,
                       budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """Energies of every action sequence of the given length from `start`.

    Entry i corresponds to the base-n_actions digits of i (most significant
    action first): the last level of `enumerate_levels`.  Deterministic
    transitions make this a full enumeration of the trajectory space.
    """
    return list(enumerate_levels(dynamics, cost, start, horizon, budget=budget))[-1][0]


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    if not np.isfinite(m):
        return m
    return m + math.log(float(np.exp(v - m).sum()))


def exact_sequence_prob(traj: AgingTrajectory, cost: Cost, dynamics: Dynamics,
                        budget: int = ENUMERATION_BUDGET) -> float:
    """Exact Gibbs probability of the trajectory's action sequence.

    exp(-E) normalized over the full enumeration of action sequences with the
    same start state and horizon, under the deterministic transition model.
    """
    traj.validate(dynamics.n_actions)
    horizon = traj.horizon
    energies = enumerate_energies(traj.states[0], horizon, cost, dynamics, budget)
    log_z = _logsumexp(-energies)
    index = 0
    for a in traj.actions:
        index = index * dynamics.n_actions + a
    return float(np.exp(-energies[index] - log_z))


def traj_log_proposal_density(traj: AgingTrajectory, policy: PolicyNet) -> float:
    """log q(traj) = sum of per-step action log-probabilities.

    Transition and initial-state factors are point masses under deterministic
    synthesis and fixed start states, so only the policy terms remain.
    """
    batch = PathBatch.from_trajectories([traj], policy.n_actions)
    return float(path_log_proposals(policy, batch)[0])


# ---------------------------------------------------------------------------
# Sampling: the lockstep engine
# ---------------------------------------------------------------------------

def _expand(dynamics: Dynamics, obs: np.ndarray, ages: np.ndarray, parents: np.ndarray,
            actions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Children of (parent node, action) pairs, one transition per distinct child.

    Returns the children's observations and ages and each pair's child index.
    """
    _, first, child = np.unique(parents * dynamics.n_actions + actions,
                                return_index=True, return_inverse=True)
    src, act = parents[first], actions[first]
    chunks = [slice(lo, lo + ROLL_BLOCK) for lo in range(0, first.size, ROLL_BLOCK)]
    nxt = np.concatenate([dynamics.transition(obs[src[c]], ages[src[c]], act[c])
                          for c in chunks])
    return nxt, ages[src] + act, child


def _roll(policy: PolicyNet, dynamics: Dynamics, node_obs: np.ndarray,
          node_ages: np.ndarray, node: np.ndarray, lengths: np.ndarray,
          uniforms: np.ndarray) -> PathBatch:
    """Roll len(lengths) paths in lockstep; row i starts at node node[i] of
    (node_obs, node_ages), which `node` then tracks in place, and
    uniforms[i, t] picks its action t.

    The action is drawn by the CDF search `Generator.choice(n, p=p)` uses, so
    a row's actions equal those of `rng.choice` on the same uniforms.
    """
    m, width = lengths.size, int(lengths.max())
    obs = np.zeros((m, width + 1, node_obs.shape[1]))
    ages = np.zeros((m, width + 1), dtype=np.int64)
    actions = np.zeros((m, width), dtype=np.int64)
    log_q = np.zeros(m)
    obs[:, 0], ages[:, 0] = node_obs[node], node_ages[node]
    for t in range(width):
        live = np.flatnonzero(lengths > t)
        needed, at = np.unique(node[live], return_inverse=True)
        probs, log_probs = _action_distribution(
            policy, policy._inputs(node_obs[needed], node_ages[needed]))
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        chosen = (cdf[at] <= uniforms[live, t][:, None]).sum(axis=1)
        actions[live, t] = chosen
        log_q[live] += log_probs[at, chosen]
        # the node table now holds this level's children
        node_obs, node_ages, node[live] = _expand(dynamics, node_obs, node_ages,
                                                  node[live], chosen)
        obs[live, t + 1], ages[live, t + 1] = node_obs[node[live]], node_ages[node[live]]
    return PathBatch(obs, ages, actions, lengths, log_q)


def rollout(policy: PolicyNet, dynamics: Dynamics, start: State, horizon: int,
            rng: np.random.Generator) -> AgingTrajectory:
    """Roll one trajectory by stochastically sampling actions from the policy."""
    batch = _roll(policy, dynamics, start.observation[None, :], np.array([start.age]),
                  np.zeros(1, dtype=np.int64), np.array([horizon], dtype=np.int64),
                  rng.random((1, horizon)))
    return batch.trajectories()[0]


def sample_path_batch(policy: PolicyNet, dynamics: Dynamics,
                      starts: Sequence[State], horizon: int | Sequence[int],
                      m: int | None = None, seed: int | np.random.SeedSequence = 0
                      ) -> PathBatch:
    """Sample m trajectories, cycling over start states, in one lockstep pass.

    One (m, widest horizon) uniform matrix drawn from `seed` picks the actions,
    path i reading row i, so they are bit-reproducible and do not depend on
    how rows share nodes or how work is chunked.
    """
    if not starts:
        raise ValidationError("need at least one start state")
    count = m if m is not None else len(starts)
    if count < 1:
        raise ValidationError("m must be >= 1")
    horizons = np.array([int(horizon)] * len(starts) if np.isscalar(horizon)
                        else [int(h) for h in horizon], dtype=np.int64)
    if len(horizons) != len(starts):
        raise ShapeError("one horizon per start state is required")
    if horizons.min() < 1:
        raise ValidationError("horizon must be >= 1")
    which = np.arange(count) % len(starts)
    lengths = horizons[which]
    uniforms = np.random.default_rng(seed).random((count, int(lengths.max())))
    return _roll(policy, dynamics, np.stack([s.observation for s in starts]),
                 np.array([s.age for s in starts], dtype=np.int64), which, lengths, uniforms)


def sample_trajectories(policy: PolicyNet, dynamics: Dynamics,
                        starts: Sequence[State], horizon: int | Sequence[int],
                        m: int | None = None, seed: int = 0) -> list[AgingTrajectory]:
    """`sample_path_batch` as a list of trajectories."""
    return sample_path_batch(policy, dynamics, starts, horizon, m, seed).trajectories()


# ---------------------------------------------------------------------------
# The importance-sampled cost objective
# ---------------------------------------------------------------------------

def irl_loss_and_grad(cost: CostNet, demos: PathBatch, samples: PathBatch
                      ) -> tuple[float, list[np.ndarray]]:
    """Importance-sampled trajectory log-likelihood and its exact gradient.

    L = -mean(E over demos) - [logsumexp(-E_j - log q_j) - log N] over samples,
    with log q_j read from `samples.log_q`.  The gradient is -mean(dE/dΓ over
    demos) plus the self-normalized weighted mean of dE/dΓ over samples,
    weights w_j ∝ exp(-E_j)/q_j.  Both are one forward and one backward pass
    over every (row, step) pair, with upstream -1/|demos| on demo rows and
    w_j on sample rows.
    """
    if len(demos) == 0 or len(samples) == 0:
        raise ValidationError("demo and sample batches must be non-empty")
    demo_rows, demo_steps = demos.pairs()
    sample_rows, sample_steps = samples.pairs()
    feats = np.concatenate([
        _cost_inputs(cost, b.observations[r, t], b.ages[r, t], b.actions[r, t])
        for b, r, t in ((demos, demo_rows, demo_steps), (samples, sample_rows, sample_steps))])
    values = net_forward(cost.net, feats)[:, 0]
    split = demo_rows.size
    demo_e = np.bincount(demo_rows, weights=values[:split], minlength=len(demos))
    sample_e = np.bincount(sample_rows, weights=values[split:], minlength=len(samples))

    log_w = -sample_e - samples.log_q
    if np.any(np.isposinf(log_w)) or np.any(np.isnan(log_w)):
        raise DegenerateWeightsError("a sample has zero or invalid proposal density")
    if not np.any(np.isfinite(log_w)):
        raise DegenerateWeightsError("all importance weights are zero or non-finite")
    log_norm = _logsumexp(log_w)
    loss = float(-demo_e.mean() - (log_norm - math.log(len(samples))))
    weights = np.exp(log_w - log_norm)

    upstream = np.concatenate([np.full(split, -1.0 / len(demos)), weights[sample_rows]])
    grads, _ = net_backward(cost.net, feats, upstream[:, None])
    return loss, grads


def partition_log_weights(cost: Cost, policy: PolicyNet, dynamics: Dynamics, start: State,
                          horizon: int, n: int, seed: int = 0) -> np.ndarray:
    """Log importance weights of `n` policy rollouts from `start`, rolled together."""
    return path_log_weights(cost, sample_path_batch(policy, dynamics, [start], horizon, n, seed))


def path_log_weights(cost: Cost, paths: PathBatch) -> np.ndarray:
    """Log importance weights -E - log q of sampled paths, scored ROLL_BLOCK rows at a time."""
    blocks = [paths.take(slice(lo, lo + ROLL_BLOCK)) for lo in range(0, len(paths), ROLL_BLOCK)]
    return np.concatenate([-path_energies(cost, b) - b.log_q for b in blocks])


def estimate_log_partition(cost: Cost, policy: PolicyNet, dynamics: Dynamics, start: State,
                           horizon: int, n: int, seed: int = 0) -> float:
    """Importance-sampling estimate of log Z from `n` policy rollouts."""
    return log_mean_exp(partition_log_weights(cost, policy, dynamics, start, horizon,
                                              n, seed))


def log_mean_exp(log_w: np.ndarray) -> float:
    """log of the mean importance weight: the log-partition estimate."""
    return _logsumexp(log_w) - math.log(len(log_w))


def weight_diagnostics(log_w: np.ndarray) -> tuple[float, float]:
    """Kish effective sample size (Σw)²/Σw² and the largest normalized weight.

    The ESS is n for equal weights and near 1 when one path dominates, where
    self-normalized importance sampling degrades without warning.
    """
    w = np.exp(log_w - np.max(log_w))
    total = float(w.sum())
    return total * total / float((w * w).sum()), float(w.max()) / total


# ---------------------------------------------------------------------------
# Policy refinement
# ---------------------------------------------------------------------------

def policy_update(policy: PolicyNet, cost: Cost, dynamics: Dynamics,
                  starts: Sequence[State], horizons: Sequence[int],
                  optimizer: Adam, n_rollouts: int, n_steps: int,
                  seed: int = 0) -> float:
    """Entropy-regularized policy-gradient refinement against a fixed cost.

    Minimizes E_q[E(ζ)] - H(q) with a score-function estimator: per rollout
    the return is energy plus trajectory log-probability (the log q the
    rollout accumulated), and the batch-mean return is subtracted as the
    baseline.  Returns the mean policy entropy over the last batch's states.
    """
    streams = np.random.SeedSequence(seed).spawn(n_steps)
    # states the entropy is reported on: the last batch's, or the starts
    visited = (np.stack([s.observation for s in starts]),
               np.array([s.age for s in starts], dtype=np.int64))
    for step in range(n_steps):
        batch = sample_path_batch(policy, dynamics, list(starts), list(horizons),
                                  m=n_rollouts, seed=streams[step])
        returns = path_energies(cost, batch) + batch.log_q
        adv = returns - returns.mean()
        rows, steps = batch.pairs()
        visited = (batch.observations[rows, steps], batch.ages[rows, steps])
        feats = policy._inputs(*visited)
        probs, _ = _action_distribution(policy, feats)
        coeffs = adv[rows] / n_rollouts
        upstream = -probs * coeffs[:, None]
        upstream[np.arange(rows.size), batch.actions[rows, steps]] += coeffs
        grads, _ = net_backward(policy.net, feats, upstream)
        optimizer.step(grads)
    pmat, _ = _action_distribution(policy, policy._inputs(*visited))
    return float(-(pmat * np.log(np.maximum(pmat, 1e-300))).sum(axis=1).mean())


# ---------------------------------------------------------------------------
# The alternating cost / policy learning loop
# ---------------------------------------------------------------------------

@dataclass
class IterationMetrics:
    iteration: int
    demo_energy: float
    sample_energy: float
    loglik_estimate: float
    policy_entropy: float
    wall_seconds: float


def learn_aging_policy(demos: Sequence[AgingTrajectory], cost: CostNet,
                       policy: PolicyNet, dynamics: Dynamics, *,
                       outer_iters: int, inner_iters: int,
                       sample_paths: int, demo_batch: int, sample_batch: int,
                       policy_rollouts: int, policy_steps: int,
                       cost_optimizer: Adam, policy_optimizer: Adam,
                       rng: np.random.Generator,
                       start_iteration: int = 0,
                       on_iteration: Callable[[int, IterationMetrics], None] | None = None,
                       ) -> list[IterationMetrics]:
    """Alternate cost fitting and policy refinement over demo sequences.

    Every outer iteration samples fresh paths from the current policy through
    the synthesis transitions, runs `inner_iters` gradient ascent steps on
    the importance-sampled log-likelihood over mixed demo/sample batches
    (demo members get their proposal density under the current policy), then
    refines the policy against the updated cost.  The policy is frozen
    during the inner steps, so every row's log q is computed once per outer
    iteration.  All randomness is drawn from `rng`, so checkpointing its
    state at an iteration boundary makes the run resumable and
    bit-reproducible.
    """
    if not demos:
        raise ValidationError("need at least one demonstration")
    demo_paths = PathBatch.from_trajectories(list(demos), cost.n_actions)
    starts = [d.states[0] for d in demos]
    horizons = [max(1, d.horizon) for d in demos]
    history: list[IterationMetrics] = []

    for k in range(start_iteration, outer_iters):
        t0 = time.perf_counter()
        try:
            path_seed = int(rng.integers(0, 2**63 - 1))
            samples = sample_path_batch(policy, dynamics, starts, horizons,
                                        m=sample_paths, seed=path_seed)
            demo_paths = dataclasses.replace(
                demo_paths, log_q=path_log_proposals(policy, demo_paths))
            pool = PathBatch.concat([demo_paths, samples])
            loglik_sum = 0.0
            for _ in range(inner_iters):
                d_idx = rng.choice(len(demos), size=min(demo_batch, len(demos)),
                                   replace=False)
                s_idx = rng.choice(len(samples), size=min(sample_batch, len(samples)),
                                   replace=False)
                mixed = pool.take(np.concatenate([d_idx, len(demos) + s_idx]))
                loss, grads = irl_loss_and_grad(cost, pool.take(d_idx), mixed)
                loglik_sum += loss
                cost_optimizer.step([-g for g in grads])
            pol_seed = int(rng.integers(0, 2**63 - 1))
            entropy = policy_update(policy, cost, dynamics, starts, horizons,
                                    policy_optimizer, policy_rollouts, policy_steps,
                                    seed=pol_seed)
        except Exception as exc:
            raise IrlIterationError(k, exc) from exc
        metrics = IterationMetrics(
            iteration=k,
            demo_energy=float(np.mean(path_energies(cost, demo_paths))),
            sample_energy=float(np.mean(path_energies(cost, samples))),
            loglik_estimate=loglik_sum / max(1, inner_iters),
            policy_entropy=entropy,
            wall_seconds=time.perf_counter() - t0,
        )
        history.append(metrics)
        if on_iteration is not None:
            on_iteration(k, metrics)
    return history


class IrlIterationError(RuntimeError):
    """Wraps a failure inside the learning loop with its iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        super().__init__(f"learning aborted at outer iteration {iteration}: {cause}")
        self.iteration = iteration
        self.cause = cause


# ---------------------------------------------------------------------------
# Planning and multi-input initialization
# ---------------------------------------------------------------------------

def plan_path_batch(policy: PolicyNet, dynamics: Dynamics, starts: Sequence[State],
                    targets: Sequence[int]) -> PathBatch:
    """Greedy argmax paths from every start until its age reaches its target.

    Rows step in lockstep: one policy pass and one batched transition per
    step.  A row takes its most probable action (ties to the smaller index)
    with the same-age action 0 masked, so it overshoots by less than the
    action count.  The choice depends on the state alone, so the path to a
    target runs through the state each earlier target reaches.
    """
    if not starts:
        raise ValidationError("need at least one start state")
    targets = np.array([int(t) for t in targets], dtype=np.int64)
    if targets.size != len(starts):
        raise ShapeError("one target age per start state is required")
    start_ages = np.array([s.age for s in starts], dtype=np.int64)
    if np.any(targets < start_ages):
        raise ValidationError("target age below start age (de-aging unsupported)")
    m = len(starts)
    # every planned action is at least 1: it bounds the steps and counts a row's length
    width = int((targets - start_ages).max())
    obs = np.zeros((m, width + 1, starts[0].observation.size))
    ages = np.zeros((m, width + 1), dtype=np.int64)
    actions = np.zeros((m, width), dtype=np.int64)
    obs[:, 0] = np.stack([s.observation for s in starts])
    ages[:, 0] = start_ages
    live = np.flatnonzero(start_ages < targets)
    x, age, t = obs[live, 0], start_ages[live], 0
    while live.size:
        rows = slice(None) if live.size == m else live  # basic indexing while all are live
        probs, _ = _action_distribution(policy, policy._inputs(x, age))
        chosen = probs[:, 1:].argmax(axis=1) + 1
        x, age = dynamics.transition(x, age, chosen), age + chosen
        t += 1
        actions[rows, t - 1], obs[rows, t], ages[rows, t] = chosen, x, age
        ahead = age < targets[rows]
        if not ahead.all():
            live, x, age = live[ahead], x[ahead], age[ahead]
    return PathBatch(obs[:, :t + 1], ages[:, :t + 1], actions[:, :t],
                     np.count_nonzero(actions[:, :t], axis=1), np.zeros(m))


def plan_rollout(policy: PolicyNet, dynamics: Dynamics, start: State,
                 target_age: int) -> tuple[list[int], list[State]]:
    """`plan_path_batch` for one start: the greedy actions and visited states."""
    path = plan_path_batch(policy, dynamics, [start], [target_age]).trajectories()[0]
    return path.actions, path.states


def split_age_gap(gap: int, max_step: int) -> list[int]:
    """Split an age difference into steps of at most `max_step`, largest first."""
    if gap < 0:
        raise ValidationError("inputs must be ordered by age")
    if gap == 0:
        return [0]
    steps = []
    while gap > 0:
        take = min(gap, max_step)
        steps.append(take)
        gap -= take
    return steps


def multi_input_init(inputs: Sequence[tuple[np.ndarray, int]], model: AgingModel
                     ) -> State:
    """Fold several observations of one subject into a single start state.

    Inputs are sorted by age; consecutive inputs are bridged by controller
    steps equal to their age difference (split when it exceeds the largest
    action).  The latent memory alternates transform predictions with the
    next real observation's encoding folded in additively, and the returned
    state decodes the memory at the oldest input's age.  A single input
    reduces exactly to encoding and decoding that observation.
    """
    if len(inputs) < 1:
        raise ValidationError("need at least one input")
    order = sorted(range(len(inputs)), key=lambda i: (int(inputs[i][1]), i))
    max_step = model.n_actions - 1
    obs0, age0 = inputs[order[0]]
    z, _ = flow_forward(model.target_flow, np.asarray(obs0, dtype=np.float64))
    age = int(age0)
    for i in order[1:]:
        obs_next, age_next = inputs[i]
        steps = split_age_gap(int(age_next) - age, max_step)
        for j, step in enumerate(steps):
            x_cur = flow_inverse(model.target_flow, z)
            z_src, _ = flow_forward(model.source_flow, x_cur)
            pred = transform_apply(model.transform, z_src, step)
            if j == len(steps) - 1:
                z_real, _ = flow_forward(model.target_flow,
                                         np.asarray(obs_next, dtype=np.float64))
                z = pred + z_real
            else:
                z = pred
        age = int(age_next)
    return State(flow_inverse(model.target_flow, z), age)
