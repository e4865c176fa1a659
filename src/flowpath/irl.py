"""Maximum-entropy IRL over longitudinal aging trajectories.

A subject's trajectory is observations at integer ages, whose gaps are its
actions, so action a moves the age by a.  Sequence files and the world's
oracles hand one trajectory over as an `AgingTrajectory`; everything that
learns, samples, scores or plans reads a `PathBatch` of them.  A start is
arrays: one start is an observation (D,) and its age, many are observations
(M, D) with ages (M,), and a batch's starts are its first column.  A
trajectory's probability is Gibbs in its summed step cost, the partition
function is approximated by self-normalized importance sampling under the
current policy (exact enumeration is available on small worlds), and the
policy is refined against the learned cost by entropy-regularized policy
gradient.  Transitions are deterministic (synthesis with zero noise) and demo
start states are fixed, so proposal densities reduce to products of per-step
action probabilities.

Dynamics and costs take batches only.  A dynamics has `n_actions` and
`transition(obs (P, D), ages (P,), parents (K,), actions (K,)) -> (K, D)`:
child k leaves state parents[k] by actions[k], to age ages[parents] + actions.
A cost is a callable `cost(obs, ages, actions) -> (K,)`, one step cost per
row.  `CostNet` is one, `ModelDynamics` and `FunctionDynamics` are dynamics.

Sampling and scoring work on a `PathBatch`, a struct-of-arrays batch of padded
trajectories.  One lockstep engine rolls all of a call's paths together.
Transitions are deterministic, so rows that share a start index and an action
prefix share every state along it: the engine keeps a node id per row, runs
one policy forward pass per time step over the distinct live nodes, picks each
row's action with one uniform from a single matrix the call draws up front
(row i, step t), and synthesizes each distinct child (node, action) some row
acts from once, encoding its parent once.  Actions therefore do not depend on
how rows share nodes or how work is chunked; observations do only up to float
rounding, because batched matrix products may round differently.  A table of
every child of the starts may serve the first steps: `learn_aging_policy`
builds one per stage, whose dynamics and demo starts are fixed.  Energies
and proposal densities are each one net pass over all (row, step) pairs, the
cost gradient one pass over those of the distinct rows it scores.  Greedy
planning also fills a `PathBatch` in lockstep, and exact enumeration expands
every action sequence level by level (`enumerate_levels`).
No sampler or planner synthesizes the state after a path's last action, which
no cost or policy reads; a reader that needs that state calls `with_end_states`.
Cost and policy parameter updates need exclusive access.  `learn_aging_policy`
yields each outer iteration's metrics at its boundary; its caller checkpoints.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Protocol, Sequence

import numpy as np

from .errors import (
    BudgetError,
    DegenerateWeightsError,
    ShapeError,
    ValidationError,
)
from .nets import Adam, DenseNet, _forward_cached, dense_net, net_backward, net_forward
from .transform import DEFAULT_NUM_ACTIONS, AgingModel, synthesize_step, transform_apply
from .flows import flow_encode, flow_inverse

ENUMERATION_BUDGET = 1_000_000
# Most rows the lockstep engine passes to one transition or one scoring pass.
# All of a call's rows step together and read their uniforms from one matrix
# drawn up front, so the cap changes speed and memory only, never the actions.
ROLL_BLOCK = 256


@dataclass(eq=False)
class AgingTrajectory:
    """One subject's (T+1, D) observations at (T+1,) ages; action t is the gap
    ages[t+1] - ages[t], range-checked by `PathBatch.from_trajectories`."""

    observations: np.ndarray
    ages: np.ndarray

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=np.float64)
        self.ages = np.asarray(self.ages, dtype=np.int64)
        if (self.observations.ndim != 2 or not self.ages.size
                or self.observations.shape[:1] != self.ages.shape):
            raise ValidationError(f"trajectory needs (T+1, D) observations at T+1 ages, "
                                  f"not {self.observations.shape} at {self.ages.shape}")

    @property
    def actions(self) -> list[int]:
        return np.diff(self.ages).tolist()

    @property
    def horizon(self) -> int:
        return self.ages.size - 1


@dataclass(eq=False)
class PathBatch:
    """M trajectories as padded arrays; row i takes lengths[i] actions.

    observations (M, T+1, D), ages (M, T+1) and actions (M, T) hold zeros
    past a row's length.  A sampled row holds the states its actions leave
    from; its end state observations[i, lengths[i]] is not synthesized and
    stays zero.  log_q holds the log proposal density of the policy that
    rolled each row (zero for batches built from data).
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

    def flat_states(self) -> tuple[np.ndarray, np.ndarray]:
        """(K, D) observations and (K,) ages of every real state, row by row."""
        rows, steps = np.nonzero(np.arange(self.ages.shape[1]) <= self.lengths[:, None])
        return self.observations[rows, steps], self.ages[rows, steps]

    def take(self, rows: np.ndarray) -> "PathBatch":
        return PathBatch(self.observations[rows], self.ages[rows], self.actions[rows],
                         self.lengths[rows], self.log_q[rows])

    def trajectories(self) -> list[AgingTrajectory]:
        return [AgingTrajectory(self.observations[i, :n + 1], self.ages[i, :n + 1])
                for i, n in enumerate(self.lengths.tolist())]

    @classmethod
    def from_trajectories(cls, trajs: Sequence[AgingTrajectory], n_actions: int | None = None,
                          dim: int = 0) -> "PathBatch":
        """Padded rows, or with no `trajs` zero rows of `dim`-long observations;
        ValidationError names the row and step of a negative or too large action."""
        lengths = np.array([traj.horizon for traj in trajs], dtype=np.int64)
        width = int(lengths.max(initial=0))
        obs = np.zeros((len(trajs), width + 1, trajs[0].observations.shape[1] if trajs else dim))
        ages = np.zeros((len(trajs), width + 1), dtype=np.int64)
        for i, traj in enumerate(trajs):
            obs[i, :traj.ages.size], ages[i, :traj.ages.size] = traj.observations, traj.ages
        actions = np.where(np.arange(width) < lengths[:, None], np.diff(ages, axis=1), 0)
        bad = np.argwhere((actions < 0) | (actions >= (np.inf if n_actions is None else n_actions)))
        if bad.size:
            row, step = bad[0].tolist()
            raise ValidationError(f"action {actions[row, step]} at row {row}, step {step} "
                                  "out of range")
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
    """Deterministic transitions: K children of P states, child k leaving parents[k]."""

    n_actions: int

    def transition(self, obs: np.ndarray, ages: np.ndarray, parents: np.ndarray,
                   actions: np.ndarray) -> np.ndarray: ...


Cost = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


class ModelDynamics:
    """Transitions via the synthesis model with zero injected noise."""

    def __init__(self, model: AgingModel):
        self.model = model
        self.n_actions = model.n_actions

    def transition(self, obs: np.ndarray, ages: np.ndarray, parents: np.ndarray,
                   actions: np.ndarray) -> np.ndarray:
        return synthesize_step(self.model, obs, actions, parents)

    # Unused: kept because perfbench/tracer.py patches it by name; ROADMAP item 1 deletes it.
    def step(self, obs: np.ndarray, age: int, action: int) -> np.ndarray:
        return synthesize_step(self.model, obs, action)


class FunctionDynamics:
    """Dynamics from a plain row-wise (obs, ages, actions) -> next observations callable."""

    def __init__(self, n_actions: int, fn: Callable[..., np.ndarray]):
        self.n_actions = n_actions
        self.transition = lambda obs, ages, parents, actions: fn(obs[parents], ages[parents],
                                                                 actions)


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


def _action_distribution(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise action probabilities and log-probabilities of a policy's logits."""
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
    _, log_probs = _action_distribution(net_forward(
        policy.net, policy._inputs(batch.observations[rows, steps], batch.ages[rows, steps])))
    chosen = log_probs[np.arange(rows.size), batch.actions[rows, steps]]
    return np.bincount(rows, weights=chosen, minlength=len(batch))


def sequence_energy(traj: AgingTrajectory, cost: Cost) -> float:
    """Sum of per-step costs over the trajectory's (state, action) pairs."""
    return float(path_energies(cost, PathBatch.from_trajectories([traj]))[0])


def enumerate_levels(dynamics: Dynamics, cost: Cost, obs: np.ndarray, age: int, depth: int,
                     stop_age: float = math.inf, budget: int = ENUMERATION_BUDGET):
    """Every action sequence of at most `depth` steps from (obs, age), level by level.

    Yields (energies, ages, live) for levels 0..depth.  Level 0 is the start
    alone; row j of level d+1 extends row live[j // n] of level d by action
    j % n, so every level lists its sequences in lexicographic order, and
    when nothing stops early row j's actions are the base-n digits of j
    (first action most significant).  A row is live, and extended, while
    d < depth and its age is below `stop_age`.  Energies sum the step costs
    left to right.  A level makes one batched cost call over its rows, and
    `_expand` passes each live row once to make its children.  BudgetError is
    raised before any level would hold more than `budget` rows.
    """
    n = dynamics.n_actions
    obs, ages, energies = obs[None, :], np.array([age]), np.zeros(1)
    for d in range(depth + 1):
        live = np.flatnonzero(ages < stop_age) if d < depth else np.zeros(0, dtype=np.int64)
        yield energies, ages, live
        if live.size * n > budget:
            raise BudgetError(f"level {d + 1} of the enumeration would hold "
                              f"{live.size * n} paths, over the budget {budget}")
        if not live.size:
            return
        if d:  # the live rows' states, from level d-1's live rows (ages parent_ages[::n])
            obs = _expand(dynamics, obs, parent_ages[::n], live // n, live % n)[0]
        parent_obs, parent_ages = np.repeat(obs, n, axis=0), np.repeat(ages[live], n)
        actions = np.tile(np.arange(n), live.size)
        energies = np.repeat(energies[live], n) + cost(parent_obs, parent_ages, actions)
        ages = parent_ages + actions


def enumerate_energies(obs: np.ndarray, age: int, horizon: int, cost: Cost, dynamics: Dynamics,
                       budget: int = ENUMERATION_BUDGET) -> np.ndarray:
    """Energies of every action sequence of the given length from (obs, age).

    Entry i corresponds to the base-n_actions digits of i (most significant
    action first): the last level of `enumerate_levels`.  Deterministic
    transitions make this a full enumeration of the trajectory space.
    """
    return list(enumerate_levels(dynamics, cost, obs, age, horizon, budget=budget))[-1][0]


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
    PathBatch.from_trajectories([traj], dynamics.n_actions)  # refuses out-of-range actions
    energies = enumerate_energies(traj.observations[0], traj.ages[0], traj.horizon, cost,
                                  dynamics, budget)
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
    """Children of distinct (parent node, action) pairs, sorted by parent.  Each
    transition takes whole parents' children, at most ROLL_BLOCK of them unless
    one parent alone has more, and each of its distinct parents once.

    Returns the children's observations and ages and each pair's child index.
    """
    _, first, child = np.unique(parents * dynamics.n_actions + actions,
                                return_index=True, return_inverse=True)
    src, act = parents[first], actions[first]
    ends = np.append(np.flatnonzero(np.diff(src)) + 1, src.size)  # past each parent's children
    nxt, lo = [], 0
    while lo < src.size:
        hi = max(ends[ends <= lo + ROLL_BLOCK].max(initial=lo), ends[ends > lo][0])
        nodes, at = np.unique(src[lo:hi], return_inverse=True)
        nxt.append(dynamics.transition(obs[nodes], ages[nodes], at, act[lo:hi]))
        lo = hi
    return np.concatenate(nxt), ages[src] + act, child


def _roll(policy: PolicyNet, dynamics: Dynamics, node_obs: np.ndarray,
          node_ages: np.ndarray, node: np.ndarray, lengths: np.ndarray,
          uniforms: np.ndarray, children: np.ndarray | None = None) -> PathBatch:
    """Roll len(lengths) paths in lockstep; row i starts at node node[i] of
    (node_obs, node_ages), which `node` then tracks in place, and
    uniforms[i, t] picks its action t.  Level 1 is read from `children`, if
    given: start node s's child by action a is its row s n_actions + a.

    The action is drawn by the CDF search `Generator.choice(n, p=p)` uses, so
    a row's actions equal those of `rng.choice` on the same uniforms.
    """
    m, width, n = lengths.size, int(lengths.max()), dynamics.n_actions
    obs = np.zeros((m, width + 1, node_obs.shape[1]))
    ages = np.zeros((m, width + 1), dtype=np.int64)
    actions = np.zeros((m, width), dtype=np.int64)
    log_q = np.zeros(m)
    ages[:, 0] = node_ages[node]
    for t in range(width):
        live = np.flatnonzero(lengths > t)
        if t == 1 and children is not None:
            node_obs, node_ages = children, (node_ages[:, None] + np.arange(n)).ravel()
            node[live] = node[live] * n + actions[live, 0]
        elif t:
            node_obs, node_ages, node[live] = _expand(dynamics, node_obs, node_ages,
                                                      node[live], actions[live, t - 1])
        obs[live, t] = node_obs[node[live]]  # only states rows act from: end states stay zero
        needed, at = np.unique(node[live], return_inverse=True)
        probs, log_probs = _action_distribution(net_forward(
            policy.net, policy._inputs(node_obs[needed], node_ages[needed])))
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        chosen = (cdf[at] <= uniforms[live, t][:, None]).sum(axis=1)
        actions[live, t], ages[live, t + 1] = chosen, ages[live, t] + chosen
        log_q[live] += log_probs[at, chosen]
    return PathBatch(obs, ages, actions, lengths, log_q)


def rollout(policy: PolicyNet, dynamics: Dynamics, obs: np.ndarray, age: int, horizon: int,
            rng: np.random.Generator) -> AgingTrajectory:
    """Roll one trajectory from (obs, age) by sampling actions from the policy."""
    batch = _roll(policy, dynamics, obs[None, :], np.array([age]),
                  np.zeros(1, dtype=np.int64), np.array([horizon], dtype=np.int64),
                  rng.random((1, horizon)))
    return with_end_states(dynamics, batch).trajectories()[0]


def _check_starts(obs: np.ndarray, ages: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(M, D) start observations and their (M,) ages, M >= 1, as float64 and int64."""
    obs, ages = np.asarray(obs, dtype=np.float64), np.asarray(ages, dtype=np.int64)
    if obs.ndim != 2 or ages.shape != obs.shape[:1]:
        raise ShapeError(f"starts need (M, D) observations at (M,) ages, "
                         f"not {obs.shape} at {ages.shape}")
    if not ages.size:
        raise ValidationError("need at least one start state")
    return obs, ages


def sample_path_batch(policy: PolicyNet, dynamics: Dynamics, obs: np.ndarray,
                      ages: Sequence[int], horizon: int | Sequence[int],
                      m: int | None = None, seed: int | np.random.SeedSequence = 0,
                      children: np.ndarray | None = None) -> PathBatch:
    """Sample m trajectories, cycling over the starts, in one lockstep pass.

    One (m, widest horizon) uniform matrix drawn from `seed` picks the actions,
    path i reading row i, so they are bit-reproducible and do not depend on
    how rows share nodes or how work is chunked.  A row's end state is zero.
    `children`, a (M n_actions, D) table whose row s n_actions + a is start
    s's child by action a, serves every first step in place of synthesis.
    """
    obs, ages = _check_starts(obs, ages)
    table = (ages.size * dynamics.n_actions, obs.shape[1])
    if children is not None and np.shape(children) != table:
        raise ShapeError(f"a start-children table must be (M n_actions, D) = {table}, "
                         f"not {np.shape(children)}")
    count = m if m is not None else ages.size
    if count < 1:
        raise ValidationError("m must be >= 1")
    horizons = np.array([int(horizon)] * ages.size if np.isscalar(horizon)
                        else [int(h) for h in horizon], dtype=np.int64)
    if len(horizons) != ages.size:
        raise ShapeError("one horizon per start state is required")
    if horizons.min() < 1:
        raise ValidationError("horizon must be >= 1")
    which = np.arange(count) % ages.size
    lengths = horizons[which]
    uniforms = np.random.default_rng(seed).random((count, int(lengths.max())))
    return _roll(policy, dynamics, obs, ages, which, lengths, uniforms, children)


def sample_trajectories(policy: PolicyNet, dynamics: Dynamics, obs: np.ndarray,
                        ages: Sequence[int], horizon: int | Sequence[int],
                        m: int | None = None, seed: int = 0) -> list[AgingTrajectory]:
    """`sample_path_batch` as a list of trajectories, end states synthesized."""
    return with_end_states(dynamics, sample_path_batch(
        policy, dynamics, obs, ages, horizon, m, seed)).trajectories()


def with_end_states(dynamics: Dynamics, batch: PathBatch) -> PathBatch:
    """`batch` with every non-empty row's end state observations[i, lengths[i]], which
    no path producer synthesizes, filled in place by one transition call."""
    rows = np.flatnonzero(batch.lengths)
    last = batch.lengths[rows] - 1
    batch.observations[rows, last + 1] = dynamics.transition(
        batch.observations[rows, last], batch.ages[rows, last], np.arange(rows.size),
        batch.actions[rows, last])
    return batch


# ---------------------------------------------------------------------------
# The importance-sampled cost objective
# ---------------------------------------------------------------------------

def irl_loss_and_grad(cost: CostNet, pool: PathBatch, demos: np.ndarray, samples: np.ndarray
                      ) -> tuple[float, list[np.ndarray]]:
    """Importance-sampled trajectory log-likelihood and its exact gradient.

    `demos` and `samples` index rows of `pool`; they may overlap or repeat.
    L = -mean(E over demos) - [logsumexp(-E_j - log q_j) - log N] over samples,
    with log q_j read from `pool.log_q`.  The gradient is -mean(dE/dΓ over
    demos) plus the self-normalized weighted mean of dE/dΓ over samples,
    weights w_j ∝ exp(-E_j)/q_j.  Every distinct row either set names is scored
    once, in pool order: one forward and one backward pass over their (row,
    step) pairs, a row's upstream its summed weight less 1/|demos| per demo entry.
    """
    if len(demos) == 0 or len(samples) == 0:
        raise ValidationError("demo and sample index sets must be non-empty")
    picked = np.concatenate([demos, samples])
    if picked.min() < 0 or picked.max() >= len(pool):
        raise ValidationError(f"row indices must lie in [0, {len(pool)})")
    named = np.bincount(picked, minlength=len(pool)).astype(bool)
    rows, steps = np.nonzero(np.arange(pool.actions.shape[1]) < (pool.lengths * named)[:, None])
    feats = _cost_inputs(cost, pool.observations[rows, steps], pool.ages[rows, steps],
                         pool.actions[rows, steps])
    out, caches = _forward_cached(cost.net, feats)
    energy = np.bincount(rows, weights=out[:, 0], minlength=len(pool))

    log_w = -energy[samples] - pool.log_q[samples]
    if log_w.max() == np.inf or np.isnan(log_w).any():
        raise DegenerateWeightsError("a sample has zero or invalid proposal density")
    if not np.any(np.isfinite(log_w)):
        raise DegenerateWeightsError("all importance weights are zero or non-finite")
    log_norm = _logsumexp(log_w)
    loss = float(-energy[demos].mean() - (log_norm - math.log(len(samples))))
    weights = np.exp(log_w - log_norm)

    upstream = (np.bincount(samples, weights=weights, minlength=len(pool))
                - np.bincount(demos, minlength=len(pool)) / len(demos))
    grads, _ = net_backward(cost.net, feats, upstream[rows, None], caches)
    return loss, grads


def path_log_weights(cost: Cost, paths: PathBatch) -> np.ndarray:
    """Log importance weights -E - log q of sampled paths, scored ROLL_BLOCK rows at a time."""
    blocks = [paths.take(slice(lo, lo + ROLL_BLOCK)) for lo in range(0, len(paths), ROLL_BLOCK)]
    return np.concatenate([-path_energies(cost, b) - b.log_q for b in blocks])


def estimate_log_partition(cost: Cost, policy: PolicyNet, dynamics: Dynamics, obs: np.ndarray,
                           age: int, horizon: int, n: int, seed: int = 0) -> float:
    """Importance-sampling estimate of log Z from `n` policy rollouts from (obs, age)."""
    return log_mean_exp(path_log_weights(
        cost, sample_path_batch(policy, dynamics, obs[None, :], [age], horizon, n, seed)))


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

def policy_update(policy: PolicyNet, cost: Cost, dynamics: Dynamics, obs: np.ndarray,
                  ages: Sequence[int], horizons: Sequence[int],
                  optimizer: Adam, n_rollouts: int, n_steps: int,
                  seed: int = 0, children: np.ndarray | None = None) -> float:
    """Entropy-regularized policy-gradient refinement against a fixed cost.

    Minimizes E_q[E(ζ)] - H(q) with a score-function estimator: per rollout
    the return is energy plus trajectory log-probability (the log q the
    rollout accumulated), and the batch-mean return is subtracted as the
    baseline.  Returns the mean policy entropy over the last batch's states.
    Rollouts read their first steps from `children` as `sample_path_batch` does.
    """
    streams = np.random.SeedSequence(seed).spawn(n_steps)
    # states the entropy is reported on: the last batch's, or the starts
    visited = obs, ages = _check_starts(obs, ages)
    for step in range(n_steps):
        batch = sample_path_batch(policy, dynamics, obs, ages, list(horizons),
                                  m=n_rollouts, seed=streams[step], children=children)
        returns = path_energies(cost, batch) + batch.log_q
        adv = returns - returns.mean()
        rows, steps = batch.pairs()
        visited = (batch.observations[rows, steps], batch.ages[rows, steps])
        feats = policy._inputs(*visited)
        logits, caches = _forward_cached(policy.net, feats)
        probs, _ = _action_distribution(logits)
        coeffs = adv[rows] / n_rollouts
        upstream = -probs * coeffs[:, None]
        upstream[np.arange(rows.size), batch.actions[rows, steps]] += coeffs
        grads, _ = net_backward(policy.net, feats, upstream, caches)
        optimizer.step(grads)
    pmat, _ = _action_distribution(net_forward(policy.net, policy._inputs(*visited)))
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


def learn_aging_policy(demos: PathBatch, cost: CostNet,
                       policy: PolicyNet, dynamics: Dynamics, *,
                       iterations: Iterable[int], inner_iters: int,
                       sample_paths: int, demo_batch: int, sample_batch: int,
                       policy_rollouts: int, policy_steps: int,
                       cost_optimizer: Adam, policy_optimizer: Adam,
                       rng: np.random.Generator) -> Iterator[IterationMetrics]:
    """Alternate cost fitting and policy refinement over the outer `iterations`.

    Every outer iteration samples fresh paths from the current policy through
    the synthesis transitions, runs `inner_iters` gradient ascent steps on
    the importance-sampled log-likelihood, each mixing its demo batch into
    its IS rows and scoring those rows once for both roles (demo rows get
    their proposal density under the current policy), then refines the policy
    against the updated cost.  The policy is frozen during the inner steps, so
    every row's log q is computed once per outer iteration.  All randomness
    is drawn from `rng`.  Every child of every demo start is synthesized
    once, before the first iteration, into the table all sampling calls read
    their first steps from; a resumed call rebuilds it bit for bit.  Each
    iteration's `IterationMetrics` is yielded after its policy update, with
    the nets, the optimizers and `rng` at that boundary: the caller
    checkpoints there, and a later call over the remaining iterations from
    the restored state continues the run bit for bit.
    """
    if len(demos) == 0:
        raise ValidationError("need at least one demonstration")
    obs, ages, horizons = demos.observations[:, 0], demos.ages[:, 0], np.maximum(demos.lengths, 1)
    n = dynamics.n_actions  # every start's children, for every sampling call of the stage
    children = _expand(dynamics, obs, ages, *np.divmod(np.arange(len(demos) * n), n))[0]

    for k in iterations:
        t0 = time.perf_counter()
        try:
            path_seed = int(rng.integers(0, 2**63 - 1))
            samples = sample_path_batch(policy, dynamics, obs, ages, horizons,
                                        m=sample_paths, seed=path_seed, children=children)
            demos = dataclasses.replace(demos, log_q=path_log_proposals(policy, demos))
            pool = PathBatch.concat([demos, samples])
            loglik_sum = 0.0
            for _ in range(inner_iters):
                d_idx = rng.choice(len(demos), size=min(demo_batch, len(demos)),
                                   replace=False)
                s_idx = rng.choice(len(samples), size=min(sample_batch, len(samples)),
                                   replace=False)
                loss, grads = irl_loss_and_grad(
                    cost, pool, d_idx, np.concatenate([d_idx, len(demos) + s_idx]))
                loglik_sum += loss
                cost_optimizer.step([-g for g in grads])
            pol_seed = int(rng.integers(0, 2**63 - 1))
            entropy = policy_update(policy, cost, dynamics, obs, ages, horizons,
                                    policy_optimizer, policy_rollouts, policy_steps,
                                    seed=pol_seed, children=children)
        except Exception as exc:
            raise IrlIterationError(k, exc) from exc
        energies = path_energies(cost, pool)
        yield IterationMetrics(
            iteration=k,
            demo_energy=float(np.mean(energies[:len(demos)])),
            sample_energy=float(np.mean(energies[len(demos):])),
            loglik_estimate=loglik_sum / max(1, inner_iters),
            policy_entropy=entropy,
            wall_seconds=time.perf_counter() - t0,
        )


class IrlIterationError(RuntimeError):
    """Wraps a failure inside the learning loop with its iteration index."""

    def __init__(self, iteration: int, cause: Exception):
        super().__init__(f"learning aborted at outer iteration {iteration}: {cause}")
        self.iteration = iteration
        self.cause = cause


# ---------------------------------------------------------------------------
# Planning and multi-input initialization
# ---------------------------------------------------------------------------

def plan_path_batch(policy: PolicyNet, dynamics: Dynamics, obs: np.ndarray,
                    ages: Sequence[int], targets: Sequence[int]) -> PathBatch:
    """Greedy argmax paths from every start until its age reaches its target.

    Rows step in lockstep: one policy pass and one batched transition per
    step.  A row takes its most probable action (ties to the smaller index)
    with the same-age action 0 masked, so it overshoots by less than the
    action count.  The choice depends on the state alone, so the path to a
    target runs through the state each earlier target reaches.  Only rows
    still below their target are transitioned; `with_end_states` fills the end states.
    """
    start_obs, start_ages = _check_starts(obs, ages)
    targets = np.array([int(t) for t in targets], dtype=np.int64)
    if targets.size != start_ages.size:
        raise ShapeError("one target age per start state is required")
    if np.any(targets < start_ages):
        raise ValidationError("target age below start age (de-aging unsupported)")
    m = start_ages.size
    # every planned action is at least 1: it bounds the steps and counts a row's length
    width = int((targets - start_ages).max())
    obs = np.zeros((m, width + 1, start_obs.shape[1]))
    ages = np.zeros((m, width + 1), dtype=np.int64)
    actions = np.zeros((m, width), dtype=np.int64)
    obs[:, 0], ages[:, 0] = start_obs, start_ages
    live = np.flatnonzero(start_ages < targets)
    x, age, t = obs[live, 0], start_ages[live], 0
    while live.size:
        rows = slice(None) if live.size == m else live  # basic indexing while all are live
        probs, _ = _action_distribution(net_forward(policy.net, policy._inputs(x, age)))
        chosen = probs[:, 1:].argmax(axis=1) + 1
        t += 1
        actions[rows, t - 1], ages[rows, t] = chosen, age + chosen
        ahead = np.flatnonzero(age + chosen < targets[rows])
        if ahead.size:  # only a row still below its target acts from its new state
            x = dynamics.transition(x[ahead], age[ahead], np.arange(ahead.size), chosen[ahead])
            obs[live[ahead], t] = x
        live, age = live[ahead], age[ahead] + chosen[ahead]
    return PathBatch(obs[:, :t + 1], ages[:, :t + 1], actions[:, :t],
                     np.count_nonzero(actions[:, :t], axis=1), np.zeros(m))


def plan_rollout(policy: PolicyNet, dynamics: Dynamics, obs: np.ndarray, age: int,
                 target_age: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """`plan_path_batch` for one start: the greedy actions and the (T+1, D)
    observations, the last row zero (`with_end_states`), and (T+1,) ages visited."""
    path = plan_path_batch(policy, dynamics, obs[None, :], [age], [target_age])
    return path.actions[0].tolist(), path.observations[0], path.ages[0]


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
                     ) -> tuple[np.ndarray, int]:
    """Fold several observations of one subject into one start (obs, age).

    Inputs are sorted by age; consecutive inputs are bridged by controller
    steps equal to their age difference (split when it exceeds the largest
    action).  The latent memory alternates transform predictions with the
    next real observation's encoding folded in additively, and the returned
    observation decodes the memory at the oldest input's age.  All inputs are
    encoded in one pass, a (k, D) batch, before the stepping.  A single input
    reduces exactly to encoding and decoding that observation.
    """
    if len(inputs) < 1:
        raise ValidationError("need at least one input")
    order = sorted(range(len(inputs)), key=lambda i: (int(inputs[i][1]), i))
    xs = [np.asarray(inputs[i][0], dtype=np.float64) for i in order]
    for x in xs:
        if x.shape != (model.dim,):
            raise ShapeError(f"input of shape {x.shape}, not one observation of length {model.dim}")
    encoded = flow_encode(model.target_flow, np.stack(xs))
    z, age = encoded[0], int(inputs[order[0]][1])
    for z_real, i in zip(encoded[1:], order[1:]):
        for step in split_age_gap(int(inputs[i][1]) - age, model.n_actions - 1):
            z_src = flow_encode(model.source_flow, flow_inverse(model.target_flow, z))
            z = transform_apply(model.transform, z_src, step)
        z, age = z + z_real, int(inputs[i][1])
    return flow_inverse(model.target_flow, z), age
