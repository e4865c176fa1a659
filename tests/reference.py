"""One-state reference implementations the tests check the batch code against.

Policy and cost nets are evaluated on one state at a time, with features and
softmax computed here from `net_forward`, never through the engine's own
helpers.  Dynamics and costs run as one-row batches.  The recursive
enumerator and brute-force search are the ones the level-wise expander
replaced, and the memoized recursion the one the array Bellman table of
`world.dp_optimal_path` replaced, kept as oracles for them.  The multi-input
fold encodes one input at a time, as before the fold encoded all in one pass.
The IRL objective takes its demos and samples as two batches and scores each
on its own with `path_energies`, as before it scored one pool's distinct rows.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from flowpath.errors import BudgetError, ValidationError
from flowpath.flows import flow_forward, flow_inverse
from flowpath.irl import AgingTrajectory, path_energies, split_age_gap
from flowpath.nets import member_net, net_backward, net_forward
from flowpath.transform import transform_apply
from flowpath.world import (
    WorldDynamics,
    archetype_cost,
    make_archetype,
    observe,
    preferred_step,
)


@dataclass(eq=False)
class State:
    """One observation and its integer age, the one-state form of a start."""

    observation: np.ndarray
    age: int

    def __post_init__(self):
        self.observation = np.asarray(self.observation, dtype=np.float64)
        self.age = int(self.age)


def age_unit(net, age: int) -> float:
    return (age - net.age_low) / (net.age_high - net.age_low)


# ---------------------------------------------------------------------------
# Policy and cost nets, one state at a time
# ---------------------------------------------------------------------------

def policy_features(policy, state: State) -> np.ndarray:
    return np.concatenate([state.observation, [age_unit(policy, state.age)]])


def logits(policy, feats: np.ndarray) -> np.ndarray:
    return net_forward(policy.net, feats)


def probs(policy, state: State) -> np.ndarray:
    logit = logits(policy, policy_features(policy, state))
    e = np.exp(logit - logit.max())
    return e / e.sum()


def log_probs(policy, state: State) -> np.ndarray:
    logit = logits(policy, policy_features(policy, state))
    shifted = logit - logit.max()
    return shifted - math.log(np.exp(shifted).sum())


def entropy(policy, state: State) -> float:
    logp = log_probs(policy, state)
    return float(-(np.exp(logp) * logp).sum())


def cost_features(cost, state: State, action: int) -> np.ndarray:
    onehot = np.zeros(cost.n_actions)
    onehot[action] = 1.0
    return np.concatenate([state.observation, [age_unit(cost, state.age)], onehot])


def cost(cost_net, state: State, action: int) -> float:
    """A `CostNet`'s cost of one step."""
    return float(net_forward(cost_net.net, cost_features(cost_net, state, action))[0])


def irl_loss_and_grad(cost_net, demos, samples) -> tuple[float, list[np.ndarray]]:
    """The importance-sampled objective over two batches, each scored on its own
    with `path_energies`; the gradient is one backward pass per batch, with
    upstream -1/|demos| on demo steps and the normalized weight on sample steps."""
    demo_e, sample_e = path_energies(cost_net, demos), path_energies(cost_net, samples)
    log_w = -sample_e - samples.log_q
    log_norm = float(np.logaddexp.reduce(log_w))
    loss = float(-demo_e.mean() - (log_norm - math.log(len(samples))))
    grads = []
    for batch, per_row in ((demos, np.full(len(demos), -1.0 / len(demos))),
                           (samples, np.exp(log_w - log_norm))):
        rows, steps = batch.pairs()
        feats = np.array([cost_features(cost_net, State(batch.observations[r, t],
                                                        batch.ages[r, t]), batch.actions[r, t])
                          for r, t in zip(rows.tolist(), steps.tolist())])
        grads.append(net_backward(cost_net.net, feats, per_row[rows, None])[0])
    return loss, [d + s for d, s in zip(*grads)]


# ---------------------------------------------------------------------------
# Model parts the package reads only in stacked form
# ---------------------------------------------------------------------------

def scale_net(unit):
    return member_net(unit.net, 0)


def translate_net(unit):
    return member_net(unit.net, 1)


def per_net_parameters(flow) -> list[tuple[str, np.ndarray]]:
    """A lone flow's arrays as plain nets: per unit, the scale net's
    (`u00.scale.l0.w`, ...) then the translate net's."""
    return [(f"u{i:02d}.{role}.{name}", arr) for i, u in enumerate(flow.units)
            for role, net in (("scale", scale_net(u)), ("translate", translate_net(u)))
            for name, arr in net.parameters()]


def factors(transform) -> int:
    return transform.w_out.shape[1]


def multi_input_init(inputs, model) -> tuple[np.ndarray, int]:
    """`irl.multi_input_init` with each input encoded on its own, when the fold
    reaches it: one (D,) `flow_forward` per input."""
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
    return flow_inverse(model.target_flow, z), age


def ground_truth_cost(age: int, action: int, arch, config) -> float:
    """The world's hidden cost of one step, by the scalar formula."""
    base = float(abs(action - preferred_step(arch.class_id, config.n_actions)))
    if arch.nonstationary:
        u = (age - config.age_min) / config.age_span
        base += 0.1 * u * (1.0 + action / max(1, config.n_actions - 1))
    return base


# ---------------------------------------------------------------------------
# Dynamics and costs as one-row batches, and the recursive oracles
# ---------------------------------------------------------------------------

def step(dynamics, state: State, action: int) -> State:
    """The state one action leads to."""
    obs = dynamics.transition(state.observation[None, :], np.array([state.age]), np.arange(1),
                              np.array([action]))
    return State(obs[0], state.age + action)


def step_cost(cost_fn, state: State, action: int) -> float:
    """Any batch cost's cost of one step."""
    return float(cost_fn(state.observation[None, :], np.array([state.age]),
                         np.array([action]))[0])


def stacked(states) -> tuple[np.ndarray, np.ndarray]:
    """The (M, D) observations and (M,) ages of M states: the array form of M starts."""
    return np.stack([s.observation for s in states]), np.array([s.age for s in states])


def trajectory(states) -> AgingTrajectory:
    """The trajectory through `states`, in order; its actions are their age gaps."""
    return AgingTrajectory(np.stack([s.observation for s in states]), [s.age for s in states])


def states_of(traj: AgingTrajectory) -> list[State]:
    """A trajectory's states, in order."""
    return [State(o, a) for o, a in zip(traj.observations, traj.ages)]


def chain(dynamics, start: State, actions) -> AgingTrajectory:
    states = [start]
    for a in actions:
        states.append(step(dynamics, states[-1], a))
    return trajectory(states)


def enumerate_energies(start: State, horizon: int, cost_fn, dynamics,
                       budget: int = 1_000_000) -> np.ndarray:
    """Energies of every action sequence of the given length, by recursion;
    entry i is the sequence of the base-n digits of i."""
    n = dynamics.n_actions
    total = n**horizon
    if total > budget:
        raise BudgetError(f"enumeration of {total} paths exceeds budget {budget}")
    energies = np.zeros(total)

    def recurse(state: State, depth: int, acc: float, base: int, stride: int):
        if depth == horizon:
            energies[base] = acc
            return
        for a in range(n):
            nxt = step(dynamics, state, a)
            recurse(nxt, depth + 1, acc + step_cost(cost_fn, state, a), base + a * stride,
                    stride // n)

    recurse(start, 0, 0.0, 0, total // n if horizon > 0 else 1)
    return energies


def brute_force_optimal_path(dynamics, cost_fn, start: State, target_age: int,
                             horizon_cap: int, budget: int = 1_000_000) -> AgingTrajectory:
    """Minimum-cost path reaching at least the target age, by recursion; paths
    end the first time the age reaches the target, ties break as min over
    (cost, actions)."""
    if target_age < start.age:
        raise ValidationError("target age below the start age")
    best = None
    completed = 0

    def recurse(state: State, acc: float, actions: tuple):
        nonlocal best, completed
        if state.age >= target_age:
            completed += 1
            if completed > budget:
                raise BudgetError(f"enumeration exceeded budget {budget}")
            cand = (acc, actions)
            if best is None or cand < best:
                best = cand
            return
        if len(actions) >= horizon_cap:
            return
        for a in range(dynamics.n_actions):
            recurse(step(dynamics, state, a), acc + step_cost(cost_fn, state, a),
                    actions + (a,))

    recurse(start, 0.0, ())
    if best is None:
        raise ValidationError(
            f"target {target_age} unreachable from {start.age} in {horizon_cap} steps")
    return chain(dynamics, start, best[1])


def dp_optimal_path(dynamics, cost_fn, start_age: int, target_age: int,
                    horizon_cap: int) -> AgingTrajectory:
    """`world.dp_optimal_path` by memoized recursion over (age, steps left), one
    cost call per visited age; values are (cost, action-suffix) pairs, so ties
    break as min over (cost, actions)."""
    INF = (math.inf, ())
    n = dynamics.n_actions

    @functools.lru_cache(maxsize=None)
    def value(age: int, steps_left: int) -> tuple[float, tuple[int, ...]]:
        if age >= target_age:
            return (0.0, ())
        if steps_left == 0:
            return INF
        obs = np.broadcast_to(dynamics.obs_at(age), (n, dynamics.config.dim))
        costs = cost_fn(obs, np.full(n, age), np.arange(n)).tolist()
        best = INF
        for a in range(n):
            sub = value(age + a, steps_left - 1)
            if math.isinf(sub[0]):
                continue
            cand = (costs[a] + sub[0], (a,) + sub[1])
            if cand < best:
                best = cand
        return best

    total, actions = value(start_age, horizon_cap)
    if math.isinf(total):
        raise ValidationError(
            f"target {target_age} unreachable from {start_age} in {horizon_cap} steps"
        )
    ages = start_age + np.cumsum((0,) + actions)
    return AgingTrajectory(np.stack([dynamics.obs_at(a) for a in ages.tolist()]), ages)


# ---------------------------------------------------------------------------
# The world's generators with their noise drawn one state at a time
# ---------------------------------------------------------------------------

def generate_subject(config, seed: int):
    """The archetype and demo states of `world.generate_subject`, each state's
    observation noise its own `standard_normal(dim)` draw."""
    rng = np.random.default_rng(seed)
    arch = make_archetype(config, seed)
    step = preferred_step(arch.class_id, config.n_actions)
    max_steps = config.horizon - 1
    lo = min(2, max_steps)
    hi = min(max_steps, max(lo, config.age_span // step))
    span = int(rng.integers(lo, hi + 1)) * step
    start_age = int(rng.integers(config.age_min, config.age_max - span + 1))
    dyn = WorldDynamics(config, arch)
    optimal = dp_optimal_path(dyn, archetype_cost(config, arch), start_age,
                              start_age + span, horizon_cap=max_steps)
    return arch, [State(s.observation + config.noise * rng.standard_normal(config.dim), s.age)
                  for s in states_of(optimal)]


def generate_pool_sequence(config, seed: int, stride: int = 1) -> list[State]:
    """The states of `world.generate_pool_sequence`, noise drawn one state at a time."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    arch = make_archetype(config, seed)
    return [State(observe(config, arch, a) + config.noise * rng.standard_normal(config.dim), a)
            for a in range(config.age_min, config.age_max + 1, stride)]
