"""One-state reference implementations the tests check the batch code against.

Policy and cost nets are evaluated on one state at a time, with features and
softmax computed here from `net_forward`, never through the engine's own
helpers.  Dynamics and costs run as one-row batches.  The recursive
enumerator and brute-force search are the ones the level-wise expander
replaced, kept as oracles for it.
"""

import math

import numpy as np

from flowpath.errors import BudgetError, ValidationError
from flowpath.irl import AgingTrajectory, State
from flowpath.nets import member_net, net_forward
from flowpath.world import preferred_step


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


# ---------------------------------------------------------------------------
# Model parts the package reads only in stacked form
# ---------------------------------------------------------------------------

def scale_net(unit):
    return member_net(unit.net, 0)


def translate_net(unit):
    return member_net(unit.net, 1)


def factors(transform) -> int:
    return transform.w_out.shape[1]


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
    obs = dynamics.transition(state.observation[None, :], np.array([state.age]),
                              np.array([action]))
    return State(obs[0], state.age + action)


def step_cost(cost_fn, state: State, action: int) -> float:
    """Any batch cost's cost of one step."""
    return float(cost_fn(state.observation[None, :], np.array([state.age]),
                         np.array([action]))[0])


def chain(dynamics, start: State, actions) -> AgingTrajectory:
    states = [start]
    for a in actions:
        states.append(step(dynamics, states[-1], a))
    return AgingTrajectory(states, list(actions))


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
