"""Registered gradient and oracle checks behind the CLI verification commands.

Every gradient check compares an analytic gradient against central finite
differences at rtol 1e-4 (absolute floor 1e-8); the oracle checks compare
fast implementations against brute-force or independent second
implementations.  Each check returns (name, passed, detail).
"""

from __future__ import annotations

import numpy as np

from .flows import flow_forward, flow_nll, flow_nll_value, make_flow
from .irl import (
    AgingTrajectory,
    FunctionDynamics,
    State,
    exact_sequence_prob,
    irl_loss_and_grad,
    make_cost_net,
    make_policy_net,
    sample_path_batch,
)
from .nets import finite_diff_grad
from .transform import make_aging_model, pair_objective_and_grads, transform_apply
from .world import (
    WorldConfig,
    WorldDynamics,
    archetype_cost,
    brute_force_optimal_path,
    dp_optimal_path,
    generate_subject,
    make_archetype,
)

RTOL = 1e-4
ATOL = 1e-8


def max_violation(analytic, numeric) -> float:
    """Largest elementwise excess over |a-b| <= rtol*max(|a|,|b|) + atol, scaled."""
    worst = 0.0
    for a, b in zip(analytic, numeric):
        tol = RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL
        worst = max(worst, float((np.abs(a - b) / tol).max()))
    return worst


def check_flow_nll_grad(seed: int = 0):
    rng = np.random.default_rng(seed)
    flow = make_flow(rng, dim=4, n_units=2, hidden=6)
    # move off the zero-initialized identity point
    for _, arr in flow.parameters():
        arr += 0.05 * rng.standard_normal(arr.shape)
    xs = rng.standard_normal((5, 4))
    _, grads = flow_nll(flow, xs)
    arrays = [a for _, a in flow.parameters()]
    numeric = finite_diff_grad(lambda: flow_nll_value(flow, xs), arrays, 1e-5)
    worst = max_violation(grads, numeric)
    return "flow_nll_gradient", worst < 1.0, f"violation {worst:.3g}"


def check_pair_objective_grad(seed: int = 1):
    rng = np.random.default_rng(seed)
    model = make_aging_model(rng, dim=4, n_actions=5, flow_units=2, hidden=6, factors=3)
    for _, arr in model.parameters():
        arr += 0.05 * rng.standard_normal(arr.shape)
    xp = rng.standard_normal((4, 4))
    xt = rng.standard_normal((4, 4))
    acts = rng.integers(0, 5, size=4)
    _, grads = pair_objective_and_grads(model, xp, xt, acts, constraint_weight=0.1)
    arrays = [a for _, a in model.parameters()]

    def loss() -> float:
        val, _ = pair_objective_and_grads(model, xp, xt, acts, constraint_weight=0.1)
        return val

    numeric = finite_diff_grad(loss, arrays, 1e-5)
    worst = max_violation(grads, numeric)
    return "pair_objective_gradient", worst < 1.0, f"violation {worst:.3g}"


def _toy_demo_world(seed: int):
    rng = np.random.default_rng(seed)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0.0, age_high=20.0, hidden=6)
    for _, arr in cost.parameters():
        arr *= 0.3
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0.0, age_high=20.0,
                             hidden=6)
    base = rng.standard_normal(3)
    dyn = FunctionDynamics(4, lambda obs, ages, actions: obs + 0.1 * actions[:, None])
    start = State(base, 0)
    return cost, policy, dyn, start


def check_irl_objective_grad(seed: int = 2):
    cost, policy, dyn, start = _toy_demo_world(seed)
    demos = sample_path_batch(policy, dyn, [start], 3, m=4, seed=seed)
    samples = sample_path_batch(policy, dyn, [start], 3, m=6, seed=seed + 1)
    _, grads = irl_loss_and_grad(cost, demos, samples)
    arrays = [a for _, a in cost.parameters()]

    def loss() -> float:
        val, _ = irl_loss_and_grad(cost, demos, samples)
        return val

    numeric = finite_diff_grad(loss, arrays, 1e-5)
    worst = max_violation(grads, numeric)
    return "irl_objective_gradient", worst < 1.0, f"violation {worst:.3g}"


def run_gradcheck(seed: int = 0) -> list[tuple[str, bool, str]]:
    return [
        check_flow_nll_grad(seed),
        check_pair_objective_grad(seed + 1),
        check_irl_objective_grad(seed + 2),
    ]


# ---------------------------------------------------------------------------
# Oracle checks
# ---------------------------------------------------------------------------

def check_logdet_vs_jacobian(seed: int = 0):
    rng = np.random.default_rng(seed)
    flow = make_flow(rng, dim=3, n_units=3, hidden=6)
    for _, arr in flow.parameters():
        arr += 0.1 * rng.standard_normal(arr.shape)
    x = rng.standard_normal(3)
    _, logdet = flow_forward(flow, x)
    eps = 1e-6
    jac = np.zeros((3, 3))
    for j in range(3):
        hi = x.copy(); hi[j] += eps
        lo = x.copy(); lo[j] -= eps
        z_hi, _ = flow_forward(flow, hi)
        z_lo, _ = flow_forward(flow, lo)
        jac[:, j] = (z_hi - z_lo) / (2 * eps)
    ref = float(np.log(abs(np.linalg.det(jac))))
    err = abs(logdet - ref) / max(abs(ref), 1e-8)
    return "logdet_vs_numeric_jacobian", err < RTOL, f"rel err {err:.3g}"


def full_3way_contraction(g, z: np.ndarray, action_index: int) -> np.ndarray:
    """Brute-force evaluation through the explicit 3-way tensor (oracle)."""
    d, f = g.w_out.shape
    na = g.w_act.shape[1]
    out = np.zeros(d)
    for i in range(d):
        acc = 0.0
        for j in range(d):
            for kk in range(na):
                w_ijk = 0.0
                for m in range(f):
                    w_ijk += g.w_out[i, m] * g.w_lat[m, j] * g.w_act[m, kk]
                acc += w_ijk * z[j] * (1.0 if kk == action_index else 0.0)
        out[i] = acc + g.bias[i]
    return out


def check_factorization_equivalence(seed: int = 0):
    from .transform import FactoredTransform

    rng = np.random.default_rng(seed)
    ok = True
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        f = int(rng.integers(1, 7))
        na = int(rng.integers(2, 7))
        g = FactoredTransform(rng.standard_normal((d, f)), rng.standard_normal((f, d)),
                              rng.standard_normal((f, na)), rng.standard_normal(d))
        z = rng.standard_normal(d)
        k = int(rng.integers(0, na))
        fast = transform_apply(g, z, k)
        slow = full_3way_contraction(g, z, k)
        ok = ok and np.allclose(fast, slow, rtol=1e-12, atol=1e-13)
        worst = max(worst, float(np.abs(fast - slow).max()))
    return "factored_vs_full_3way", ok, f"max abs diff {worst:.3g}"


def check_path_oracles_agree(seed: int = 0):
    cfg = WorldConfig()
    ok = True
    detail = ""
    for i in range(6):
        sid = seed * 1000 + i
        arch = make_archetype(cfg, sid)
        dyn = WorldDynamics(cfg, arch)
        cost = archetype_cost(cfg, arch)
        start = dyn.state_at(cfg.age_min + 2 + i)
        target = start.age + 12 + i
        bf = brute_force_optimal_path(dyn, cost, start, target, horizon_cap=4)
        dp = dp_optimal_path(dyn, cost, start, target, horizon_cap=4)
        if bf.actions != dp.actions:
            ok = False
            detail = f"subject {sid}: {bf.actions} vs {dp.actions}"
            break
    return "brute_force_vs_dp_path", ok, detail or "agree on all instances"


def check_gibbs_normalization(seed: int = 0):
    cfg = WorldConfig(n_actions=3)
    arch = make_archetype(cfg, seed)
    dyn = WorldDynamics(cfg, arch)
    cost = archetype_cost(cfg, arch)
    start = dyn.state_at(cfg.age_min)
    total = 0.0
    for idx in range(3**3):
        actions = []
        v = idx
        for _ in range(3):
            actions.append(v % 3)
            v //= 3
        states = [start]
        for a in actions[::-1]:
            states.append(dyn.state_at(states[-1].age + a))
        traj = AgingTrajectory(states, actions[::-1])
        total += exact_sequence_prob(traj, cost, dyn)
    err = abs(total - 1.0)
    return "gibbs_normalization", err < 1e-9, f"sum deviates by {err:.3g}"


def check_demo_optimality(seed: int = 0):
    cfg = WorldConfig()
    ok = True
    detail = "optimal on all instances"
    for i in range(4):
        sid = seed * 777 + i
        arch, demo = generate_subject(cfg, sid)
        dyn = WorldDynamics(cfg, arch)
        cost = archetype_cost(cfg, arch)
        oracle = brute_force_optimal_path(dyn, cost, dyn.state_at(demo.states[0].age),
                                          demo.states[-1].age, cfg.horizon - 1)
        if demo.actions != oracle.actions:
            ok = False
            detail = f"subject {sid}: demo {demo.actions} vs oracle {oracle.actions}"
            break
    return "demo_paths_are_optimal", ok, detail


def run_oracle_check(seed: int = 0) -> list[tuple[str, bool, str]]:
    return [
        check_logdet_vs_jacobian(seed),
        check_factorization_equivalence(seed),
        check_path_oracles_agree(seed),
        check_gibbs_normalization(seed),
        check_demo_optimality(seed),
    ]
