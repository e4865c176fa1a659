"""Registered gradient and oracle checks behind the CLI verification commands.

Every gradient check compares an analytic gradient against central finite
differences at rtol 1e-4 (absolute floor 1e-8); the oracle checks compare
fast implementations against brute-force or independent second
implementations.  Each check returns (name, passed, detail).
"""

from __future__ import annotations

import itertools

import numpy as np

from .flows import flow_forward, flow_nll, make_flow
from .irl import (
    AgingTrajectory,
    FunctionDynamics,
    PathBatch,
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


def _gradient_check(name: str, params, objective):
    """Compare the gradients of `objective() -> (value, grads)` with central differences
    of its own value over the arrays of `params`."""
    _, grads = objective()
    numeric = finite_diff_grad(lambda: objective()[0], [a for _, a in params], 1e-5)
    worst = max_violation(grads, numeric)
    return name, worst < 1.0, f"violation {worst:.3g}"


def check_flow_nll_grad(seed: int = 0):
    rng = np.random.default_rng(seed)
    flow = make_flow(rng, dim=4, n_units=2, hidden=6)
    # move off the zero-initialized identity point
    for _, arr in flow.parameters():
        arr += 0.05 * rng.standard_normal(arr.shape)
    xs = rng.standard_normal((5, 4))
    return _gradient_check("flow_nll_gradient", flow.parameters(), lambda: flow_nll(flow, xs))


def check_pair_objective_grad(seed: int = 1):
    rng = np.random.default_rng(seed)
    model = make_aging_model(rng, dim=4, n_actions=5, flow_units=2, hidden=6, factors=3)
    for _, arr in model.parameters():
        arr += 0.05 * rng.standard_normal(arr.shape)
    xp = rng.standard_normal((4, 4))
    xt = rng.standard_normal((4, 4))
    acts = rng.integers(0, 5, size=4)
    return _gradient_check("pair_objective_gradient", model.parameters(),
                           lambda: pair_objective_and_grads(model, xp, xt, acts,
                                                            constraint_weight=0.1))


def _toy_demo_world(seed: int):
    rng = np.random.default_rng(seed)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0.0, age_high=20.0, hidden=6)
    for _, arr in cost.parameters():
        arr *= 0.3
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0.0, age_high=20.0,
                             hidden=6)
    base = rng.standard_normal(3)
    dyn = FunctionDynamics(4, lambda obs, ages, actions: obs + 0.1 * actions[:, None])
    return cost, policy, dyn, base


def check_irl_objective_grad(seed: int = 2):
    cost, policy, dyn, base = _toy_demo_world(seed)
    pool = PathBatch.concat([sample_path_batch(policy, dyn, base[None, :], [0], 3, m=m, seed=s)
                             for m, s in ((4, seed), (6, seed + 1))])
    # demo row 3 is also an IS row, so its upstream sums a weight and -1/|demos|
    return _gradient_check("irl_objective_gradient", cost.parameters(),
                           lambda: irl_loss_and_grad(cost, pool, np.arange(4), np.arange(3, 10)))


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
    # a rounded random table: many equal-cost paths, for the tie-break
    ties = np.round(np.random.default_rng(seed).standard_normal((cfg.age_max, cfg.n_actions)))
    for i in range(7):
        sid = seed * 1000 + i
        arch = make_archetype(cfg, sid)
        dyn = WorldDynamics(cfg, arch)
        cost = archetype_cost(cfg, arch) if i < 6 else lambda obs, ages, acts: ties[ages, acts]
        age = cfg.age_min + 2 + i
        bf = brute_force_optimal_path(dyn, cost, dyn.obs_at(age), age, age + 12 + i,
                                      horizon_cap=4)
        dp = dp_optimal_path(dyn, cost, age, age + 12 + i, horizon_cap=4)
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
    total = 0.0
    for actions in itertools.product(range(3), repeat=3):
        ages = cfg.age_min + np.cumsum((0,) + actions)
        obs = np.stack([dyn.obs_at(a) for a in ages.tolist()])
        total += exact_sequence_prob(AgingTrajectory(obs, ages), cost, dyn)
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
        age = int(demo.ages[0])
        oracle = brute_force_optimal_path(dyn, cost, dyn.obs_at(age), age,
                                          int(demo.ages[-1]), cfg.horizon - 1)
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
