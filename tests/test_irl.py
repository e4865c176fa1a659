"""Sequence IRL: energies, enumeration, sampling, the importance-sampled
objective, policy refinement, the learning loop, planning, multi-input init."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from flowpath.errors import (
    BudgetError,
    DegenerateWeightsError,
    ShapeError,
    ValidationError,
)
from flowpath.evaluate import count_distinct_rows, synthesize_progressions
from flowpath import irl
from flowpath.flows import flow_forward, flow_inverse
from flowpath.irl import (
    AgingTrajectory,
    FunctionDynamics,
    ModelDynamics,
    PathBatch,
    ROLL_BLOCK,
    enumerate_energies,
    estimate_log_partition,
    exact_sequence_prob,
    irl_loss_and_grad,
    learn_aging_policy,
    log_mean_exp,
    make_cost_net,
    make_policy_net,
    multi_input_init,
    path_energies,
    path_log_proposals,
    path_log_weights,
    plan_path_batch,
    plan_rollout,
    policy_update,
    rollout,
    sample_path_batch,
    sample_trajectories,
    sequence_energy,
    split_age_gap,
    traj_log_proposal_density,
    weight_diagnostics,
    with_end_states,
)
from flowpath import nets
from flowpath.nets import Adam, DenseLayer, DenseNet, finite_diff_grad
from flowpath.transform import make_aging_model, synthesize_step

from conftest import assert_close
import reference
from reference import State, stacked


def line_dynamics(n_actions: int = 4, dim: int = 3, drift: float = 0.1):
    return FunctionDynamics(
        n_actions, lambda obs, ages, actions: obs + drift * actions[:, None])


def chain_traj(dyn, start: State, actions) -> AgingTrajectory:
    return reference.chain(dyn, start, actions)


def zero_cost(obs, ages, actions):
    return np.zeros(ages.size)


def with_log_q(trajs, log_q) -> PathBatch:
    """Trajectories as a batch carrying hand-set log proposal densities."""
    return dataclasses.replace(PathBatch.from_trajectories(trajs),
                               log_q=np.asarray(log_q, dtype=np.float64))


def pooled(demos: PathBatch, samples: PathBatch):
    """One pool of both batches and the `arange` index sets naming each."""
    return (PathBatch.concat([demos, samples]), np.arange(len(demos)),
            len(demos) + np.arange(len(samples)))


def proposal_density(traj: AgingTrajectory, policy) -> float:
    """exp of the batch log q of a single trajectory."""
    return math.exp(path_log_proposals(policy, PathBatch.from_trajectories([traj]))[0])


def biased_policy(dim: int, n_actions: int, favored: int, second: int | None = None,
                  strength: float = 12.0):
    """Zero-weight policy whose final bias makes `favored` the argmax."""
    policy = make_policy_net(np.random.default_rng(0), dim, n_actions,
                             age_low=0.0, age_high=100.0)
    policy.net.layers[-1].bias[favored] = strength
    if second is not None:
        policy.net.layers[-1].bias[second] = strength / 2
    return policy


@pytest.mark.parametrize("make", [make_cost_net, make_policy_net])
def test_nets_reject_an_empty_age_range(make):
    with pytest.raises(ValidationError, match="age_high must exceed age_low"):
        make(np.random.default_rng(0), 3, 4, age_low=20.0, age_high=20.0)


def test_trajectory_validation():
    s = State(np.zeros(2), 10)
    PathBatch.from_trajectories([reference.trajectory([s])])
    # actions are the age gaps, so ages and actions cannot disagree
    assert reference.trajectory([s, State(np.zeros(2), 12)]).actions == [2]
    with pytest.raises(ValidationError):
        AgingTrajectory(np.zeros((2, 2)), [10])
    with pytest.raises(ValidationError):
        PathBatch.from_trajectories([reference.trajectory([s, State(np.zeros(2), 30)])], 16)


def test_from_trajectories_names_the_row_and_step_of_a_bad_action():
    ok = AgingTrajectory(np.zeros((3, 2)), [10, 12, 15])
    for ages, n_actions, where in (([10, 12, 30], 16, "row 1, step 1"),
                                   ([10, 9, 12], None, "row 1, step 0"),
                                   ([10, 10, 10], 0, "row 0, step 0")):
        with pytest.raises(ValidationError, match=where):
            PathBatch.from_trajectories([ok, AgingTrajectory(np.zeros((3, 2)), ages)],
                                        n_actions)
    batch = PathBatch.from_trajectories([ok, AgingTrajectory(np.ones((1, 2)), [40])], 16)
    assert batch.actions.tolist() == [[2, 3], [0, 0]] and batch.lengths.tolist() == [2, 0]
    assert batch.ages.tolist() == [[10, 12, 15], [40, 0, 0]]
    for bad in (np.zeros((0, 2)), np.zeros(3), np.zeros((3, 2, 1))):
        with pytest.raises(ValidationError):
            AgingTrajectory(bad, np.arange(len(bad)))


def test_sequence_energy_empty_and_zero_net():
    s = State(np.zeros(3), 10)
    assert sequence_energy(reference.trajectory([s]),
                           lambda obs, ages, actions: np.full(ages.size, 99.0)) == 0.0
    cost = make_cost_net(np.random.default_rng(0), dim=3, n_actions=4,
                         age_low=0, age_high=60, hidden=6)
    for _, arr in cost.parameters():
        arr[...] = 0.0
    dyn = line_dynamics()
    traj = chain_traj(dyn, s, [1, 2, 3])
    assert sequence_energy(traj, cost) == 0.0


def test_sequence_energy_hand_evaluated():
    # 1 hidden relu unit, hand-set weights; features are (obs, age_unit, onehot)
    net = DenseNet([
        DenseLayer(np.array([[0.5, -0.25, 1.0, 0.2, 0.0, -0.1, 0.3]]),
                   np.array([0.1]), "relu"),
        DenseLayer(np.array([[2.0]]), np.array([-0.05]), "identity"),
    ])
    from flowpath.irl import CostNet

    cost = CostNet(net, n_actions=4, age_low=0.0, age_high=10.0)
    s0 = State(np.array([1.0, 2.0]), 2)
    s1 = State(np.array([-1.0, 0.5]), 5)
    s2 = State(np.array([0.0, 0.0]), 6)
    traj = reference.trajectory([s0, s1, s2])
    assert traj.actions == [3, 1]

    def hand_step(obs, age, action):
        feats = [obs[0], obs[1], age / 10.0] + [1.0 if i == action else 0.0
                                                for i in range(4)]
        w = [0.5, -0.25, 1.0, 0.2, 0.0, -0.1, 0.3]
        pre = sum(wi * fi for wi, fi in zip(w, feats)) + 0.1
        return 2.0 * max(pre, 0.0) - 0.05

    expected = hand_step([1.0, 2.0], 2, 3) + hand_step([-1.0, 0.5], 5, 1)
    assert abs(sequence_energy(traj, cost) - expected) < 1e-12


def test_exact_sequence_prob_uniform_and_normalized():
    dyn = line_dynamics(n_actions=3)
    start = State(np.zeros(3), 0)
    traj = chain_traj(dyn, start, [1, 2])
    assert abs(exact_sequence_prob(traj, zero_cost, dyn) - 1.0 / 9) < 1e-12
    total = 0.0
    for a1 in range(3):
        for a2 in range(3):
            t = chain_traj(dyn, start, [a1, a2])
            total += exact_sequence_prob(
                t, lambda obs, ages, actions: 0.3 * actions + 0.1 * ages, dyn)
    assert abs(total - 1.0) < 1e-12


def test_exact_sequence_prob_shift_invariance():
    dyn = line_dynamics(n_actions=3)
    start = State(np.zeros(3), 0)
    rng = np.random.default_rng(3)
    table = rng.standard_normal((40, 3))

    def cost(obs, ages, actions):
        return table[ages, actions]

    def shifted(obs, ages, actions):
        return cost(obs, ages, actions) + 1.7

    probs, probs_shifted = [], []
    for a1 in range(3):
        for a2 in range(3):
            for a3 in range(3):
                t = chain_traj(dyn, start, [a1, a2, a3])
                probs.append(exact_sequence_prob(t, cost, dyn))
                probs_shifted.append(exact_sequence_prob(t, shifted, dyn))
    probs = np.array(probs)
    probs_shifted = np.array(probs_shifted)
    assert np.all(np.abs(probs - probs_shifted) <= 1e-10 * probs)
    assert int(np.argmax(probs)) == int(np.argmax(probs_shifted))


def test_exact_sequence_prob_budget():
    dyn = line_dynamics(n_actions=16)
    start = State(np.zeros(3), 0)
    traj = chain_traj(dyn, start, [1] * 6)
    with pytest.raises(BudgetError):
        exact_sequence_prob(traj, zero_cost, dyn, budget=1000)


def test_proposal_density_uniform_and_empty():
    policy = make_policy_net(np.random.default_rng(0), dim=3, n_actions=16,
                             age_low=0, age_high=60)
    dyn = line_dynamics(n_actions=16)
    start = State(np.zeros(3), 0)
    traj = chain_traj(dyn, start, [3, 5, 2])
    assert abs(proposal_density(traj, policy) - (1 / 16) ** 3) < 1e-15
    single = reference.trajectory([start])
    assert proposal_density(single, policy) == 1.0


def test_proposal_density_sums_to_one_over_enumeration():
    rng = np.random.default_rng(9)
    policy = make_policy_net(rng, dim=3, n_actions=3, age_low=0, age_high=30,
                             uniform_init=False)
    dyn = line_dynamics(n_actions=3)
    start = State(rng.standard_normal(3), 0)
    total = 0.0
    for a1 in range(3):
        for a2 in range(3):
            for a3 in range(3):
                total += proposal_density(chain_traj(dyn, start, [a1, a2, a3]), policy)
    assert abs(total - 1.0) < 1e-10


def test_sampling_deterministic_and_seeded():
    rng = np.random.default_rng(1)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60,
                             uniform_init=False)
    dyn = line_dynamics()
    starts = [State(np.zeros(3), 5), State(np.ones(3), 9)]
    a = sample_trajectories(policy, dyn, *stacked(starts), horizon=3, m=8, seed=77)
    b = sample_trajectories(policy, dyn, *stacked(starts), horizon=3, m=8, seed=77)
    for ta, tb in zip(a, b):
        assert ta.actions == tb.actions
        PathBatch.from_trajectories([ta], 4)
    c = sample_trajectories(policy, dyn, *stacked(starts), horizon=3, m=8, seed=78)
    assert any(ta.actions != tc.actions for ta, tc in zip(a, c))


def test_sampling_one_hot_policy_identical_trajectories():
    policy = biased_policy(3, 4, favored=2, strength=200.0)
    dyn = line_dynamics()
    trajs = sample_trajectories(policy, dyn, np.zeros((1, 3)), [0], horizon=3, m=6, seed=0)
    for t in trajs:
        assert t.actions == [2, 2, 2]


def test_sampling_uniform_frequencies():
    policy = make_policy_net(np.random.default_rng(0), dim=3, n_actions=4,
                             age_low=0, age_high=60)
    dyn = line_dynamics()
    trajs = sample_trajectories(policy, dyn, np.zeros((1, 3)), [0], horizon=1,
                                m=10_000, seed=5)
    freq = np.bincount([t.actions[0] for t in trajs], minlength=4) / 10_000
    sigma = math.sqrt(0.25 * 0.75 / 10_000)
    assert np.all(np.abs(freq - 0.25) < 3 * sigma + 1e-12)


def zeroed_cost(dim=3, n_actions=4):
    cost = make_cost_net(np.random.default_rng(0), dim=dim, n_actions=n_actions,
                         age_low=0, age_high=60, hidden=6)
    for _, arr in cost.parameters():
        arr[...] = 0.0
    return cost


def test_irl_gradient_zero_net_closed_form():
    cost = zeroed_cost()
    dyn = line_dynamics()
    start = State(np.zeros(3), 0)
    demos = PathBatch.from_trajectories([chain_traj(dyn, start, [1, 2]) for _ in range(3)])
    samples = with_log_q([chain_traj(dyn, start, [a, 3 - a]) for a in range(4)],
                         [math.log(1 / 16)] * 4)
    loss, grads = irl_loss_and_grad(cost, *pooled(demos, samples))
    # with E == 0 all weights are equal; dE/dΓ has only the final bias term,
    # which equals the horizon for every trajectory, so the terms cancel
    names = [n for n, _ in cost.parameters()]
    for name, g in zip(names, grads):
        assert np.allclose(g, 0.0, atol=1e-12), name
    assert abs(loss - (0.0 - (math.log(np.exp(0) / (1 / 16)) ))) < 1e-12


def test_irl_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
    for _, arr in cost.parameters():
        arr *= 0.3
    dyn = line_dynamics()
    start = State(rng.standard_normal(3), 4)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60,
                             uniform_init=False)
    demos = sample_path_batch(policy, dyn, *stacked([start]), 3, m=4, seed=11)
    samples = sample_path_batch(policy, dyn, *stacked([start]), 3, m=7, seed=12)
    _, grads = irl_loss_and_grad(cost, *pooled(demos, samples))
    arrays = [a for _, a in cost.parameters()]
    numeric = finite_diff_grad(
        lambda: irl_loss_and_grad(cost, *pooled(demos, samples))[0], arrays, 1e-5)
    assert_close(grads, numeric, label="irl objective")


def test_irl_loss_and_grad_runs_the_cost_net_forward_once(monkeypatch):
    rng = np.random.default_rng(5)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60,
                             uniform_init=False)
    start = State(rng.standard_normal(3), 4)
    demos = sample_path_batch(policy, line_dynamics(), *stacked([start]), 3, m=4, seed=13)
    samples = sample_path_batch(policy, line_dynamics(), *stacked([start]), 3, m=7, seed=14)
    passes = []
    forward = nets._forward_cached

    def counted(net, x):
        passes.append(net)
        return forward(net, x)

    monkeypatch.setattr(nets, "_forward_cached", counted)  # reached through net_forward
    monkeypatch.setattr(irl, "_forward_cached", counted)
    for calls in (1, 2):
        irl_loss_and_grad(cost, *pooled(demos, samples))
        assert sum(net is cost.net for net in passes) == calls


def test_irl_degenerate_weights_error():
    cost = zeroed_cost()
    dyn = line_dynamics()
    start = State(np.zeros(3), 0)
    demos = PathBatch.from_trajectories([chain_traj(dyn, start, [1])])
    samples = [chain_traj(dyn, start, [2])]
    with pytest.raises(DegenerateWeightsError):
        irl_loss_and_grad(cost, *pooled(demos, with_log_q(samples, [math.inf])))  # q above 1
    with pytest.raises(DegenerateWeightsError):
        irl_loss_and_grad(cost, *pooled(demos, with_log_q(samples, [-math.inf])))


def irl_pool(seed: int):
    """A cost net and an 11-row pool of sampled paths of mixed lengths."""
    rng = np.random.default_rng(seed)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60,
                             uniform_init=False)
    starts = [State(rng.standard_normal(3), age) for age in (4, 9)]
    return cost, sample_path_batch(policy, line_dynamics(), *stacked(starts), [3, 1], m=11,
                                   seed=seed)


def test_irl_objective_scores_each_named_row_once(monkeypatch):
    """With the demo rows among the IS rows, as every inner step has them, the one
    forward pass sees each (row, step) pair of the union exactly once."""
    cost, pool = irl_pool(6)
    demos, samples = np.array([3, 0, 7]), np.array([3, 0, 7, 1, 7, 10])
    seen = []
    forward = nets._forward_cached

    def counted(net, x):
        seen.append(x.shape[0])
        return forward(net, x)

    monkeypatch.setattr(irl, "_forward_cached", counted)
    irl_loss_and_grad(cost, pool, demos, samples)
    assert seen == [int(pool.lengths[[0, 1, 3, 7, 10]].sum())]
    assert seen[0] < int(pool.lengths[demos].sum() + pool.lengths[samples].sum())


@pytest.mark.parametrize("demos, samples", [([1, 4], [1, 4, 5, 8]), ([0, 2], [4, 6, 9]),
                                            ([1, 1, 2], [2, 5, 5, 5, 10])],
                         ids=["overlapping", "disjoint", "repeated"])
def test_irl_objective_matches_the_two_batch_reference(demos, samples):
    cost, pool = irl_pool(7)
    loss, grads = irl_loss_and_grad(cost, pool, np.array(demos), np.array(samples))
    ref_loss, ref_grads = reference.irl_loss_and_grad(cost, pool.take(demos),
                                                      pool.take(samples))
    assert abs(loss - ref_loss) <= 1e-12
    for g, r in zip(grads, ref_grads, strict=True):
        assert np.abs(g - r).max() <= 1e-12


@pytest.mark.parametrize("demos, samples", [([], [0]), ([0], []), ([-1], [0]), ([0], [11]),
                                            ([0], [2, 12])],
                         ids=["no-demos", "no-samples", "negative", "at-len", "past-len"])
def test_irl_objective_refuses_empty_or_out_of_range_rows(demos, samples):
    cost, pool = irl_pool(8)
    with pytest.raises(ValidationError):
        irl_loss_and_grad(cost, pool, np.array(demos, dtype=np.int64),
                          np.array(samples, dtype=np.int64))


def test_partition_estimate_consistency_20_seeds():
    from flowpath.world import WorldConfig, WorldDynamics, make_archetype

    cfg = WorldConfig(n_actions=3)
    arch = make_archetype(cfg, 3)
    dyn = WorldDynamics(cfg, arch)
    rng = np.random.default_rng(9)
    cost = make_cost_net(rng, dim=cfg.dim, n_actions=3, age_low=cfg.age_min,
                         age_high=cfg.age_max, hidden=8)
    for _, arr in cost.parameters():
        arr *= 0.5
    age = cfg.age_min + 5
    energies = enumerate_energies(dyn.obs_at(age), age, 3, cost, dyn)
    log_z = float(np.log(np.exp(energies * -1).sum()))
    policy = make_policy_net(np.random.default_rng(1), dim=cfg.dim, n_actions=3,
                             age_low=cfg.age_min, age_high=cfg.age_max)
    errs = [abs(estimate_log_partition(cost, policy, dyn, dyn.obs_at(age), age, 3, n=2000,
                                       seed=s) - log_z) / abs(log_z)
            for s in range(20)]
    assert float(np.mean(errs)) < 0.05


def bandit_setup(n_actions=4, cost_values=(1.0, 0.0, 1.0, 1.0)):
    dyn = line_dynamics(n_actions=n_actions, drift=0.0)
    start = State(np.zeros(3), 0)
    table = np.asarray(cost_values, dtype=np.float64)

    def cost(obs, ages, actions):
        return table[actions]

    return dyn, start, cost, table


def test_policy_update_recovers_gibbs_on_bandit():
    dyn, start, cost, table = bandit_setup()
    policy = make_policy_net(np.random.default_rng(42), dim=3, n_actions=4,
                             age_low=0, age_high=10, uniform_init=False)
    opt = Adam(policy.parameters(), 0.05)
    for it in range(50):
        policy_update(policy, cost, dyn, *stacked([start]), [1], opt,
                      n_rollouts=128, n_steps=5, seed=1000 + it)
    p = reference.probs(policy, start)
    target = np.exp(-table)
    target /= target.sum()
    assert int(np.argmax(p)) == 1
    assert 0.5 * np.abs(p - target).sum() < 0.05


def test_policy_update_zero_cost_drives_to_uniform():
    dyn, start, _, _ = bandit_setup(n_actions=16, cost_values=[0.0] * 16)
    rng = np.random.default_rng(5)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=10,
                             uniform_init=False)
    for _, arr in policy.parameters():
        arr += 0.3 * np.random.default_rng(6).standard_normal(arr.shape)
    opt = Adam(policy.parameters(), 0.05)
    entropies = [reference.entropy(policy, start)]
    for it in range(60):
        policy_update(policy, zero_cost, dyn, *stacked([start]), [1], opt,
                      n_rollouts=256, n_steps=2, seed=2000 + it)
        entropies.append(reference.entropy(policy, start))
    # entropy climbs to ln 16 (monotone up to sampling noise)
    assert math.log(16) - entropies[-1] < 1e-3
    dips = [max(0.0, a - b) for a, b in zip(entropies, entropies[1:])]
    assert max(dips) < 5e-3
    assert entropies[-1] > entropies[0]


def policy_objective(policy, cost, dyn, start, seed):
    """Monte-Carlo E_q[E(ζ)] - H(q) over 512 one-step rollouts from `start`."""
    batch = sample_path_batch(policy, dyn, *stacked([start]), [1], m=512, seed=seed)
    return float(np.mean(path_energies(cost, batch) + batch.log_q))


def test_policy_update_objective_decreases_in_most_trials():
    dyn, start, cost, _ = bandit_setup()
    improved = 0
    for trial in range(10):
        policy = make_policy_net(np.random.default_rng(100 + trial), dim=3,
                                 n_actions=4, age_low=0, age_high=10,
                                 uniform_init=False)
        opt = Adam(policy.parameters(), 0.05)
        before = policy_objective(policy, cost, dyn, start, seed=trial)
        policy_update(policy, cost, dyn, *stacked([start]), [1], opt,
                      n_rollouts=128, n_steps=5, seed=50 + trial)
        after = policy_objective(policy, cost, dyn, start, seed=900 + trial)
        improved += after <= before
    assert improved >= 9


def test_learn_zero_iterations_is_noop():
    dyn = line_dynamics()
    start = State(np.zeros(3), 0)
    demos = [chain_traj(dyn, start, [1, 2])]
    rng = np.random.default_rng(0)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60)
    cost_before = [a.copy() for _, a in cost.parameters()]
    history = list(learn_aging_policy(
        PathBatch.from_trajectories(demos), cost, policy, dyn,
        iterations=range(0), inner_iters=3, sample_paths=4,
        demo_batch=1, sample_batch=2, policy_rollouts=4, policy_steps=2,
        cost_optimizer=Adam(cost.parameters()),
        policy_optimizer=Adam(policy.parameters()),
        rng=np.random.default_rng(1)))
    assert history == []
    for before, (_, after) in zip(cost_before, cost.parameters()):
        assert np.array_equal(before, after)
    probs = reference.probs(policy, start)
    assert np.allclose(probs, 0.25)


def test_learn_resumes_from_an_iteration_boundary():
    """Iterations 0-1, then an empty range, then iteration 2, continuing the same nets,
    optimizers and rng, equal one run over 0-2: metrics (wall clock aside), parameters
    bit for bit and the rng state.  The empty range yields nothing and changes nothing."""
    dyn = line_dynamics()
    starts = [State(np.full(3, 0.1 * i), 0) for i in range(3)]
    demos = PathBatch.from_trajectories([chain_traj(dyn, s, [1, 2]) for s in starts])

    def learner():
        rng = np.random.default_rng(5)
        cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
        policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60)
        opts = Adam(cost.parameters(), 1e-3), Adam(policy.parameters(), 0.05)
        loop_rng = np.random.default_rng(6)

        def run(iterations):
            return [dataclasses.replace(m, wall_seconds=0.0) for m in learn_aging_policy(
                demos, cost, policy, dyn, iterations=iterations, inner_iters=2,
                sample_paths=6, demo_batch=2, sample_batch=4, policy_rollouts=8,
                policy_steps=2, cost_optimizer=opts[0], policy_optimizer=opts[1],
                rng=loop_rng)]

        def state():
            return ([a.copy() for _, a in cost.parameters() + policy.parameters()],
                    loop_rng.bit_generator.state)
        return run, state

    run, state = learner()
    whole = run(range(0, 3))
    resumed_run, resumed_state = learner()
    first = resumed_run(range(0, 2))
    boundary = resumed_state()
    assert resumed_run(range(2, 2)) == []
    params, rng_state = resumed_state()
    assert all(np.array_equal(a, b) for a, b in zip(boundary[0], params))
    assert rng_state == boundary[1]
    assert first + resumed_run(range(2, 3)) == whole
    assert [m.iteration for m in whole] == [0, 1, 2]
    params, rng_state = resumed_state()
    expected, expected_rng = state()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params, expected))
    assert rng_state == expected_rng


def test_learn_separates_demo_energy_on_toy_world():
    # demos always take action 1; learned energy should prefer them
    dyn = line_dynamics()
    rng = np.random.default_rng(2)
    starts = [State(rng.standard_normal(3), 0) for _ in range(6)]
    demos = [chain_traj(dyn, s, [1, 1]) for s in starts]
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=20, hidden=8)
    for _, arr in cost.parameters():
        arr *= 0.3
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=20)
    history = list(learn_aging_policy(
        PathBatch.from_trajectories(demos), cost, policy, dyn,
        iterations=range(8), inner_iters=15, sample_paths=12,
        demo_batch=6, sample_batch=10, policy_rollouts=32, policy_steps=5,
        cost_optimizer=Adam(cost.parameters(), 2e-3),
        policy_optimizer=Adam(policy.parameters(), 0.05),
        rng=np.random.default_rng(3)))
    assert len(history) == 8
    uniform = make_policy_net(np.random.default_rng(0), dim=3, n_actions=4,
                              age_low=0, age_high=20)
    rollouts = sample_trajectories(uniform, dyn, *stacked(starts), [2] * len(starts),
                                   m=24, seed=9)
    demo_e = np.mean([sequence_energy(t, cost) for t in demos])
    roll_e = np.mean([sequence_energy(t, cost) for t in rollouts])
    assert demo_e < roll_e
    # the learned policy also concentrates on the demonstrated step size
    assert int(np.argmax(reference.probs(policy, starts[0]))) == 1


def test_plan_path_target_equals_start():
    policy = biased_policy(3, 16, favored=5)
    dyn = line_dynamics(n_actions=16)
    assert plan_rollout(policy, dyn, np.zeros(3), 30, 30)[0] == []


def test_plan_path_one_maximal_step():
    policy = biased_policy(3, 16, favored=15)
    dyn = line_dynamics(n_actions=16)
    assert plan_rollout(policy, dyn, np.zeros(3), 10, 25)[0] == [15]


def test_plan_path_masks_zero_action():
    policy = biased_policy(3, 16, favored=0, second=1)
    dyn = line_dynamics(n_actions=16)
    actions = plan_rollout(policy, dyn, np.zeros(3), 20, 26)[0]
    assert actions == [1] * 6
    assert len(actions) <= 26 - 20


def test_plan_path_overshoot_bound_and_bookkeeping():
    rng = np.random.default_rng(31)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    dyn = line_dynamics(n_actions=16)
    for target in (21, 34, 55):
        actions, observations, ages = plan_rollout(policy, dyn, rng.standard_normal(3), 20,
                                                   target)
        assert AgingTrajectory(observations, ages).actions == actions
        PathBatch.from_trajectories([AgingTrajectory(observations, ages)], 16)
        assert ages[-1] >= target
        assert ages[-1] - target < 16


def test_plan_path_rejects_deaging():
    policy = biased_policy(3, 16, favored=3)
    dyn = line_dynamics(n_actions=16)
    with pytest.raises(ValidationError):
        plan_rollout(policy, dyn, np.zeros(3), 30, 20)


def reference_plan(policy, dyn, start, target):
    """Plan one path alone: reference.probs, argmax with action 0 masked, reference.step."""
    states, actions = [start], []
    while states[-1].age < target:
        p = reference.probs(policy, states[-1])
        a = int(np.argmax(p))
        if a == 0:
            masked = p.copy()
            masked[0] = -np.inf
            a = int(np.argmax(masked))
        actions.append(a)
        states.append(reference.step(dyn, states[-1], a))
    return actions, states


@pytest.mark.parametrize("kind", ["model", "function"])
def test_plan_path_batch_matches_row_by_row_reference(kind):
    policy, dyn, _, base = engine_world(kind)
    rows = [(0, 12), (0, 13), (0, 40), (0, 75), (1, 30), (1, 61), (2, 90)]
    starts = [base[i] for i, _ in rows]
    targets = [t for _, t in rows]
    batch = with_end_states(dyn, plan_path_batch(policy, dyn, *stacked(starts), targets))
    assert len(batch) == len(rows)
    assert batch.actions.shape[1] == batch.lengths.max()
    assert batch.lengths[0] == 0
    assert len(set(batch.lengths.tolist()) - {0}) >= 3
    for i, (start, target) in enumerate(zip(starts, targets)):
        actions, states = reference_plan(policy, dyn, start, target)
        n = int(batch.lengths[i])
        assert batch.actions[i, :n].tolist() == actions
        assert batch.ages[i, :n + 1].tolist() == [s.age for s in states]
        ref_obs = np.stack([s.observation for s in states])
        assert np.abs(batch.observations[i, :n + 1] - ref_obs).max() < 1e-12
        single = plan_path_batch(policy, dyn, *stacked([start]),
                                 [target]).trajectories()[0]
        planned, visited_obs, visited_ages = plan_rollout(policy, dyn, start.observation,
                                                          start.age, target)
        assert planned == single.actions == actions
        assert visited_ages.tolist() == single.ages.tolist()
        assert np.array_equal(visited_obs, single.observations)


def test_plan_transitions_only_rows_short_of_their_target():
    """A plan synthesizes the states its rows act from, Σ max(lengths - 1, 0) of
    them, and leaves every end state zero until `with_end_states` fills it."""
    rng = np.random.default_rng(37)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    stepped = []

    def step(obs, ages, actions):
        stepped.append(actions.size)
        return np.tanh(obs + 0.05 * actions[:, None])

    dyn = FunctionDynamics(16, step)
    targets = [20, 21, 34, 55, 80, 99]
    batch = plan_path_batch(policy, dyn, rng.standard_normal((6, 3)), [20] * 6, targets)
    assert len(set(batch.lengths.tolist())) >= 4
    assert sum(stepped) == int(np.maximum(batch.lengths - 1, 0).sum())
    ends = batch.observations[np.arange(6), batch.lengths]
    assert not ends[batch.lengths > 0].any()
    assert with_end_states(dyn, batch) is batch
    assert stepped[-1] == np.count_nonzero(batch.lengths)
    for i, n in enumerate(batch.lengths.tolist()):
        if n:
            assert np.array_equal(batch.observations[i, n], np.tanh(
                batch.observations[i, n - 1] + 0.05 * batch.actions[i, n - 1]))


def test_plan_transitions_take_only_the_parents_they_step():
    """A plan transition's parents are the rows it steps, in order: P = K."""
    rng = np.random.default_rng(38)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    dyn = RecordingDynamics()
    batch = plan_path_batch(policy, dyn, rng.standard_normal((6, 3)), [20] * 6,
                            [20, 21, 34, 55, 80, 99])
    assert len(set(batch.lengths.tolist())) >= 4 and len(dyn.calls) >= 3
    for obs, ages, parents, actions in dyn.calls:
        assert len(obs) == len(ages) == parents.size == actions.size
        assert np.array_equal(parents, np.arange(parents.size))


def test_plan_path_batch_rejects_bad_input():
    policy = biased_policy(3, 16, favored=3)
    dyn = line_dynamics(n_actions=16)
    obs, ages = np.zeros((2, 3)), [30, 30]
    with pytest.raises(ValidationError):
        plan_path_batch(policy, dyn, np.zeros((0, 3)), [], [])
    with pytest.raises(ShapeError):
        plan_path_batch(policy, dyn, obs, ages, [40])
    with pytest.raises(ValidationError, match="de-aging"):
        plan_path_batch(policy, dyn, obs, ages, [40, 20])


@pytest.mark.parametrize("call", ["sample", "plan"])
def test_batch_entry_points_check_their_start_arrays(call):
    """Starts are (M, D) observations at (M,) ages with M >= 1, checked in one place."""
    policy = biased_policy(3, 16, favored=3)
    dyn = line_dynamics(n_actions=16)

    def run(obs, ages):
        if call == "sample":
            return sample_path_batch(policy, dyn, obs, ages, 2, m=4)
        return plan_path_batch(policy, dyn, obs, ages, [40] * len(ages))

    assert run(np.zeros((2, 3)), [30, 31]).ages[:2, 0].tolist() == [30, 31]
    with pytest.raises(ShapeError, match="starts need"):
        run(np.zeros(3), [30])
    with pytest.raises(ShapeError, match="starts need"):
        run(np.zeros((2, 3)), [30])
    with pytest.raises(ValidationError, match="at least one start"):
        run(np.zeros((0, 3)), [])


def test_synthesize_progressions_reads_every_age_off_one_path():
    model = multi_model(seed=41)
    dyn = ModelDynamics(model)
    rng = np.random.default_rng(42)
    policy = make_policy_net(rng, dim=5, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    ages_per_traj = [[12, 12, 20, 33], [30], [47, 50, 50, 70], [20, 21]]
    trajs = [reference.trajectory([State(rng.standard_normal(5), a) for a in ages])
             for ages in ages_per_traj]
    starts = [reference.states_of(t)[0] for t in trajs]
    paths = with_end_states(dyn, plan_path_batch(policy, dyn, *stacked(starts),
                                                 [t.ages[-1] for t in trajs]))
    obs, ages = synthesize_progressions(paths, PathBatch.from_trajectories(trajs))
    expected = [reference_plan(policy, dyn, start, s.age)[1][-1]
                for start, traj in zip(starts, trajs) for s in reference.states_of(traj)[1:]]
    assert len(ages) == len(obs) == len(expected) == 7
    for got_obs, got_age, ref in zip(obs, ages, expected):
        assert got_age == ref.age
        assert np.abs(got_obs - ref.observation).max() < 1e-12


def test_split_age_gap():
    assert split_age_gap(0, 15) == [0]
    assert split_age_gap(7, 15) == [7]
    assert split_age_gap(23, 15) == [15, 8]
    assert split_age_gap(45, 15) == [15, 15, 15]


def multi_model(seed=33, dim=5):
    rng = np.random.default_rng(seed)
    model = make_aging_model(rng, dim=dim, n_actions=16, flow_units=3, hidden=8,
                             factors=4)
    for _, arr in model.parameters():
        arr += 0.05 * rng.standard_normal(arr.shape)
    return model


def test_multi_input_singleton_reduces_to_roundtrip():
    model = multi_model()
    rng = np.random.default_rng(34)
    obs = rng.standard_normal(5)
    folded, age = multi_input_init([(obs, 24)], model)
    assert age == 24
    assert np.abs(folded - obs).max() < 1e-9
    # exact equality with the explicit encode/decode round trip
    z, _ = flow_forward(model.target_flow, obs)
    assert np.array_equal(folded, flow_inverse(model.target_flow, z))


def test_multi_input_sort_invariance():
    model = multi_model()
    rng = np.random.default_rng(35)
    inputs = [(rng.standard_normal(5), 40), (rng.standard_normal(5), 18),
              (rng.standard_normal(5), 29)]
    a_obs, a_age = multi_input_init(inputs, model)
    b_obs, b_age = multi_input_init([inputs[1], inputs[2], inputs[0]], model)
    assert a_age == b_age == 40
    assert np.array_equal(a_obs, b_obs)


FOLD_AGES = {2: [20, 44], 3: [15, 16, 40], 4: [10, 27, 28, 58]}  # gaps up to 24 > 15


@pytest.mark.parametrize("k", sorted(FOLD_AGES))
def test_multi_input_matches_the_one_at_a_time_reference(k):
    model = multi_model()
    rng = np.random.default_rng(37 + k)
    inputs = [(rng.standard_normal(5), age) for age in FOLD_AGES[k]]
    want, want_age = reference.multi_input_init(inputs, model)
    got, age = multi_input_init(inputs, model)
    assert age == want_age == FOLD_AGES[k][-1]
    assert np.abs(got - want).max() <= 1e-12
    for order in itertools.permutations(inputs):
        obs, age = multi_input_init(list(order), model)
        assert age == want_age and np.array_equal(obs, got)


def test_multi_input_refuses_an_input_of_the_wrong_shape():
    model = multi_model()
    with pytest.raises(ShapeError, match="length 5"):
        multi_input_init([(np.zeros(5), 20), (np.zeros(4), 30)], model)
    with pytest.raises(ShapeError, match="length 5"):
        multi_input_init([(np.zeros((1, 5)), 20)], model)


def test_multi_input_same_age_and_large_gap():
    model = multi_model()
    rng = np.random.default_rng(36)
    x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
    _, same_age = multi_input_init([(x1, 30), (x2, 30)], model)
    assert same_age == 30
    _, wide_age = multi_input_init([(x1, 10), (x2, 50)], model)  # gap 40 > 15
    assert wide_age == 50
    with pytest.raises(ValidationError):
        multi_input_init([], model)


def test_model_dynamics_age_bookkeeping():
    model = multi_model()
    dyn = ModelDynamics(model)
    s = State(np.random.default_rng(0).standard_normal(5), 12)
    nxt = reference.step(dyn, s, 7)
    assert nxt.age == 19
    rng_policy = make_policy_net(np.random.default_rng(4), dim=5, n_actions=16,
                                 age_low=0, age_high=100, uniform_init=False)
    traj = rollout(rng_policy, dyn, s.observation, s.age, 3, np.random.default_rng(8))
    PathBatch.from_trajectories([traj], 16)


def test_learn_wraps_inner_errors_with_iteration_index():
    from flowpath.irl import IrlIterationError

    dyn = line_dynamics()
    start = State(np.zeros(3), 0)
    demos = [chain_traj(dyn, start, [1, 2])]
    rng = np.random.default_rng(0)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60)
    with pytest.raises(IrlIterationError, match="iteration 0"):
        list(learn_aging_policy(
            PathBatch.from_trajectories(demos), cost, policy, dyn, iterations=range(2),
            inner_iters=1,
            sample_paths=2, demo_batch=1, sample_batch=1,
            policy_rollouts=0,  # invalid: rollout sampling raises inside iter 0
            policy_steps=1,
            cost_optimizer=Adam(cost.parameters()),
            policy_optimizer=Adam(policy.parameters()),
            rng=np.random.default_rng(1)))


# ---------------------------------------------------------------------------
# The lockstep engine against a row-by-row reference
# ---------------------------------------------------------------------------

def reference_paths(policy, dyn, cost, starts, horizons, m, seed):
    """Roll and score each path alone: reference.probs, a CDF search, reference.step.

    Row i reads row i of one (m, widest horizon) uniform matrix drawn from `seed`.
    """
    uniforms = np.random.default_rng(seed).random(
        (m, max(horizons[i % len(starts)] for i in range(m))))
    out = []
    for i in range(m):
        states, actions, log_q = [starts[i % len(starts)]], [], 0.0
        for t in range(horizons[i % len(starts)]):
            p = reference.probs(policy, states[-1])
            cdf = np.cumsum(p)
            a = int(np.searchsorted(cdf / cdf[-1], uniforms[i, t], side="right"))
            log_q += math.log(p[a])
            actions.append(a)
            states.append(reference.step(dyn, states[-1], a))
        energy = sum(reference.cost(cost, s, a) for s, a in zip(states, actions))
        out.append((actions, states, -energy - log_q))
    return out


def engine_world(kind: str):
    rng = np.random.default_rng(21)
    if kind == "model":
        dim, dyn = 5, ModelDynamics(multi_model(seed=22, dim=5))
    else:
        dim, dyn = 3, FunctionDynamics(
            16, lambda obs, ages, actions: np.tanh(obs + 0.05 * actions[:, None]))
    policy = make_policy_net(rng, dim=dim, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    cost = make_cost_net(rng, dim=dim, n_actions=16, age_low=0, age_high=100, hidden=8)
    starts = [State(rng.standard_normal(dim), age) for age in (12, 30, 47)]
    return policy, dyn, cost, starts


def assert_matches_reference(batch, reference, log_w, trajs):
    """The batch holds every reference state an action leaves from and zero
    end states; `trajs`, `sample_trajectories` on the same arguments, hold
    every reference state, end states included."""
    assert len(batch) == len(trajs) == len(reference)
    for i, (traj, (actions, states, ref_log_w), lw) in enumerate(zip(trajs, reference, log_w)):
        n = len(actions)
        assert batch.lengths[i] == n
        assert batch.actions[i, :n].tolist() == traj.actions == actions
        assert batch.ages[i, :n + 1].tolist() == traj.ages.tolist() == [s.age for s in states]
        for obs, r in zip(batch.observations[i, :n], states):
            assert np.abs(obs - r.observation).max() < 1e-12
        assert not batch.observations[i, n].any()
        for obs, r in zip(traj.observations, states):
            assert np.abs(obs - r.observation).max() < 1e-12
        assert abs(lw - ref_log_w) < 1e-12


@pytest.mark.parametrize("kind", ["model", "function"])
def test_engine_matches_row_by_row_reference_mixed_horizons(kind):
    policy, dyn, cost, starts = engine_world(kind)
    horizons = [1, 4, 2]
    batch = sample_path_batch(policy, dyn, *stacked(starts), horizons, m=11, seed=5)
    log_w = -path_energies(cost, batch) - batch.log_q
    reference = reference_paths(policy, dyn, cost, starts, horizons, 11, 5)
    trajs = sample_trajectories(policy, dyn, *stacked(starts), horizons, m=11, seed=5)
    assert_matches_reference(batch, reference, log_w, trajs)
    assert sorted(set(batch.lengths.tolist())) == [1, 2, 4]


@pytest.mark.parametrize("kind", ["model", "function"])
def test_engine_crosses_block_boundary(kind):
    policy, dyn, cost, starts = engine_world(kind)
    n = 300
    assert n > ROLL_BLOCK
    first = stacked(starts[:1])
    batch = sample_path_batch(policy, dyn, *first, 3, m=n, seed=8)
    log_w = path_log_weights(cost, sample_path_batch(policy, dyn, *first, 3, n, 8))
    reference = reference_paths(policy, dyn, cost, starts[:1], [3], n, 8)
    assert_matches_reference(batch, reference, log_w,
                             sample_trajectories(policy, dyn, *first, 3, m=n, seed=8))
    head = path_log_weights(cost, sample_path_batch(policy, dyn, *first, 3, 100, 8))
    assert np.abs(log_w[:100] - head).max() < 1e-12
    assert abs(estimate_log_partition(cost, policy, dyn, starts[0].observation, starts[0].age,
                                      3, n=n, seed=8) - log_mean_exp(log_w)) == 0.0


def test_engine_transitions_each_distinct_child_once():
    """Rows sharing a start index and an action prefix share one transition;
    equal start states at different indices stay apart, and no end state is
    synthesized."""
    rng = np.random.default_rng(31)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    cost = make_cost_net(rng, dim=3, n_actions=16, age_low=0, age_high=100, hidden=8)
    stepped = []

    def step(obs, ages, actions):
        stepped.extend(actions.tolist())
        return np.tanh(obs + 0.05 * actions[:, None])

    dyn = FunctionDynamics(16, step)
    twin = rng.standard_normal(3)
    starts = [State(twin, 20), State(rng.standard_normal(3), 35), State(twin.copy(), 20)]
    horizons = [3, 1, 2]
    n = 2 * ROLL_BLOCK + 13
    batch = sample_path_batch(policy, dyn, *stacked(starts), horizons, m=n, seed=9)
    # prefixes some row still acts from: every step but a row's last
    prefixes = {(i % len(starts), tuple(batch.actions[i, :t + 1].tolist()))
                for i, length in enumerate(batch.lengths.tolist()) for t in range(length - 1)}
    assert len(stepped) == len(prefixes) < int((batch.lengths - 1).sum())
    assert sorted(stepped) == sorted(prefix[-1] for _, prefix in prefixes)
    log_w = -path_energies(cost, batch) - batch.log_q
    assert_matches_reference(batch, reference_paths(policy, dyn, cost, starts, horizons, n, 9),
                             log_w, sample_trajectories(policy, dyn, *stacked(starts), horizons,
                                                        m=n, seed=9))


@pytest.mark.parametrize("kind", ["model", "function"])
def test_scores_never_read_end_states(kind):
    """NaN in every row's end state leaves energies, proposals, log weights and
    the IRL objective bit for bit as they were."""
    policy, dyn, cost, starts = engine_world(kind)
    samples = sample_path_batch(policy, dyn, *stacked(starts), [1, 4, 2], m=11, seed=5)
    demos = PathBatch.from_trajectories(
        [chain_traj(dyn, s, actions) for s, actions in zip(starts, ([3], [2, 5, 1], [7, 7]))])

    def poisoned(batch):
        obs = batch.observations.copy()
        obs[np.arange(len(batch)), batch.lengths] = np.nan
        return dataclasses.replace(batch, observations=obs)

    def scores(demos, samples):
        loss, grads = irl_loss_and_grad(cost, *pooled(demos, samples))
        return [path_energies(cost, samples), path_log_proposals(policy, samples),
                path_log_weights(cost, samples), path_energies(cost, demos),
                path_log_proposals(policy, demos), np.array(loss), *grads]

    assert not samples.observations[np.arange(len(samples)), samples.lengths].any()
    for clean, dirty in zip(scores(demos, samples), scores(poisoned(demos), poisoned(samples))):
        assert clean.tobytes() == dirty.tobytes()


def test_learning_synthesizes_only_states_it_acts_from(monkeypatch):
    """A whole `learn_aging_policy` run over mixed horizons builds its starts'
    children once, in one `_expand` over M n_actions rows before any sampling,
    and hands that one table to every sampling call; each sampling call then
    makes one transition row per distinct (start, action prefix of length >= 2)
    some row acts from next, and every child it synthesizes is a state a
    sampled row acts from."""
    rng = np.random.default_rng(41)
    made = []  # (children, their ages) of every transition call

    def step(obs, ages, actions):
        made.append((np.tanh(obs + 0.05 * actions[:, None]), ages + actions))
        return made[-1][0]

    dyn = FunctionDynamics(16, step)
    starts = [State(rng.standard_normal(3), age) for age in (12, 20, 31, 44)]
    demos = PathBatch.from_trajectories([chain_traj(line_dynamics(16), s, [2] * h)
                                         for s, h in zip(starts, (3, 1, 2, 3))])
    cost = make_cost_net(rng, dim=3, n_actions=16, age_low=0, age_high=100, hidden=8)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=100)
    sampled, expand = irl.sample_path_batch, irl._expand
    expands, tables, widths = [], [], []

    def recorded_expand(dynamics, obs, ages, parents, actions):
        expands.append((len(tables), parents.size))  # sampling calls begun so far
        return expand(dynamics, obs, ages, parents, actions)

    def checked_sample(*args, **kwargs):
        tables.append(kwargs["children"])
        first = len(made)
        batch = sampled(*args, **kwargs)
        calls = made[first:]
        prefixes = {(i % len(starts), tuple(batch.actions[i, :t + 1].tolist()))
                    for i, n in enumerate(batch.lengths.tolist()) for t in range(1, n - 1)}
        assert sum(ages.size for _, ages in calls) == len(prefixes)
        rows, steps = batch.pairs()
        acted = {(batch.observations[r, t].tobytes(), int(batch.ages[r, t]))
                 for r, t in zip(rows.tolist(), steps.tolist()) if t > 1}
        assert {(o.tobytes(), int(a)) for obs, ages in calls for o, a in zip(obs, ages)} == acted
        widths.append((len(prefixes), max(ages.size for _, ages in calls)))
        return batch

    monkeypatch.setattr(irl, "_expand", recorded_expand)
    monkeypatch.setattr(irl, "sample_path_batch", checked_sample)
    list(learn_aging_policy(
        demos, cost, policy, dyn, iterations=range(2), inner_iters=2, sample_paths=1000,
        demo_batch=2, sample_batch=8, policy_rollouts=24, policy_steps=2,
        cost_optimizer=Adam(cost.parameters(), 1e-3),
        policy_optimizer=Adam(policy.parameters(), 0.05), rng=np.random.default_rng(42)))
    assert [size for begun, size in expands if begun == 0] == [len(starts) * 16]
    assert len(tables) == 2 * (1 + 2) and all(table is tables[0] for table in tables)
    assert tables[0].shape == (len(starts) * 16, 3)
    assert max(prefixes for prefixes, _ in widths) > ROLL_BLOCK  # a level took several calls
    assert max(largest for _, largest in widths) <= ROLL_BLOCK


def start_table(dyn, obs, ages):
    """Every start's children, one fresh transition per (start, action)."""
    n = dyn.n_actions
    return np.concatenate([dyn.transition(obs[s:s + 1], ages[s:s + 1], np.zeros(1, np.int64),
                                          np.array([a])) for s in range(len(ages))
                           for a in range(n)])


@pytest.mark.parametrize("kind", ["model", "function"])
def test_learning_table_rows_equal_fresh_transitions(kind, monkeypatch):
    """The table the stage hands its sampling calls holds, at row s n + a, start
    s's child by action a, as a one-row transition makes it."""
    policy, dyn, cost, starts = engine_world(kind)
    demos = PathBatch.from_trajectories([chain_traj(line_dynamics(16, dim=len(s.observation)), s,
                                                    [2] * h) for s, h in zip(starts, (3, 1, 2))])
    sampled, tables = irl.sample_path_batch, []

    def recording(*args, **kwargs):
        tables.append(kwargs["children"])
        return sampled(*args, **kwargs)

    monkeypatch.setattr(irl, "sample_path_batch", recording)
    list(learn_aging_policy(
        demos, cost, policy, dyn, iterations=range(1), inner_iters=1, sample_paths=40,
        demo_batch=2, sample_batch=8, policy_rollouts=8, policy_steps=1,
        cost_optimizer=Adam(cost.parameters(), 1e-3),
        policy_optimizer=Adam(policy.parameters(), 0.05), rng=np.random.default_rng(43)))
    obs, ages = stacked(starts)
    assert tables[0].shape == (len(starts) * 16, obs.shape[1])
    assert np.abs(tables[0] - start_table(dyn, obs, ages)).max() < 1e-12


@pytest.mark.parametrize("kind", ["model", "function"])
def test_sampling_from_the_start_table_matches_synthesis(kind):
    """A batch whose first steps read the starts' table and one that
    synthesizes them, from the same seed, take the same actions and visit the
    same states to float rounding."""
    policy, dyn, cost, starts = engine_world(kind)
    obs, ages = stacked(starts)
    fed = sample_path_batch(policy, dyn, obs, ages, [3, 1, 2], m=300, seed=12,
                            children=start_table(dyn, obs, ages))
    rolled = sample_path_batch(policy, dyn, obs, ages, [3, 1, 2], m=300, seed=12)
    assert np.array_equal(fed.actions, rolled.actions)
    assert np.array_equal(fed.lengths, rolled.lengths)
    assert np.array_equal(fed.ages, rolled.ages)
    assert np.abs(fed.observations - rolled.observations).max() < 1e-12
    assert np.abs(fed.log_q - rolled.log_q).max() < 1e-12


def test_start_table_of_the_wrong_shape_is_refused():
    policy, dyn, cost, starts = engine_world("function")
    obs, ages = stacked(starts)
    table = start_table(dyn, obs, ages)
    for bad in (table[:-1], table[:, :2], table.ravel(), np.concatenate([table, table])):
        with pytest.raises(ShapeError, match="start-children table"):
            sample_path_batch(policy, dyn, obs, ages, 2, m=5, seed=1, children=bad)
        with pytest.raises(ShapeError, match="start-children table"):
            policy_update(policy, cost, dyn, obs, ages, [2, 2, 2], Adam(policy.parameters(), 0.1),
                          n_rollouts=4, n_steps=1, children=bad)


@pytest.mark.parametrize("kind", ["model", "function"])
def test_engine_chunk_size_changes_speed_only(kind, monkeypatch):
    policy, dyn, cost, starts = engine_world(kind)
    n = 300

    def run():
        obs, ages = stacked(starts)
        return (sample_path_batch(policy, dyn, obs, ages, [3, 1, 2], m=n, seed=4),
                path_log_weights(cost, sample_path_batch(policy, dyn, obs[:1], ages[:1], 3, n,
                                                         6)))

    batch, log_w = run()
    monkeypatch.setattr(irl, "ROLL_BLOCK", 7)
    small_batch, small_log_w = run()
    assert np.array_equal(small_batch.actions, batch.actions)
    assert np.array_equal(small_batch.lengths, batch.lengths)
    assert np.array_equal(small_batch.ages, batch.ages)
    assert np.abs(small_batch.observations - batch.observations).max() < 1e-12
    assert np.abs(small_batch.log_q - batch.log_q).max() < 1e-12
    assert np.abs(small_log_w - log_w).max() < 1e-12


def test_engine_log_q_matches_rescoring():
    policy, dyn, cost, starts = engine_world("function")
    batch = sample_path_batch(policy, dyn, *stacked(starts), [3, 1, 2], m=9, seed=3)
    rescored = [traj_log_proposal_density(t, policy) for t in batch.trajectories()]
    assert np.abs(batch.log_q - rescored).max() < 1e-12
    assert np.abs(path_log_proposals(policy, batch) - rescored).max() < 1e-12


def test_weight_diagnostics_equal_and_dominant():
    ess, max_w = weight_diagnostics(np.full(50, -3.7))
    assert ess == 50.0
    assert abs(max_w - 1 / 50) < 1e-15
    dominant = np.full(50, -60.0)
    dominant[7] = 0.0
    ess, max_w = weight_diagnostics(dominant)
    assert abs(ess - 1.0) < 1e-12
    assert abs(max_w - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# The parent-indexed transition protocol
# ---------------------------------------------------------------------------

PARENTS = np.array([2, 0, 2, 1, 0, 2, 2])  # repeated and out of order


class RecordingDynamics:
    """Tanh-drift dynamics that records every transition call's arguments."""

    def __init__(self, n_actions: int = 16):
        self.n_actions = n_actions
        self.calls = []  # (obs, ages, parents, actions)

    def transition(self, obs, ages, parents, actions):
        self.calls.append((obs.copy(), ages.copy(), parents.copy(), actions.copy()))
        return np.tanh(obs[parents] + 0.05 * actions[:, None])


def test_function_dynamics_steps_each_child_from_its_parent_row():
    def fn(obs, ages, actions):
        return np.tanh(obs + 0.05 * actions[:, None]) + 0.01 * ages[:, None]

    rng = np.random.default_rng(51)
    dyn = FunctionDynamics(16, fn)
    obs, ages = rng.standard_normal((3, 4)), np.array([12, 30, 47])
    actions = rng.integers(0, 16, PARENTS.size)
    out = dyn.transition(obs, ages, PARENTS, actions)
    assert out.shape == (PARENTS.size, 4)
    for k, (p, a) in enumerate(zip(PARENTS.tolist(), actions.tolist())):
        assert np.array_equal(out[k], fn(obs[p:p + 1], ages[p:p + 1], np.array([a]))[0])


def test_world_dynamics_reads_the_curve_at_each_childs_age():
    from flowpath.world import WorldConfig, WorldDynamics, make_archetype, observe

    cfg = WorldConfig()
    arch = make_archetype(cfg, 5)
    dyn = WorldDynamics(cfg, arch)
    ages = np.array([14, 22, 39])
    actions = np.random.default_rng(52).integers(0, cfg.n_actions, PARENTS.size)
    out = dyn.transition(np.full((3, cfg.dim), np.nan), ages, PARENTS, actions)
    assert np.array_equal(out, np.stack([observe(cfg, arch, int(a))
                                         for a in ages[PARENTS] + actions]))


def test_model_dynamics_equals_synthesis_of_the_gathered_rows():
    model = multi_model(seed=53, dim=5)
    rng = np.random.default_rng(54)
    obs, ages = rng.standard_normal((3, 5)), np.array([12, 30, 47])
    actions = rng.integers(0, 16, PARENTS.size)
    out = ModelDynamics(model).transition(obs, ages, PARENTS, actions)
    assert np.abs(out - synthesize_step(model, obs[PARENTS], actions)).max() < 1e-12


def test_sampling_passes_each_distinct_parent_once_per_chunk(monkeypatch):
    """Every transition call of the engine takes at most ROLL_BLOCK children,
    sorted by parent, and whole parents: each distinct parent state of a level
    is passed in exactly one call of that level.  A parent with more than
    ROLL_BLOCK children gets a call of its own."""
    policy, _, _, starts = engine_world("function")
    dyn = RecordingDynamics()
    levels = []  # [first, last) of each _expand call's transition calls
    expand = irl._expand

    def recorded(*args):
        first = len(dyn.calls)
        out = expand(*args)
        levels.append((first, len(dyn.calls)))
        return out

    monkeypatch.setattr(irl, "_expand", recorded)
    batch = sample_path_batch(policy, dyn, *stacked(starts), [4, 1, 3], m=1500, seed=10)
    assert max(parents.size for _, _, parents, _ in dyn.calls) <= ROLL_BLOCK
    assert max(hi - lo for lo, hi in levels) > 1  # some level was cut into several calls
    for lo, hi in levels:
        states = [(o.tobytes(), int(a)) for obs, ages, _, _ in dyn.calls[lo:hi]
                  for o, a in zip(obs, ages)]
        assert len(set(states)) == len(states)
    for obs, ages, parents, actions in dyn.calls:
        assert np.array_equal(np.unique(parents), np.arange(len(obs)))
        assert np.all(np.diff(parents) >= 0)
    same = sample_path_batch(policy, FunctionDynamics(16, lambda obs, ages, actions: np.tanh(
        obs + 0.05 * actions[:, None])), *stacked(starts), [4, 1, 3], m=1500, seed=10)
    assert np.array_equal(batch.observations, same.observations)

    dyn.calls.clear()
    monkeypatch.setattr(irl, "ROLL_BLOCK", 7)
    sample_path_batch(policy, dyn, *stacked(starts), [4, 1, 3], m=1500, seed=10)
    assert all(len(obs) == 1 for obs, _, parents, _ in dyn.calls if parents.size > 7)
    assert max(parents.size for _, _, parents, _ in dyn.calls) > 7


def test_enumeration_passes_each_live_node_once_per_level():
    """The transitions that make level d's live states take level d-1's live
    rows once each (P of them) and their n children each (K = P n)."""
    dyn = RecordingDynamics(n_actions=4)
    marks = [(live.size, len(dyn.calls)) for _, _, live in
             irl.enumerate_levels(dyn, zero_cost, np.full(3, 0.2), 20, depth=6)]
    assert max(parents.size for _, _, parents, _ in dyn.calls) == ROLL_BLOCK
    for (before, _), (live, lo), (_, hi) in zip(marks, marks[1:], marks[2:]):
        calls = dyn.calls[lo:hi]
        assert sum(len(obs) for obs, _, _, _ in calls) == before
        assert sum(parents.size for _, _, parents, _ in calls) == live == before * 4


@pytest.mark.parametrize("seed", range(4))
def test_count_distinct_rows_equals_unique(seed):
    rng = np.random.default_rng(seed)
    for m, t in ((0, 3), (1, 1), (9, 2), (400, 4), (2000, 6)):
        a = rng.integers(0, 3, (m, t))
        a[:, t // 2:][rng.random(m) < 0.3] = 0  # padding past a shorter length
        a[rng.random(m) < 0.1] = 0  # all-padding rows
        a[rng.integers(0, max(m, 1), m // 3)] = a[:1]  # repeats of the first row
        assert count_distinct_rows(a) == len(np.unique(a, axis=0))
