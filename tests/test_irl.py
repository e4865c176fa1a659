"""Sequence IRL: energies, enumeration, sampling, the importance-sampled
objective, policy refinement, the learning loop, planning, multi-input init."""

import dataclasses
import math

import numpy as np
import pytest

from flowpath.errors import (
    BudgetError,
    DegenerateWeightsError,
    ShapeError,
    ValidationError,
)
from flowpath.evaluate import synthesize_progressions
from flowpath import irl
from flowpath.flows import flow_forward, flow_inverse
from flowpath.irl import (
    AgingTrajectory,
    FunctionDynamics,
    ModelDynamics,
    PathBatch,
    ROLL_BLOCK,
    State,
    enumerate_energies,
    estimate_log_partition,
    exact_sequence_prob,
    irl_loss_and_grad,
    learn_aging_policy,
    log_mean_exp,
    make_cost_net,
    make_policy_net,
    multi_input_init,
    partition_log_weights,
    path_energies,
    path_log_proposals,
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
)
from flowpath.nets import Adam, DenseLayer, DenseNet, finite_diff_grad
from flowpath.transform import make_aging_model

from conftest import assert_close
import reference


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
    AgingTrajectory([s], []).validate()
    with pytest.raises(ValidationError):
        AgingTrajectory([s, State(np.zeros(2), 12)], [3]).validate()
    with pytest.raises(ValidationError):
        AgingTrajectory([s, State(np.zeros(2), 12)], [2, 2]).validate()
    with pytest.raises(ValidationError):
        AgingTrajectory([s, State(np.zeros(2), 30)], [20]).validate(16)


def test_sequence_energy_empty_and_zero_net():
    s = State(np.zeros(3), 10)
    assert sequence_energy(AgingTrajectory([s], []),
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
    traj = AgingTrajectory([s0, s1, s2], [3, 1])

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
    single = AgingTrajectory([start], [])
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
    a = sample_trajectories(policy, dyn, starts, horizon=3, m=8, seed=77)
    b = sample_trajectories(policy, dyn, starts, horizon=3, m=8, seed=77)
    for ta, tb in zip(a, b):
        assert ta.actions == tb.actions
        ta.validate(4)
    c = sample_trajectories(policy, dyn, starts, horizon=3, m=8, seed=78)
    assert any(ta.actions != tc.actions for ta, tc in zip(a, c))


def test_sampling_one_hot_policy_identical_trajectories():
    policy = biased_policy(3, 4, favored=2, strength=200.0)
    dyn = line_dynamics()
    trajs = sample_trajectories(policy, dyn, [State(np.zeros(3), 0)], horizon=3,
                                m=6, seed=0)
    for t in trajs:
        assert t.actions == [2, 2, 2]


def test_sampling_uniform_frequencies():
    policy = make_policy_net(np.random.default_rng(0), dim=3, n_actions=4,
                             age_low=0, age_high=60)
    dyn = line_dynamics()
    trajs = sample_trajectories(policy, dyn, [State(np.zeros(3), 0)], horizon=1,
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
    loss, grads = irl_loss_and_grad(cost, demos, samples)
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
    demos = sample_path_batch(policy, dyn, [start], 3, m=4, seed=11)
    samples = sample_path_batch(policy, dyn, [start], 3, m=7, seed=12)
    _, grads = irl_loss_and_grad(cost, demos, samples)
    arrays = [a for _, a in cost.parameters()]
    numeric = finite_diff_grad(
        lambda: irl_loss_and_grad(cost, demos, samples)[0], arrays, 1e-5)
    assert_close(grads, numeric, label="irl objective")


def test_irl_degenerate_weights_error():
    cost = zeroed_cost()
    dyn = line_dynamics()
    start = State(np.zeros(3), 0)
    demos = PathBatch.from_trajectories([chain_traj(dyn, start, [1])])
    samples = [chain_traj(dyn, start, [2])]
    with pytest.raises(DegenerateWeightsError):
        irl_loss_and_grad(cost, demos, with_log_q(samples, [math.inf]))  # q density above 1
    with pytest.raises(DegenerateWeightsError):
        irl_loss_and_grad(cost, demos, with_log_q(samples, [-math.inf]))


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
    start = dyn.state_at(cfg.age_min + 5)
    energies = enumerate_energies(start, 3, cost, dyn)
    log_z = float(np.log(np.exp(energies * -1).sum()))
    policy = make_policy_net(np.random.default_rng(1), dim=cfg.dim, n_actions=3,
                             age_low=cfg.age_min, age_high=cfg.age_max)
    errs = [abs(estimate_log_partition(cost, policy, dyn, start, 3, n=2000,
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
        policy_update(policy, cost, dyn, [start], [1], opt, n_rollouts=128,
                      n_steps=5, seed=1000 + it)
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
        policy_update(policy, zero_cost, dyn, [start], [1], opt,
                      n_rollouts=256, n_steps=2, seed=2000 + it)
        entropies.append(reference.entropy(policy, start))
    # entropy climbs to ln 16 (monotone up to sampling noise)
    assert math.log(16) - entropies[-1] < 1e-3
    dips = [max(0.0, a - b) for a, b in zip(entropies, entropies[1:])]
    assert max(dips) < 5e-3
    assert entropies[-1] > entropies[0]


def policy_objective(policy, cost, dyn, start, seed):
    """Monte-Carlo E_q[E(ζ)] - H(q) over 512 one-step rollouts from `start`."""
    batch = sample_path_batch(policy, dyn, [start], [1], m=512, seed=seed)
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
        policy_update(policy, cost, dyn, [start], [1], opt, n_rollouts=128,
                      n_steps=5, seed=50 + trial)
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
    history = learn_aging_policy(
        demos, cost, policy, dyn, outer_iters=0, inner_iters=3, sample_paths=4,
        demo_batch=1, sample_batch=2, policy_rollouts=4, policy_steps=2,
        cost_optimizer=Adam(cost.parameters()),
        policy_optimizer=Adam(policy.parameters()),
        rng=np.random.default_rng(1))
    assert history == []
    for before, (_, after) in zip(cost_before, cost.parameters()):
        assert np.array_equal(before, after)
    probs = reference.probs(policy, start)
    assert np.allclose(probs, 0.25)


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
    history = learn_aging_policy(
        demos, cost, policy, dyn, outer_iters=8, inner_iters=15, sample_paths=12,
        demo_batch=6, sample_batch=10, policy_rollouts=32, policy_steps=5,
        cost_optimizer=Adam(cost.parameters(), 2e-3),
        policy_optimizer=Adam(policy.parameters(), 0.05),
        rng=np.random.default_rng(3))
    assert len(history) == 8
    uniform = make_policy_net(np.random.default_rng(0), dim=3, n_actions=4,
                              age_low=0, age_high=20)
    rollouts = sample_trajectories(uniform, dyn, starts, [2] * len(starts),
                                   m=24, seed=9)
    demo_e = np.mean([sequence_energy(t, cost) for t in demos])
    roll_e = np.mean([sequence_energy(t, cost) for t in rollouts])
    assert demo_e < roll_e
    # the learned policy also concentrates on the demonstrated step size
    assert int(np.argmax(reference.probs(policy, starts[0]))) == 1


def test_plan_path_target_equals_start():
    policy = biased_policy(3, 16, favored=5)
    dyn = line_dynamics(n_actions=16)
    assert plan_rollout(policy, dyn, State(np.zeros(3), 30), 30)[0] == []


def test_plan_path_one_maximal_step():
    policy = biased_policy(3, 16, favored=15)
    dyn = line_dynamics(n_actions=16)
    assert plan_rollout(policy, dyn, State(np.zeros(3), 10), 25)[0] == [15]


def test_plan_path_masks_zero_action():
    policy = biased_policy(3, 16, favored=0, second=1)
    dyn = line_dynamics(n_actions=16)
    start = State(np.zeros(3), 20)
    actions = plan_rollout(policy, dyn, start, 26)[0]
    assert actions == [1] * 6
    assert len(actions) <= 26 - 20


def test_plan_path_overshoot_bound_and_bookkeeping():
    rng = np.random.default_rng(31)
    policy = make_policy_net(rng, dim=3, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    dyn = line_dynamics(n_actions=16)
    for target in (21, 34, 55):
        actions, states = plan_rollout(policy, dyn, State(rng.standard_normal(3), 20),
                                       target)
        AgingTrajectory(states, actions).validate(16)
        assert states[-1].age >= target
        assert states[-1].age - target < 16


def test_plan_path_rejects_deaging():
    policy = biased_policy(3, 16, favored=3)
    dyn = line_dynamics(n_actions=16)
    with pytest.raises(ValidationError):
        plan_rollout(policy, dyn, State(np.zeros(3), 30), 20)


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
    batch = plan_path_batch(policy, dyn, starts, targets)
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
        single = plan_path_batch(policy, dyn, [start], [target]).trajectories()[0]
        planned, visited = plan_rollout(policy, dyn, start, target)
        assert planned == single.actions == actions
        assert [s.age for s in visited] == [s.age for s in single.states]
        assert all(np.array_equal(a.observation, b.observation)
                   for a, b in zip(visited, single.states))


def test_plan_path_batch_rejects_bad_input():
    policy = biased_policy(3, 16, favored=3)
    dyn = line_dynamics(n_actions=16)
    start = State(np.zeros(3), 30)
    with pytest.raises(ValidationError):
        plan_path_batch(policy, dyn, [], [])
    with pytest.raises(ShapeError):
        plan_path_batch(policy, dyn, [start, start], [40])
    with pytest.raises(ValidationError, match="de-aging"):
        plan_path_batch(policy, dyn, [start, start], [40, 20])


def test_synthesize_progressions_reads_every_age_off_one_path():
    model = multi_model(seed=41)
    dyn = ModelDynamics(model)
    rng = np.random.default_rng(42)
    policy = make_policy_net(rng, dim=5, n_actions=16, age_low=0, age_high=100,
                             uniform_init=False)
    ages_per_traj = [[12, 12, 20, 33], [30], [47, 50, 50, 70], [20, 21]]
    trajs = [AgingTrajectory([State(rng.standard_normal(5), a) for a in ages],
                             [b - a for a, b in zip(ages, ages[1:])])
             for ages in ages_per_traj]
    paths = plan_path_batch(policy, dyn, [t.states[0] for t in trajs],
                            [t.states[-1].age for t in trajs])
    obs, ages = synthesize_progressions(paths, trajs)
    reference = [reference_plan(policy, dyn, traj.states[0], s.age)[1][-1]
                 for traj in trajs for s in traj.states[1:]]
    assert len(ages) == len(obs) == len(reference) == 7
    for got_obs, got_age, ref in zip(obs, ages, reference):
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
    state = multi_input_init([(obs, 24)], model)
    assert state.age == 24
    assert np.abs(state.observation - obs).max() < 1e-9
    # exact equality with the explicit encode/decode round trip
    z, _ = flow_forward(model.target_flow, obs)
    assert np.array_equal(state.observation, flow_inverse(model.target_flow, z))


def test_multi_input_sort_invariance():
    model = multi_model()
    rng = np.random.default_rng(35)
    inputs = [(rng.standard_normal(5), 40), (rng.standard_normal(5), 18),
              (rng.standard_normal(5), 29)]
    a = multi_input_init(inputs, model)
    b = multi_input_init([inputs[1], inputs[2], inputs[0]], model)
    assert a.age == b.age == 40
    assert np.array_equal(a.observation, b.observation)


def test_multi_input_same_age_and_large_gap():
    model = multi_model()
    rng = np.random.default_rng(36)
    x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
    same = multi_input_init([(x1, 30), (x2, 30)], model)
    assert same.age == 30
    wide = multi_input_init([(x1, 10), (x2, 50)], model)  # gap 40 > 15
    assert wide.age == 50
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
    traj = rollout(rng_policy, dyn, s, 3, np.random.default_rng(8))
    traj.validate(16)


def test_learn_wraps_inner_errors_with_iteration_index():
    from flowpath.irl import IrlIterationError

    dyn = line_dynamics()
    start = State(np.zeros(3), 0)
    demos = [chain_traj(dyn, start, [1, 2])]
    rng = np.random.default_rng(0)
    cost = make_cost_net(rng, dim=3, n_actions=4, age_low=0, age_high=60, hidden=6)
    policy = make_policy_net(rng, dim=3, n_actions=4, age_low=0, age_high=60)
    with pytest.raises(IrlIterationError, match="iteration 0"):
        learn_aging_policy(
            demos, cost, policy, dyn, outer_iters=2, inner_iters=1,
            sample_paths=2, demo_batch=1, sample_batch=1,
            policy_rollouts=0,  # invalid: rollout sampling raises inside iter 0
            policy_steps=1,
            cost_optimizer=Adam(cost.parameters()),
            policy_optimizer=Adam(policy.parameters()),
            rng=np.random.default_rng(1))


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


def assert_matches_reference(batch, reference, log_w):
    trajs = batch.trajectories()
    assert len(trajs) == len(reference)
    for traj, (actions, states, ref_log_w), lw in zip(trajs, reference, log_w):
        assert traj.actions == actions
        assert [s.age for s in traj.states] == [s.age for s in states]
        for s, r in zip(traj.states, states):
            assert np.abs(s.observation - r.observation).max() < 1e-12
        assert abs(lw - ref_log_w) < 1e-12


@pytest.mark.parametrize("kind", ["model", "function"])
def test_engine_matches_row_by_row_reference_mixed_horizons(kind):
    policy, dyn, cost, starts = engine_world(kind)
    horizons = [1, 4, 2]
    batch = sample_path_batch(policy, dyn, starts, horizons, m=11, seed=5)
    log_w = -path_energies(cost, batch) - batch.log_q
    reference = reference_paths(policy, dyn, cost, starts, horizons, 11, 5)
    assert_matches_reference(batch, reference, log_w)
    assert sorted(set(batch.lengths.tolist())) == [1, 2, 4]


@pytest.mark.parametrize("kind", ["model", "function"])
def test_engine_crosses_block_boundary(kind):
    policy, dyn, cost, starts = engine_world(kind)
    n = 300
    assert n > ROLL_BLOCK
    batch = sample_path_batch(policy, dyn, starts[:1], 3, m=n, seed=8)
    log_w = partition_log_weights(cost, policy, dyn, starts[0], 3, n=n, seed=8)
    reference = reference_paths(policy, dyn, cost, starts[:1], [3], n, 8)
    assert_matches_reference(batch, reference, log_w)
    head = partition_log_weights(cost, policy, dyn, starts[0], 3, n=100, seed=8)
    assert np.abs(log_w[:100] - head).max() < 1e-12
    assert abs(estimate_log_partition(cost, policy, dyn, starts[0], 3, n=n, seed=8)
               - log_mean_exp(log_w)) == 0.0


def test_engine_transitions_each_distinct_child_once():
    """Rows sharing a start index and an action prefix share one transition;
    equal start states at different indices stay apart."""
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
    batch = sample_path_batch(policy, dyn, starts, horizons, m=n, seed=9)
    prefixes = {(i % len(starts), tuple(batch.actions[i, :t + 1].tolist()))
                for i, length in enumerate(batch.lengths.tolist()) for t in range(length)}
    assert len(stepped) == len(prefixes) < int(batch.lengths.sum())
    log_w = -path_energies(cost, batch) - batch.log_q
    assert_matches_reference(batch, reference_paths(policy, dyn, cost, starts, horizons, n, 9),
                             log_w)


@pytest.mark.parametrize("kind", ["model", "function"])
def test_engine_chunk_size_changes_speed_only(kind, monkeypatch):
    policy, dyn, cost, starts = engine_world(kind)
    n = 300

    def run():
        return (sample_path_batch(policy, dyn, starts, [3, 1, 2], m=n, seed=4),
                partition_log_weights(cost, policy, dyn, starts[0], 3, n=n, seed=6))

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
    batch = sample_path_batch(policy, dyn, starts, [3, 1, 2], m=9, seed=3)
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
