"""Synthetic world: determinism, cost structure, and the two path oracles."""

import json

import numpy as np
import pytest

from flowpath.errors import BudgetError, ValidationError
from flowpath.irl import AgingTrajectory, State, exact_sequence_prob
from flowpath.world import (
    WorldConfig,
    WorldDynamics,
    brute_force_optimal_path,
    dp_optimal_path,
    generate_pool_sequence,
    generate_subject,
    ground_truth_cost,
    make_archetype,
    observe,
    preferred_step,
    read_sequences,
    write_sequences,
)

CFG = WorldConfig()


def archetype_cost(arch, config=CFG):
    def cost(state: State, action: int) -> float:
        return ground_truth_cost(state, action, arch, config)

    return cost


def test_generation_deterministic():
    a1, t1 = generate_subject(CFG, 123)
    a2, t2 = generate_subject(CFG, 123)
    assert np.array_equal(a1.trait, a2.trait)
    assert t1.actions == t2.actions
    for s1, s2 in zip(t1.states, t2.states):
        assert s1.age == s2.age
        assert np.array_equal(s1.observation, s2.observation)


def test_zero_noise_subject_reproducible():
    cfg = WorldConfig(noise=0.0)
    _, t1 = generate_subject(cfg, 5)
    _, t2 = generate_subject(cfg, 5)
    for s1, s2 in zip(t1.states, t2.states):
        assert np.array_equal(s1.observation, s2.observation)


def test_zero_rate_subject_is_frozen():
    arch = make_archetype(CFG, 77)
    arch.trait[1] = 0.0  # aging rate
    obs = [observe(CFG, arch, age) for age in (10, 25, 47, 60)]
    for o in obs[1:]:
        assert np.array_equal(o, obs[0])


def test_preferred_step_strictly_cheapest_with_margin():
    for seed in range(12):
        arch = make_archetype(CFG, seed)
        k_star = preferred_step(arch.class_id, CFG.n_actions)
        dyn = WorldDynamics(CFG, arch)
        for age in (10, 25, 40, 58):
            state = dyn.state_at(age)
            best = ground_truth_cost(state, k_star, arch, CFG)
            others = [ground_truth_cost(state, a, arch, CFG)
                      for a in range(CFG.n_actions) if a != k_star]
            assert min(others) - best >= 0.5


def test_cost_stationary_for_stationary_archetypes():
    found = False
    for seed in range(20):
        arch = make_archetype(CFG, seed)
        if arch.nonstationary:
            continue
        found = True
        dyn = WorldDynamics(CFG, arch)
        for a in (0, 5, 15):
            c1 = ground_truth_cost(dyn.state_at(12), a, arch, CFG)
            c2 = ground_truth_cost(dyn.state_at(55), a, arch, CFG)
            assert c1 == c2
    assert found


def test_archetype_classes_have_distinct_preferred_steps():
    steps = {preferred_step(c, CFG.n_actions) for c in range(3)}
    assert steps == {3, 6, 9}


def test_brute_force_tie_break_lexicographic():
    arch = make_archetype(CFG, 1)
    dyn = WorldDynamics(CFG, arch)
    path = brute_force_optimal_path(dyn, lambda s, a: 0.0, dyn.state_at(10), 12,
                                    horizon_cap=3)
    assert path.actions == [0, 0, 2]


def test_brute_force_single_feasible_path():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    path = brute_force_optimal_path(dyn, archetype_cost(arch), dyn.state_at(20), 35,
                                    horizon_cap=1)
    assert path.actions == [15]


def test_brute_force_unreachable_target():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    with pytest.raises(ValidationError):
        brute_force_optimal_path(dyn, archetype_cost(arch), dyn.state_at(20), 55,
                                 horizon_cap=2)


def test_brute_force_budget():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    with pytest.raises(BudgetError):
        brute_force_optimal_path(dyn, lambda s, a: 0.0, dyn.state_at(10), 60,
                                 horizon_cap=8, budget=1000)


def test_oracles_agree_across_instances():
    for seed in range(10):
        arch = make_archetype(CFG, 40 + seed)
        dyn = WorldDynamics(CFG, arch)
        cost = archetype_cost(arch)
        start = dyn.state_at(CFG.age_min + seed)
        target = start.age + 10 + seed
        bf = brute_force_optimal_path(dyn, cost, start, target, horizon_cap=4)
        dp = dp_optimal_path(dyn, cost, start, target, horizon_cap=4)
        assert bf.actions == dp.actions
        bf_cost = sum(cost(bf.states[t], a) for t, a in enumerate(bf.actions))
        dp_cost = sum(cost(dp.states[t], a) for t, a in enumerate(dp.actions))
        assert abs(bf_cost - dp_cost) < 1e-12


def test_oracles_agree_under_random_costs():
    # arbitrary (even negative) step costs keyed on (age, action)
    arch = make_archetype(CFG, 91)
    dyn = WorldDynamics(CFG, arch)
    rng = np.random.default_rng(8)
    table = rng.standard_normal((101, CFG.n_actions))

    def cost(state: State, action: int) -> float:
        return float(table[state.age, action])

    start = dyn.state_at(15)
    bf = brute_force_optimal_path(dyn, cost, start, 29, horizon_cap=4)
    dp = dp_optimal_path(dyn, cost, start, 29, horizon_cap=4)
    assert bf.actions == dp.actions


def test_demo_matches_oracle_and_bookkeeping():
    for seed in (0, 7, 500003):
        arch, demo = generate_subject(CFG, seed)
        demo.validate(CFG.n_actions)
        dyn = WorldDynamics(CFG, arch)
        oracle = brute_force_optimal_path(dyn, archetype_cost(arch),
                                          dyn.state_at(demo.states[0].age),
                                          demo.states[-1].age,
                                          horizon_cap=CFG.horizon - 1)
        assert demo.actions == oracle.actions
        assert all(a == preferred_step(arch.class_id, CFG.n_actions)
                   for a in demo.actions)


def test_gibbs_of_true_cost_matches_table_backed_enumeration():
    cfg = WorldConfig(n_actions=3)
    arch = make_archetype(cfg, 4)
    dyn = WorldDynamics(cfg, arch)
    cost = archetype_cost(arch, cfg)
    start = dyn.state_at(cfg.age_min + 3)

    # independent Gibbs computation over all 27 paths
    energies = []
    for idx in range(27):
        actions = [(idx // 9) % 3, (idx // 3) % 3, idx % 3]
        states = [start]
        e = 0.0
        for a in actions:
            e += cost(states[-1], a)
            states.append(dyn.step(states[-1], a))
        energies.append((actions, e))
    z = sum(np.exp(-e) for _, e in energies)

    table = {(age, a): None for age in range(cfg.age_min, 200) for a in range(3)}

    def table_cost(state: State, action: int) -> float:
        key = (state.age, action)
        if table.get(key) is None:
            table[key] = cost(state, action)
        return table[key]

    for actions, e in energies[:9]:
        states = [start]
        for a in actions:
            states.append(dyn.step(states[-1], a))
        traj = AgingTrajectory(states, actions)
        p = exact_sequence_prob(traj, table_cost, dyn)
        expected = float(np.exp(-e) / z)
        assert abs(p - expected) <= 1e-10 * expected


def test_sequence_file_roundtrip(tmp_path):
    entries = [(i, generate_subject(CFG, i)[1]) for i in range(3)]
    entries.append((99, generate_pool_sequence(CFG, 99, stride=5)))
    path = tmp_path / "seqs.jsonl"
    write_sequences(path, entries)
    loaded = read_sequences(path)
    assert len(loaded) == 4
    for (sid_a, ta), (sid_b, tb) in zip(entries, loaded):
        assert sid_a == sid_b
        assert ta.actions == tb.actions
        for sa, sb in zip(ta.states, tb.states):
            assert sa.age == sb.age
            assert np.array_equal(sa.observation, sb.observation)


def test_write_sequences_is_atomic(tmp_path):
    entries = [(i, generate_subject(CFG, i)[1]) for i in range(2)]
    path = tmp_path / "seqs.jsonl"
    path.write_text("stale\n")
    write_sequences(path, entries)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["seqs.jsonl"]
    loaded = read_sequences(path)
    assert [sid for sid, _ in loaded] == [0, 1]
    for (_, ta), (_, tb) in zip(entries, loaded):
        assert [s.age for s in ta.states] == [s.age for s in tb.states]
        for sa, sb in zip(ta.states, tb.states):
            assert np.array_equal(sa.observation, sb.observation)


GOOD_RECORD = {"subject_id": 1, "ages": [20, 23], "observations": [[0.5, 1.0], [0.25, 2.0]]}


@pytest.mark.parametrize("change,message", [
    ({"ages": None}, "lists"),
    ({"observations": "0.5"}, "lists"),
    ({"observations": [[0.5, 1.0], [0.25]]}, "malformed"),
    ({"observations": [0.5, 0.25]}, "equal-length 1-d"),
    ({"observations": [[[0.5], [1.0]], [[0.25], [2.0]]]}, "equal-length 1-d"),
    ({"observations": [[0.5, float("nan")], [0.25, 2.0]]}, "finite"),
    ({"observations": [[0.5, float("inf")], [0.25, 2.0]]}, "finite"),
    ({"ages": [20, "x"]}, "integers"),
    ({"ages": [20, 22.5]}, "integers"),
    ({"ages": [20, True]}, "integers"),
    ({"subject_id": "1"}, "integers"),
    ({"ages": [20]}, "malformed"),
    ({"ages": [23, 20]}, "non-decreasing"),
])
def test_read_sequences_rejects_malformed_record(tmp_path, change, message):
    path = tmp_path / "seqs.jsonl"
    path.write_text(json.dumps(GOOD_RECORD) + "\n" + json.dumps(dict(GOOD_RECORD, **change)) + "\n")
    with pytest.raises(ValidationError, match=f"line 2.*{message}"):
        read_sequences(path)


@pytest.mark.parametrize("key", ["subject_id", "ages", "observations"])
def test_read_sequences_rejects_missing_key(tmp_path, key):
    path = tmp_path / "seqs.jsonl"
    record = {k: v for k, v in GOOD_RECORD.items() if k != key}
    path.write_text("\n" + json.dumps(GOOD_RECORD) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValidationError, match=f"line 3.*{key}"):
        read_sequences(path)


def test_read_sequences_rejects_invalid_json_and_non_objects(tmp_path):
    path = tmp_path / "seqs.jsonl"
    for text in ("{not json", "[1, 2]"):
        path.write_text(text + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_sequences(path)


def test_world_config_validation():
    with pytest.raises(ValidationError):
        WorldConfig(dim=1)
    with pytest.raises(ValidationError):
        WorldConfig(age_min=30, age_max=30)
    with pytest.raises(ValidationError):
        WorldConfig(noise=-0.1)
