"""Synthetic world: determinism, cost structure, and the two path oracles."""

import json

import numpy as np
import pytest

from flowpath.errors import BudgetError, ValidationError
from flowpath.irl import PathBatch, enumerate_energies, exact_sequence_prob
from flowpath.world import (
    WorldConfig,
    WorldDynamics,
    archetype_cost,
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

import reference
from reference import State

CFG = WorldConfig()


def world_state(dyn: WorldDynamics, age: int) -> State:
    """The world's noise-free state at `age`, in the one-state reference form."""
    return State(dyn.obs_at(age), age)


def zero_cost(obs, ages, actions):
    return np.zeros(ages.size)


def test_generation_deterministic():
    a1, t1 = generate_subject(CFG, 123)
    a2, t2 = generate_subject(CFG, 123)
    assert a1 == a2
    assert t1.actions == t2.actions
    for s1, s2 in zip(reference.states_of(t1), reference.states_of(t2)):
        assert s1.age == s2.age
        assert np.array_equal(s1.observation, s2.observation)


def test_zero_noise_subject_reproducible():
    cfg = WorldConfig(noise=0.0)
    _, t1 = generate_subject(cfg, 5)
    _, t2 = generate_subject(cfg, 5)
    for s1, s2 in zip(reference.states_of(t1), reference.states_of(t2)):
        assert np.array_equal(s1.observation, s2.observation)


def assert_same_states(traj, states):
    assert traj.ages.tolist() == [s.age for s in states]
    assert np.array_equal(traj.observations, np.stack([s.observation for s in states]))


@pytest.mark.parametrize("seed", [0, 7, 123, 500003])
def test_generators_draw_the_noise_of_a_per_state_reference(seed):
    # one (T+1, D) matrix holds the row-major draws of T+1 per-state vectors
    for cfg in (CFG, WorldConfig(dim=5, n_actions=7, noise=0.3, horizon=4)):
        arch, demo = generate_subject(cfg, seed)
        ref_arch, ref_states = reference.generate_subject(cfg, seed)
        assert arch == ref_arch
        assert_same_states(demo, ref_states)
        for stride in (1, 3):
            assert_same_states(generate_pool_sequence(cfg, seed, stride),
                               reference.generate_pool_sequence(cfg, seed, stride))


def test_zero_rate_subject_is_frozen():
    arch = make_archetype(CFG, 77)
    arch.rate = 0.0  # aging rate
    obs = [observe(CFG, arch, age) for age in (10, 25, 47, 60)]
    for o in obs[1:]:
        assert np.array_equal(o, obs[0])


def test_preferred_step_strictly_cheapest_with_margin():
    for seed in range(12):
        arch = make_archetype(CFG, seed)
        k_star = preferred_step(arch.class_id, CFG.n_actions)
        dyn = WorldDynamics(CFG, arch)
        for age in (10, 25, 40, 58):
            state = world_state(dyn, age)
            best = ground_truth_cost(state.age, k_star, arch, CFG)
            others = [ground_truth_cost(state.age, a, arch, CFG)
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
            c1 = ground_truth_cost(world_state(dyn, 12).age, a, arch, CFG)
            c2 = ground_truth_cost(world_state(dyn, 55).age, a, arch, CFG)
            assert c1 == c2
    assert found


def test_archetype_classes_have_distinct_preferred_steps():
    steps = {preferred_step(c, CFG.n_actions) for c in range(3)}
    assert steps == {3, 6, 9}


def test_brute_force_tie_break_lexicographic():
    arch = make_archetype(CFG, 1)
    dyn = WorldDynamics(CFG, arch)
    path = brute_force_optimal_path(dyn, zero_cost, dyn.obs_at(10), 10, 12,
                                    horizon_cap=3)
    assert path.actions == [0, 0, 2]


def test_brute_force_single_feasible_path():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    path = brute_force_optimal_path(dyn, archetype_cost(CFG, arch), dyn.obs_at(20), 20, 35,
                                    horizon_cap=1)
    assert path.actions == [15]


def test_brute_force_unreachable_target():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    with pytest.raises(ValidationError):
        brute_force_optimal_path(dyn, archetype_cost(CFG, arch), dyn.obs_at(20), 20, 55,
                                 horizon_cap=2)


def test_brute_force_budget():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    with pytest.raises(BudgetError):
        brute_force_optimal_path(dyn, zero_cost, dyn.obs_at(10), 10, 60,
                                 horizon_cap=8, budget=1000)


def test_oracles_agree_across_instances():
    for seed in range(10):
        arch = make_archetype(CFG, 40 + seed)
        dyn = WorldDynamics(CFG, arch)
        cost = archetype_cost(CFG, arch)
        start = world_state(dyn, CFG.age_min + seed)
        target = start.age + 10 + seed
        bf = brute_force_optimal_path(dyn, cost, start.observation, start.age, target,
                                      horizon_cap=4)
        dp = dp_optimal_path(dyn, cost, start.age, target, horizon_cap=4)
        assert bf.actions == dp.actions
        bf_cost = sum(reference.step_cost(cost, reference.states_of(bf)[t], a)
                      for t, a in enumerate(bf.actions))
        dp_cost = sum(reference.step_cost(cost, reference.states_of(dp)[t], a)
                      for t, a in enumerate(dp.actions))
        assert abs(bf_cost - dp_cost) < 1e-12


def test_oracles_agree_under_random_costs():
    # arbitrary (even negative) step costs keyed on (age, action)
    arch = make_archetype(CFG, 91)
    dyn = WorldDynamics(CFG, arch)
    rng = np.random.default_rng(8)
    table = rng.standard_normal((101, CFG.n_actions))

    def cost(obs, ages, actions):
        return table[ages, actions]

    bf = brute_force_optimal_path(dyn, cost, dyn.obs_at(15), 15, 29, horizon_cap=4)
    dp = dp_optimal_path(dyn, cost, 15, 29, horizon_cap=4)
    assert bf.actions == dp.actions


def outcome(search, *args, **kw):
    """A path search's ages and observation bytes, or its ValidationError text."""
    try:
        path = search(*args, **kw)
    except ValidationError as exc:
        return str(exc)
    return path.ages.tolist(), path.observations.tobytes()


COST_KINDS = ["archetype", "normal", "rounded", "nan", "inf"]


@pytest.mark.parametrize("kind", COST_KINDS)
@pytest.mark.parametrize("cfg", [CFG, WorldConfig(dim=5, n_actions=7, noise=0.3, horizon=4),
                                 WorldConfig(n_actions=3, age_min=0, age_max=12)],
                         ids=["default", "seven_actions", "three_actions"])
def test_dp_table_equals_memoized_recursion(cfg, kind):
    # rounded tables tie many paths; nan and inf tables hold NaN and +-inf step
    # costs; targets run from the start age past the farthest reachable age
    n = cfg.n_actions
    rng = np.random.default_rng([n, COST_KINDS.index(kind)])
    for _ in range(24):
        arch = make_archetype(cfg, int(rng.integers(0, 10**6)))
        dyn = WorldDynamics(cfg, arch)
        table = rng.standard_normal((cfg.age_max + 8 * n, n))
        if kind == "rounded":
            table = np.round(table)
        elif kind == "nan":
            table[rng.random(table.shape) < 0.3] = np.nan
        elif kind == "inf":
            table[rng.random(table.shape) < 0.1] = np.inf
            table[rng.random(table.shape) < 0.1] = -np.inf
        cost = archetype_cost(cfg, arch) if kind == "archetype" else table_cost(table)
        cap = int(rng.integers(0, 6))
        start = int(rng.integers(cfg.age_min, cfg.age_max + 1))
        target = start + int(rng.integers(0, max(1, cap) * (n - 1) + 4))
        assert (outcome(dp_optimal_path, dyn, cost, start, target, cap)
                == outcome(reference.dp_optimal_path, dyn, cost, start, target, cap)), \
            (start, target, cap)


def test_dp_scores_its_table_in_one_cost_call():
    arch = make_archetype(CFG, 3)
    calls = []

    def cost(obs, ages, actions):
        calls.append(ages.size)
        return ground_truth_cost(ages, actions, arch, CFG)

    path = dp_optimal_path(WorldDynamics(CFG, arch), cost, 20, 40, horizon_cap=4)
    assert path.ages[-1] >= 40
    assert calls == [20 * CFG.n_actions]  # ages 20..39, every action


def test_dp_raises_the_brute_force_errors():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    cost = archetype_cost(CFG, arch)
    for start, target, cap in ((20, 19, 4), (20, 30, -1), (20, 20, -1), (20, 55, 2)):
        dp = outcome(dp_optimal_path, dyn, cost, start, target, cap)
        assert isinstance(dp, str)
        assert dp == outcome(brute_force_optimal_path, dyn, cost, dyn.obs_at(start), start,
                             target, horizon_cap=cap)
    for cap in (0, 3):  # the start alone reaches a target equal to it
        path = dp_optimal_path(dyn, cost, 20, 20, cap)
        assert path.ages.tolist() == [20] and path.actions == []
        assert np.array_equal(path.observations, dyn.obs_at(20)[None, :])


def test_observe_on_an_age_array_is_bitwise_per_age():
    ages = np.arange(-40, 130, 3)  # well outside [age_min, age_max] on both sides
    for cfg in (CFG, WorldConfig(dim=5, age_min=0, age_max=7)):
        for seed in range(20):
            arch = make_archetype(cfg, 300 + seed)
            batch = observe(cfg, arch, ages)
            assert batch.shape == (ages.size, cfg.dim)
            for age, row in zip(ages.tolist(), batch):
                one = observe(cfg, arch, age)
                assert one.shape == (cfg.dim,)
                assert row.tobytes() == one.tobytes()
            assert observe(cfg, arch, ages[:0]).shape == (0, cfg.dim)


def test_demo_matches_oracle_and_bookkeeping():
    for seed in (0, 7, 500003):
        arch, demo = generate_subject(CFG, seed)
        PathBatch.from_trajectories([demo], CFG.n_actions)
        dyn = WorldDynamics(CFG, arch)
        oracle = brute_force_optimal_path(dyn, archetype_cost(CFG, arch),
                                          dyn.obs_at(int(demo.ages[0])), int(demo.ages[0]),
                                          int(demo.ages[-1]),
                                          horizon_cap=CFG.horizon - 1)
        assert demo.actions == oracle.actions
        assert all(a == preferred_step(arch.class_id, CFG.n_actions)
                   for a in demo.actions)


def test_gibbs_of_true_cost_matches_table_backed_enumeration():
    cfg = WorldConfig(n_actions=3)
    arch = make_archetype(cfg, 4)
    dyn = WorldDynamics(cfg, arch)
    cost = archetype_cost(cfg, arch)
    start = world_state(dyn, cfg.age_min + 3)

    # independent Gibbs computation over all 27 paths
    energies = []
    for idx in range(27):
        actions = [(idx // 9) % 3, (idx // 3) % 3, idx % 3]
        states = [start]
        e = 0.0
        for a in actions:
            e += reference.step_cost(cost, states[-1], a)
            states.append(world_state(dyn, states[-1].age + a))
        energies.append((actions, e))
    z = sum(np.exp(-e) for _, e in energies)

    table = {(age, a): None for age in range(cfg.age_min, 200) for a in range(3)}

    def table_cost(obs, ages, actions):
        out = []
        for o, age, action in zip(obs, ages.tolist(), actions.tolist()):
            key = (age, action)
            if table.get(key) is None:
                table[key] = reference.step_cost(cost, State(o, age), action)
            out.append(table[key])
        return np.array(out)

    for actions, e in energies[:9]:
        states = [start]
        for a in actions:
            states.append(world_state(dyn, states[-1].age + a))
        traj = reference.trajectory(states)
        p = exact_sequence_prob(traj, table_cost, dyn)
        expected = float(np.exp(-e) / z)
        assert abs(p - expected) <= 1e-10 * expected


# ---------------------------------------------------------------------------
# The level-wise expander and the vectorized world against one-state references
# ---------------------------------------------------------------------------

def table_cost(table):
    def cost(obs, ages, actions):
        return table[ages, actions]

    return cost


@pytest.mark.parametrize("n_actions, horizon", [(3, 0), (3, 1), (3, 4), (5, 3), (16, 2)])
def test_level_wise_enumeration_equals_recursion(n_actions, horizon):
    cfg = WorldConfig(n_actions=n_actions)
    dyn = WorldDynamics(cfg, make_archetype(cfg, 17))
    cost = table_cost(np.random.default_rng(n_actions).standard_normal((200, n_actions)))
    start = world_state(dyn, cfg.age_min + 4)
    fast = enumerate_energies(start.observation, start.age, horizon, cost, dyn)
    assert fast.shape == (n_actions**horizon,)
    assert np.array_equal(fast, reference.enumerate_energies(start, horizon, cost, dyn))


@pytest.mark.parametrize("seed", range(6))
def test_level_wise_brute_force_equals_recursion_under_ties(seed):
    # integer-valued costs in {0, 1, 2} force ties between many paths
    cfg = WorldConfig(n_actions=6)
    dyn = WorldDynamics(cfg, make_archetype(cfg, 60 + seed))
    table = np.random.default_rng(seed).integers(0, 3, size=(101, 6)).astype(np.float64)
    costs = [table_cost(table), table_cost(np.zeros((101, 6)))]
    start = world_state(dyn, cfg.age_min + seed)
    for cost in costs:
        for gap, cap in ((0, 3), (1, 2), (4, 4), (9, 4), (17, 4)):
            fast = brute_force_optimal_path(dyn, cost, start.observation, start.age,
                                            start.age + gap, horizon_cap=cap)
            slow = reference.brute_force_optimal_path(dyn, cost, start, start.age + gap,
                                                      horizon_cap=cap)
            assert fast.actions == slow.actions, (gap, cap)
            assert fast.ages.tolist() == slow.ages.tolist()


def test_level_wise_brute_force_matches_recursion_on_failures():
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    start = world_state(dyn, 20)

    def fast(dynamics, cost, start, target, **kw):
        return brute_force_optimal_path(dynamics, cost, start.observation, start.age, target,
                                        **kw)

    for search in (fast, reference.brute_force_optimal_path):
        with pytest.raises(ValidationError, match="unreachable"):
            search(dyn, archetype_cost(CFG, arch), start, 55, horizon_cap=2)
        # 14 paths complete at one step, 29 more at two and 44 at three
        with pytest.raises(BudgetError):
            search(dyn, zero_cost, start, 22, horizon_cap=4, budget=50)
    assert fast(dyn, zero_cost, start, 22, horizon_cap=4, budget=200).actions == [0, 0, 0, 2]


def test_brute_force_budget_caps_every_level():
    # no path completes before level 4, whose 16**4 rows exceed the budget
    arch = make_archetype(CFG, 2)
    dyn = WorldDynamics(CFG, arch)
    with pytest.raises(BudgetError, match="level 4"):
        brute_force_optimal_path(dyn, zero_cost, dyn.obs_at(10), 10, 60, horizon_cap=5,
                                 budget=16**4 - 1)


def test_world_transition_and_cost_match_per_age_formulas():
    ages, actions = (g.ravel() for g in np.meshgrid(
        np.arange(CFG.age_min, CFG.age_max + 1), np.arange(CFG.n_actions), indexing="ij"))
    for seed in range(120):
        arch = make_archetype(CFG, 1000 + seed)
        dyn = WorldDynamics(CFG, arch)
        obs = dyn.transition(np.zeros((ages.size, CFG.dim)), ages, np.arange(ages.size), actions)
        assert np.array_equal(obs, np.stack([observe(CFG, arch, age)
                                             for age in (ages + actions).tolist()]))
        expected = [reference.ground_truth_cost(age, a, arch, CFG)
                    for age, a in zip(ages.tolist(), actions.tolist())]
        assert np.array_equal(ground_truth_cost(ages, actions, arch, CFG), expected)


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
        for sa, sb in zip(reference.states_of(ta), reference.states_of(tb)):
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
        assert ta.ages.tolist() == tb.ages.tolist()
        for sa, sb in zip(reference.states_of(ta), reference.states_of(tb)):
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
    ({"observations": [[0.5, True], [0.25, 2.0]]}, "numbers, not true or false"),
    ({"note": "x"}, "unknown record keys note"),
    ({"subject_id": 2**63}, "below 2\\*\\*63, not 9223372036854775808"),
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
