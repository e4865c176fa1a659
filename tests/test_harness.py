"""Harness: config round trip, binary checkpoints, metrics, CLI, pipelines."""

import itertools
import json
import shutil
import struct
import zlib

import numpy as np
import pytest

from flowpath import cli, irl, pipeline
from flowpath.checkpoint import (
    MAGIC,
    Checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from flowpath.config import RunConfig, load_config
from flowpath.errors import CheckpointError, NumericError, ValidationError
from flowpath.irl import ModelDynamics, PathBatch, plan_rollout
from flowpath.metrics import read_csv_without_columns, write_atomic, write_csv
from flowpath.transform import synthesize_step
from flowpath.world import (
    WorldConfig,
    generate_pool_sequence,
    generate_subject,
    make_archetype,
    observe,
)
from flowpath.pipeline import (
    IRL_METRICS_HEADER,
    build_pairs,
    cost_from_checkpoint,
    model_from_checkpoint,
    policy_from_checkpoint,
    run_plan,
    run_synthesize,
    stage_evaluate,
    stage_gen_data,
    stage_train_irl,
)

from conftest import file_digest, tiny_config
import reference
from reference import State


def test_config_round_trip_default_and_modified():
    cfg = RunConfig()
    assert RunConfig.from_json(cfg.to_json()) == cfg
    cfg.seed = 91
    cfg.world.dim = 9
    cfg.flow.clamp = 1.25
    cfg.irl.outer_iters = 7
    cfg.out_dir = "somewhere/else"
    assert RunConfig.from_json(cfg.to_json()) == cfg


def test_config_rejects_unknown_keys_and_bad_values():
    data = RunConfig().to_dict()
    data["flow"]["mystery"] = 3
    with pytest.raises(ValidationError):
        RunConfig.from_dict(data)
    with pytest.raises(ValidationError):
        RunConfig.from_dict({"irl": {"inner_iters": 0}})


def test_config_file_loading(tmp_path):
    cfg = RunConfig(seed=5)
    path = tmp_path / "c.json"
    path.write_text(cfg.to_json())
    assert load_config(path) == cfg


def sample_checkpoint() -> Checkpoint:
    rng = np.random.default_rng(0)
    return Checkpoint(
        config=RunConfig(seed=13),
        params={"group_a": [("w", rng.standard_normal((3, 2))), ("b", rng.standard_normal(3))],
                "group_b": [("v", rng.standard_normal(5))]},
        opt_states={"group_a": {"learning_rate": 0.01, "beta1": 0.9, "beta2": 0.999,
                                "eps": 1e-8, "step_count": 7,
                                "m": [np.zeros((3, 2)), np.zeros(3)],
                                "v": [np.ones((3, 2)), np.ones(3)]}},
        rng_state=np.random.default_rng(3).bit_generator.state,
        meta={"stage": "test", "next_iteration": 2},
    )


def test_checkpoint_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, sample_checkpoint())
    loaded = load_checkpoint(p1)
    save_checkpoint(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.config.seed == 13
    assert loaded.meta["next_iteration"] == 2
    orig = sample_checkpoint()
    for (na, aa), (nb, ab) in zip(orig.params["group_a"], loaded.params["group_a"]):
        assert na == nb
        assert np.array_equal(aa, ab)
    assert loaded.opt_states["group_a"]["step_count"] == 7


def test_checkpoint_layout_magic_and_version(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    raw = p.read_bytes()
    assert raw[:4] == MAGIC == b"FPCK"
    assert struct.unpack("<I", raw[4:8])[0] == 2


def test_checkpoint_version_mismatch(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    raw = bytearray(p.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(p)


def test_checkpoint_truncation_and_bad_magic(tmp_path):
    p = tmp_path / "a.ckpt"
    save_checkpoint(p, sample_checkpoint())
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)
    p.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_metrics_csv_roundtrip_and_masking(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, ["iteration", "value", "wall_seconds"],
              [[0, 0.5, 1.25], [1, -0.125, 2.5]])
    text = path.read_text()
    assert text.splitlines()[0] == "iteration,value,wall_seconds"
    masked = read_csv_without_columns(path, {"wall_seconds"})
    assert masked == "iteration,value\n0,0.5\n1,-0.125\n"


def test_gen_data_deterministic_bytes(tmp_path):
    cfg1 = tiny_config(str(tmp_path / "w1"), seed=7)
    cfg2 = tiny_config(str(tmp_path / "w2"), seed=7)
    stage_gen_data(cfg1)
    stage_gen_data(cfg2)
    for name in ("train_sequences.jsonl", "heldout_sequences.jsonl",
                 "pool_sequences.jsonl"):
        assert (tmp_path / "w1" / name).read_bytes() == \
            (tmp_path / "w2" / name).read_bytes()


def test_irl_metrics_schema(tiny_run):
    lines = (tiny_run["out"] / "metrics.csv").read_text().splitlines()
    assert lines[0] == ",".join(IRL_METRICS_HEADER)
    assert len(lines) == 1 + tiny_run["cfg"].irl.outer_iters
    summary = json.loads((tiny_run["out"] / "summary.json").read_text())
    assert summary["iterations"] == tiny_run["cfg"].irl.outer_iters


def test_resume_reproduces_uninterrupted_run(tiny_run):
    out = tiny_run["out"]
    cfg = tiny_run["cfg"]
    full_ckpt = (out / "model.ckpt").read_bytes()
    full_metrics = read_csv_without_columns(out / "metrics.csv", {"wall_seconds"})
    stage_train_irl(cfg, stop_after=1)
    assert not np.array_equal((out / "irl_latest.ckpt").read_bytes(), full_ckpt)
    stage_train_irl(cfg, resume=str(out / "irl_latest.ckpt"))
    assert (out / "model.ckpt").read_bytes() == full_ckpt
    assert read_csv_without_columns(out / "metrics.csv", {"wall_seconds"}) == full_metrics


def _csv_wall_seconds(out):
    return [float(line.rsplit(",", 1)[1])
            for line in (out / "metrics.csv").read_text().splitlines()[1:]]


@pytest.mark.parametrize("edit", ["none", "delete", "alter"])
def test_resume_keeps_the_wall_clock_of_earlier_iterations(tiny_run, tmp_path, edit):
    """A resumed run takes the pre-resume wall seconds from metrics.csv when its rows
    match the boundary checkpoint's metrics, and reads 0.0 without failing otherwise."""
    run = tmp_path / "run"
    shutil.copytree(tiny_run["out"], run)
    cfg = tiny_config(str(run))
    stage_train_irl(cfg, stop_after=2)
    before = _csv_wall_seconds(run)
    assert len(before) == 2 and min(before) > 0
    csv = run / "metrics.csv"
    if edit == "delete":
        csv.unlink()
    elif edit == "alter":
        lines = csv.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = repr(float(cells[1]) + 1.0)
        csv.write_text("\n".join(lines[:2] + [",".join(cells)]) + "\n")
    stage_train_irl(cfg, resume=str(run / "irl_latest.ckpt"))
    after = _csv_wall_seconds(run)
    assert len(after) == cfg.irl.outer_iters and after[2] > 0
    assert after[:2] == (before if edit == "none" else [0.0, 0.0])
    summary = json.loads((run / "summary.json").read_text())
    assert summary["total_wall_seconds"] == sum(after)


def test_plan_on_untrained_checkpoint_bookkeeping(tiny_run):
    out = tiny_run["out"]
    # the pairs checkpoint has no policy group; a uniform policy is implied
    ck = str(out / "pairs.ckpt")
    result = run_plan(ck, _subject_inputs(tiny_run, age=18), target=50)
    ages = result["ages"]
    assert ages[0] == 18
    assert ages[-1] >= 50
    assert all(b - a == act for a, b, act in zip(ages, ages[1:], result["actions"]))


def _subject_inputs(run, age):
    from flowpath.pipeline import default_subject_inputs

    return default_subject_inputs(run["cfg"], 12, age)


def test_synthesize_single_action(tiny_run):
    out = tiny_run["out"]
    res = run_synthesize(str(out / "model.ckpt"), _subject_inputs(tiny_run, 20),
                         action=9)
    assert res["ages"] == [20, 29]
    assert len(res["observations"][1]) == tiny_run["cfg"].world.dim
    with pytest.raises(ValidationError):
        run_synthesize(str(out / "model.ckpt"), _subject_inputs(tiny_run, 20))


def test_synthesize_to_a_target_fills_the_state_its_last_action_reaches(tiny_run):
    ckpt = load_checkpoint(tiny_run["out"] / "model.ckpt")
    res = run_synthesize(ckpt, _subject_inputs(tiny_run, 20), target=40)
    obs, ages = np.array(res["observations"]), res["ages"]
    assert len(ages) >= 3 and ages[-1] >= 40
    step = synthesize_step(model_from_checkpoint(ckpt), obs[-2:-1], [ages[-1] - ages[-2]])
    assert np.array_equal(obs[-1], step[0])


@pytest.mark.parametrize("ages", [[20, 44], [15, 16, 40], [12, 30, 31, 52]])
def test_plan_and_synthesize_from_several_inputs_match_the_one_at_a_time_fold(tiny_run, ages):
    world = tiny_run["cfg"].world
    ckpt = load_checkpoint(tiny_run["out"] / "model.ckpt")
    model, policy = model_from_checkpoint(ckpt), policy_from_checkpoint(ckpt)
    arch, rng = make_archetype(world, 77), np.random.default_rng(len(ages))
    inputs = [(observe(world, arch, a) + world.noise * rng.standard_normal(world.dim), a)
              for a in ages]
    obs, age = reference.multi_input_init(inputs, model)
    target = min(age + 12, world.age_max)
    actions, _, _ = plan_rollout(policy, ModelDynamics(model), obs, age, target)
    step = np.stack([obs, synthesize_step(model, obs, 5)])
    for order in itertools.permutations(inputs):
        plan = run_plan(ckpt, list(order), target)
        assert plan["start_age"] == age and plan["actions"] == actions
        synth = run_synthesize(ckpt, list(order), action=5)
        assert synth["ages"] == [age, age + 5]
        assert np.abs(np.array(synth["observations"]) - step).max() <= 1e-12


def test_evaluate_writes_report(tiny_run):
    report = stage_evaluate(tiny_run["cfg"])
    on_disk = json.loads((tiny_run["out"] / "evaluation.json").read_text())
    assert set(report["fidelity"]) == set(on_disk["fidelity"])
    assert 0.0 <= report["path_recovery"]["match_rate"] <= 1.0


def test_evaluate_copied_run_directory(tiny_run, tmp_path):
    stage_evaluate(tiny_run["cfg"])
    copy = tmp_path / "copied_run"
    shutil.copytree(tiny_run["out"], copy)
    (copy / "evaluation.json").unlink()
    assert cli.main(["evaluate", "--out", str(copy)]) == 0
    assert ((copy / "evaluation.json").read_bytes()
            == (tiny_run["out"] / "evaluation.json").read_bytes())


@pytest.mark.parametrize("option", [["--seed", "9"], ["--config", "run.json"]])
def test_evaluate_rejects_seed_and_config(tmp_path, option, capsys):
    # evaluate takes its config from the checkpoint, so these would be ignored
    assert cli.main(["evaluate", "--out", str(tmp_path)] + option) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "evaluation.json").exists()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_unknown_subcommand(capsys):
    assert cli.main(["definitely-not-a-command"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_cli_unknown_flag(capsys):
    assert cli.main(["gen-data", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_cli_gen_data_and_seed_env(tmp_path, monkeypatch, capsys):
    # config file with a tiny world; --seed beats the env var
    cfg = tiny_config(str(tmp_path / "w"), seed=1)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    assert cli.main(["gen-data", "--config", str(cfg_path)]) == 0
    first = file_digest(tmp_path / "w" / "train_sequences.jsonl")

    monkeypatch.setenv("FLOWPATH_SEED", "1")
    assert cli.main(["gen-data", "--out", str(tmp_path / "w2")]) == 0
    capsys.readouterr()
    # env seed 1 with default world differs from config world (different sizes)
    assert (tmp_path / "w2" / "train_sequences.jsonl").exists()
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out",
                     str(tmp_path / "w3")]) == 0
    assert file_digest(tmp_path / "w3" / "train_sequences.jsonl") == first


def test_resolve_config_seed_precedence(tmp_path, monkeypatch):
    """--seed beats FLOWPATH_SEED, which beats the config file's seed."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5}))
    parser = cli.build_parser()

    def seed(*extra):
        return cli.resolve_config(parser.parse_args(["gen-data", "--config", str(cfg_path),
                                                     *extra])).seed

    monkeypatch.delenv("FLOWPATH_SEED", raising=False)
    assert seed() == 5
    monkeypatch.setenv("FLOWPATH_SEED", "7")
    assert seed() == 7
    assert seed("--seed", "3") == 3


@pytest.mark.parametrize("argv, env, source", [
    (["gen-data", "--seed", "-1"], None, "--seed"),
    (["gen-data"], "-5", "FLOWPATH_SEED"),
    (["gen-data"], "abc", "FLOWPATH_SEED"),
    (["gen-data"], "1.5", "FLOWPATH_SEED"),
    (["train-irl", "--seed", "-2"], None, "--seed"),
    (["gradcheck", "--seed", "-1"], None, "--seed"),
    (["oracle-check", "--seed", "-4"], None, "--seed"),
], ids=["flag-negative", "env-negative", "env-word", "env-float", "train-irl-flag",
        "gradcheck", "oracle-check"])
def test_cli_rejects_bad_seed_by_source(tmp_path, monkeypatch, capsys, argv, env, source):
    if env is not None:
        monkeypatch.setenv("FLOWPATH_SEED", env)
    out = ["--out", str(tmp_path / "w")] if argv[0] not in ("gradcheck", "oracle-check") else []
    assert cli.main(argv + out) == 1
    captured = capsys.readouterr()
    assert f"{source} must be a non-negative integer" in captured.err
    assert "Traceback" not in captured.err and "PASS" not in captured.out
    assert not (tmp_path / "w").exists()


def test_cli_plan_and_truncated_checkpoint(tiny_run, tmp_path, capsys):
    ck = tiny_run["out"] / "model.ckpt"
    code = cli.main(["plan", "--checkpoint", str(ck), "--age", "18",
                     "--target", "50", "--subject-seed", "4"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ages"][0] == 18 and out["ages"][-1] >= 50

    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(ck.read_bytes()[:300])
    assert cli.main(["plan", "--checkpoint", str(trunc), "--age", "18",
                     "--target", "50"]) == 2
    assert "truncated" in capsys.readouterr().err


def test_cli_plan_multi_input_file(tiny_run, tmp_path, capsys):
    from flowpath.world import make_archetype, observe

    cfg = tiny_run["cfg"]
    arch = make_archetype(cfg.world, 5)
    payload = {
        "ages": [20, 28],
        "observations": [[float(v) for v in observe(cfg.world, arch, 20)],
                         [float(v) for v in observe(cfg.world, arch, 28)]],
    }
    inp = tmp_path / "inputs.json"
    inp.write_text(json.dumps(payload))
    code = cli.main(["plan", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                     "--age", "28", "--target", "40", "--input", str(inp)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["start_age"] == 28
    assert out["ages"][-1] >= 40


def test_cli_plan_validation_error(tiny_run, capsys):
    code = cli.main(["plan", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                     "--age", "50", "--target", "20", "--subject-seed", "4"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_cli_plan_missing_input_file_exits_1(tiny_run, tmp_path, capsys):
    missing = tmp_path / "absent.json"
    code = cli.main(["plan", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                     "--age", "28", "--target", "40", "--input", str(missing)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("age", [9, 61])  # tiny_config's world spans [10, 60]
def test_cli_plan_input_age_outside_world_exits_1(tiny_run, tmp_path, capsys, age):
    world = tiny_run["cfg"].world
    inp = tmp_path / "inputs.json"
    inp.write_text(json.dumps({"ages": [age], "observations": [[0.0] * world.dim]}))
    code = cli.main(["plan", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                     "--age", str(age), "--target", "60", "--input", str(inp)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"input age {age} outside world range [10, 60]" in err and "Traceback" not in err


def test_cli_synthesize_to_file(tiny_run, tmp_path):
    dest = tmp_path / "synth.json"
    code = cli.main(["synthesize", "--checkpoint",
                     str(tiny_run["out"] / "model.ckpt"), "--age", "20",
                     "--action", "5", "--subject-seed", "4", "--out", str(dest)])
    assert code == 0
    data = json.loads(dest.read_text())
    assert data["ages"] == [20, 25]


@pytest.mark.parametrize("request_args", [
    ["plan", "--age", "18", "--target", "50"],
    ["synthesize", "--age", "20", "--action", "5"],
    ["synthesize", "--age", "20", "--target", "40"],
])
def test_cli_reads_the_checkpoint_once_per_request(tiny_run, monkeypatch, request_args):
    from flowpath import pipeline

    reads = []

    def counting_load(path, groups=None):
        reads.append(path)
        return load_checkpoint(path, groups)

    monkeypatch.setattr(pipeline, "load_checkpoint", counting_load)
    ck = str(tiny_run["out"] / "model.ckpt")
    assert cli.main(request_args[:1] + ["--checkpoint", ck] + request_args[1:]) == 0
    assert reads == [ck]


def test_request_checkpoint_decodes_the_groups_a_request_reads(tiny_run):
    path = str(tiny_run["out"] / "model.ckpt")
    action = pipeline.request_checkpoint(path, None)
    plan = pipeline.request_checkpoint(path, 40)
    assert sorted(action.params) == ["model"] and action.opt_states == {}
    assert sorted(plan.params) == ["model", "policy"] and plan.opt_states == {}
    assert pipeline.request_checkpoint(plan, None) is plan
    full = load_checkpoint(path)
    assert pipeline.request_checkpoint(full, 40) is full


def test_a_request_load_decodes_only_the_groups_it_names(tiny_run):
    path = tiny_run["out"] / "model.ckpt"
    full, part = load_checkpoint(path), load_checkpoint(path, groups=("model", "policy"))
    assert sorted(full.params) == ["cost", "model", "policy"] and full.opt_states
    assert sorted(part.params) == ["model", "policy"] and part.opt_states == {}
    for group in ("model", "policy"):
        assert [(n, a.shape, a.tobytes()) for n, a in part.params[group]] == \
            [(n, a.shape, a.tobytes()) for n, a in full.params[group]]
    assert part.config.to_json() == full.config.to_json()
    assert (part.meta, part.rng_state) == (full.meta, full.rng_state)


def test_a_corrupt_section_a_request_does_not_decode_still_fails_the_checksum(
        tiny_run, tmp_path, capsys):
    raw = bytearray((tiny_run["out"] / "model.ckpt").read_bytes())
    payload = dict(_sections(bytes(raw)))[b"opt/cost"]
    raw[raw.index(payload) + len(payload) // 2] ^= 0x01
    path = tmp_path / "flipped.ckpt"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum mismatch"):
        load_checkpoint(path, groups=("model", "policy"))
    assert _plan_exit_code(str(path)) == 2
    err = capsys.readouterr().err
    assert "checksum mismatch" in err and "Traceback" not in err


@pytest.mark.parametrize("ages", [[20], [14, 20]])
def test_a_request_from_a_path_equals_one_on_the_fully_loaded_checkpoint(tiny_run, ages):
    path = str(tiny_run["out"] / "model.ckpt")
    ckpt = load_checkpoint(path)
    world = tiny_run["cfg"].world
    inputs = [(observe(world, make_archetype(world, 12), a), a) for a in ages]
    assert run_plan(path, inputs, 50) == run_plan(ckpt, inputs, 50)
    assert run_synthesize(path, inputs, target=44) == run_synthesize(ckpt, inputs, target=44)
    assert run_synthesize(path, inputs, action=7) == run_synthesize(ckpt, inputs, action=7)


def test_cli_synthesize_writes_its_file_atomically(tiny_run, tmp_path, monkeypatch):
    writes = []

    def counting_write(path, data):
        writes.append((path, data))
        return write_atomic(path, data)

    monkeypatch.setattr(cli, "write_atomic", counting_write)
    dest = str(tmp_path / "synth.json")
    assert cli.main(["synthesize", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                     "--age", "20", "--target", "30", "--out", dest]) == 0
    assert writes == [(dest, (tmp_path / "synth.json").read_bytes())]
    assert not (tmp_path / "synth.json.tmp").exists()


def test_cli_gradcheck_and_oracle_check(capsys):
    assert cli.main(["gradcheck", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3 and "FAIL" not in out
    assert cli.main(["oracle-check", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_age_fidelity_needs_heldout_data(tiny_run):
    from flowpath.evaluate import evaluate_age_fidelity
    from flowpath.errors import InsufficientDataError
    from flowpath.irl import ModelDynamics, plan_path_batch
    from flowpath.pipeline import model_from_checkpoint, policy_from_checkpoint

    ckpt = load_checkpoint(tiny_run["out"] / "model.ckpt")
    model = model_from_checkpoint(ckpt)
    policy = policy_from_checkpoint(ckpt)
    from flowpath.world import read_sequences

    train = read_sequences(tiny_run["out"] / "train_sequences.jsonl")
    first = train[0][1]
    paths = plan_path_batch(policy, ModelDynamics(model), first.observations[:1], first.ages[:1],
                            [first.ages[-1]])
    with pytest.raises(InsufficientDataError):
        evaluate_age_fidelity(paths, ckpt.config.world,
                              PathBatch.from_trajectories([t for _, t in train]),
                              PathBatch.from_trajectories([], dim=ckpt.config.world.dim))


def test_evaluate_plans_heldout_once(tiny_run, monkeypatch):
    import sys
    from flowpath import irl

    original, calls = irl.plan_path_batch, []

    def counting(*args, **kwargs):
        calls.append(len(args[2]))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("flowpath") and getattr(module, "plan_path_batch", None) is original:
            monkeypatch.setattr(module, "plan_path_batch", counting)
    stage_evaluate(tiny_run["cfg"])
    assert calls == [tiny_run["cfg"].world.heldout_subjects]


def test_evaluate_empty_heldout_file_exits_1(tiny_run, tmp_path, capsys):
    copy = tmp_path / "copied_run"
    shutil.copytree(tiny_run["out"], copy)
    (copy / "heldout_sequences.jsonl").write_text("")
    (copy / "evaluation.json").unlink(missing_ok=True)
    assert cli.main(["evaluate", "--out", str(copy)]) == 1
    err = capsys.readouterr().err
    assert "no held-out states" in err and "start state" not in err
    assert "Traceback" not in err
    assert not (copy / "evaluation.json").exists()


def test_aborted_irl_leaves_resumable_checkpoint_and_metrics(tmp_path):
    from flowpath.irl import IrlIterationError
    from flowpath.pipeline import stage_gen_data, stage_pretrain_flow, stage_train_pairs

    cfg = tiny_config(str(tmp_path / "w"), seed=4)
    cfg.irl.outer_iters = 3
    stage_gen_data(cfg)
    stage_pretrain_flow(cfg)
    stage_train_pairs(cfg)
    # poison the synthesis model so rollouts fail numerically inside iter 0
    pairs = load_checkpoint(tmp_path / "w" / "pairs.ckpt")
    arr = dict(pairs.params["model"])["transform.w_out"]
    arr[...] = 1e300
    save_checkpoint(tmp_path / "w" / "pairs.ckpt", pairs)
    with np.errstate(all="ignore"), pytest.raises(IrlIterationError) as exc:
        stage_train_irl(cfg)
    assert exc.value.iteration == 0
    latest = load_checkpoint(tmp_path / "w" / "irl_latest.ckpt")
    assert latest.meta["next_iteration"] == 0  # boundary before the failure


def test_config_rejects_unknown_sections():
    with pytest.raises(ValidationError, match="sections"):
        RunConfig.from_dict({"wrold": {"dim": 4}})


@pytest.mark.parametrize("text, key", [
    ('[]', "JSON object"),
    ('{"world": 5}', "world"),
    ('{"world": {"dim": "x"}}', "world.dim"),
    ('{"world": {"dim": 4.5}}', "world.dim"),
    ('{"seed": 1.7}', "seed"),
    ('{"seed": -3}', "config seed"),
    ('{"flow": {"units": true}}', "flow.units"),
    ('{"out_dir": 3}', "out_dir"),
    ('{"world": {"train_subjects": 0}}', "train_subjects"),
    ('{"world": {"heldout_subjects": 0}}', "heldout_subjects"),
    ('{"world": {"noise": NaN}}', "world.noise"),
    ('{"irl": {"cost_learning_rate": Infinity}}', "irl.cost_learning_rate"),
    ('{"flow": {"clamp": Infinity}}', "flow.clamp"),
    ('{"optimizer": {"beta1": -Infinity}}', "optimizer.beta1"),
    ('{"flow": {"pretrain_steps": -1}}', "flow.pretrain_steps"),
    ('{"flow": {"batch_size": 0}}', "flow.batch_size"),
    ('{"transform": {"train_steps": -1}}', "transform.train_steps"),
    ('{"transform": {"batch_size": -2}}', "transform.batch_size"),
    ('{"transform": {"batch_size": 1}}', "transform.batch_size"),
    ('{"flow": {"hidden": 0}}', "flow settings must be positive"),
    ('{"transform": {"factors": 0}}', "transform settings must be positive"),
    ('{"optimizer": {"beta2": 1.0}}', "optimizer settings out of range"),
    ('{"irl": {"outer_iters": -1}}', "outer_iters must be >= 0"),
    ('{"world": {"horizon": 1}}', "horizon must be >= 2"),
    ('{"world": {"n_actions": 1}}', "need at least 2 actions"),
])
def test_cli_malformed_config_exits_1(tmp_path, capsys, text, key):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "w")]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (tmp_path / "w").exists()


def test_config_float_field_takes_an_integer():
    assert RunConfig.from_dict({"flow": {"clamp": 2}}).flow.clamp == 2


def test_config_allows_a_singleton_transform_batch_without_the_penalty():
    cfg = RunConfig.from_dict({"transform": {"batch_size": 1, "constraint_weight": 0}})
    assert cfg.transform.batch_size == 1


def test_restore_group_errors(tmp_path):
    from flowpath.checkpoint import restore_group

    live = [("a", np.zeros(3))]
    with pytest.raises(CheckpointError, match="missing"):
        restore_group(live, [("b", np.zeros(3))])
    with pytest.raises(CheckpointError, match="shape"):
        restore_group(live, [("a", np.zeros(4))])


def test_synthesize_rejects_both_action_and_target(tiny_run):
    with pytest.raises(ValidationError):
        run_synthesize(str(tiny_run["out"] / "model.ckpt"),
                       _subject_inputs(tiny_run, 20), action=3, target=30)
    with pytest.raises(ValidationError):
        run_synthesize(str(tiny_run["out"] / "model.ckpt"),
                       _subject_inputs(tiny_run, 20), action=99)


def test_cli_train_irl_stop_after_and_resume(tmp_path, capsys):
    cfg = tiny_config(str(tmp_path / "w"), seed=6)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    for cmd in ("gen-data", "pretrain-flow", "train-pairs"):
        assert cli.main([cmd, "--config", str(cfg_path)]) == 0
    assert cli.main(["train-irl", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    full = (tmp_path / "w" / "model.ckpt").read_bytes()

    assert cli.main(["train-irl", "--config", str(cfg_path),
                     "--stop-after", "1"]) == 0
    assert "resume" in capsys.readouterr().out
    assert cli.main(["train-irl", "--config", str(cfg_path), "--resume",
                     str(tmp_path / "w" / "irl_latest.ckpt")]) == 0
    assert (tmp_path / "w" / "model.ckpt").read_bytes() == full


def test_cli_train_irl_rejects_negative_stop_after(tiny_run, tmp_path, capsys):
    copy = tmp_path / "copied_run"
    shutil.copytree(tiny_run["out"], copy)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config(str(copy)).to_json())
    kept = {name: (copy / name).read_bytes() for name in ("irl_latest.ckpt", "metrics.csv")}
    assert cli.main(["train-irl", "--config", str(cfg_path), "--stop-after", "-3"]) == 1
    captured = capsys.readouterr()
    assert "--stop-after" in captured.err and "resume" not in captured.out
    for name, raw in kept.items():
        assert (copy / name).read_bytes() == raw, name


@pytest.mark.parametrize("cause, code", [(NumericError("cost overflow"), 2),
                                         (ValidationError("bad demo batch"), 1)],
                         ids=["numeric", "validation"])
def test_cli_train_irl_failure_exits_by_its_cause(tiny_run, tmp_path, monkeypatch, capsys,
                                                  cause, code):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "pairs.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(tiny_config(str(run)).to_json())

    def fail(*args, **kwargs):
        raise cause

    monkeypatch.setattr(irl, "irl_loss_and_grad", fail)
    assert cli.main(["train-irl", "--config", str(cfg_path)]) == code
    err = capsys.readouterr().err
    assert f"error: learning aborted at outer iteration 0: {cause}" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Corrupt checkpoint sections and out-of-range targets through the CLI
# ---------------------------------------------------------------------------

HEADER_SIZE = 20  # magic, u32 version, u64 body length, u32 body CRC32


def _sections(raw: bytes) -> list[tuple[bytes, bytes]]:
    out, pos = [], HEADER_SIZE
    while pos < len(raw):
        (n,) = struct.unpack_from("<I", raw, pos)
        name = raw[pos + 4:pos + 4 + n]
        (size,) = struct.unpack_from("<Q", raw, pos + 4 + n)
        start = pos + 12 + n
        out.append((name, raw[start:start + size]))
        pos = start + size
    return out


def _rewritten_checkpoint(tmp_path, edit) -> str:
    """Save the sample checkpoint, then rewrite its sections through `edit`, under a
    header with a matching length and CRC so each edit reaches the check it targets."""
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, sample_checkpoint())
    body = b"".join(struct.pack("<I", len(name)) + name + struct.pack("<Q", len(payload))
                    + payload for name, payload in edit(_sections(path.read_bytes())))
    path.write_bytes(MAGIC + struct.pack("<IQI", 2, len(body), zlib.crc32(body)) + body)
    return str(path)


def _plan_exit_code(ckpt_path: str) -> int:
    return cli.main(["plan", "--checkpoint", ckpt_path, "--age", "18", "--target", "50"])


def test_cli_checkpoint_missing_optmeta_exits_2(tmp_path, capsys):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [s for s in secs if s[0] != b"optmeta/group_a"])
    assert _plan_exit_code(path) == 2
    assert "optmeta/group_a" in capsys.readouterr().err


def test_cli_checkpoint_non_utf8_section_name_exits_2(tmp_path, capsys):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(b"params/\xff\xfe" if n == b"params/group_b" else n, p)
                                for n, p in secs])
    assert _plan_exit_code(path) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_cli_checkpoint_mistyped_config_exits_2(tmp_path, capsys):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(n, b'{"world": {"dim": "x"}}' if n == b"config" else p)
                                for n, p in secs])
    assert _plan_exit_code(path) == 2
    assert "world.dim" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(2**62, 2**62), (0, 2**63)])
def test_checkpoint_corrupt_array_shape_exits_2(tmp_path, capsys, shape):
    index = json.dumps([["v", list(shape)]]).encode("utf-8")
    header = struct.pack("<I", len(index)) + index
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(n, header if n == b"params/group_b" else p)
                                for n, p in secs])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    assert _plan_exit_code(path) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("section", [b"config", b"meta", b"rng", b"optmeta/group_a"])
def test_cli_checkpoint_malformed_json_exits_2(tmp_path, capsys, section):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(n, b'{"truncated": ' if n == section else p)
                                for n, p in secs])
    assert _plan_exit_code(path) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_cli_checkpoint_optmeta_not_an_object_exits_2(tmp_path, capsys):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(n, b"[1, 2]" if n == b"optmeta/group_a" else p)
                                for n, p in secs])
    with pytest.raises(CheckpointError, match="optmeta/group_a"):
        load_checkpoint(path)
    assert _plan_exit_code(path) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_checkpoint_of_format_version_1_exits_2(tmp_path, capsys):
    path = tmp_path / "v1.ckpt"
    save_checkpoint(path, sample_checkpoint())
    raw = path.read_bytes()
    path.write_bytes(MAGIC + struct.pack("<I", 1) + raw[HEADER_SIZE:])  # v1 framing
    assert _plan_exit_code(str(path)) == 2
    err = capsys.readouterr().err
    assert "unsupported checkpoint version 1" in err and "re-run the stage" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw + b"\0", "trailing bytes"),
    (lambda raw: raw[:-1], "truncated checkpoint"),
    (lambda raw: raw[:HEADER_SIZE - 1], "truncated checkpoint"),
    (lambda raw: raw[:4], "truncated checkpoint header"),
    (lambda raw: raw[:7], "truncated checkpoint header"),
    (lambda raw: raw[:-1] + bytes([raw[-1] ^ 1]), "checksum mismatch"),
    (lambda raw: raw[:16] + bytes([raw[16] ^ 0x80]) + raw[17:], "checksum mismatch"),
])
def test_cli_checkpoint_header_checks_exit_2(tmp_path, capsys, edit, message):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, sample_checkpoint())
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    assert _plan_exit_code(str(path)) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _other_values(payload: bytes) -> bytes:
    """An array section's payload with every stored value replaced."""
    (n,) = struct.unpack_from("<I", payload)
    values = np.frombuffer(payload, dtype="<f8", offset=4 + n)
    return payload[:4 + n] + (values + 1.0).tobytes()


@pytest.mark.parametrize("edit, message", [
    (lambda secs: secs + [(n, _other_values(p)) for n, p in secs if n == b"params/group_b"],
     "duplicate section params/group_b"),
    (lambda secs: secs + [(n, p) for n, p in secs if n == b"meta"], "duplicate section meta"),
    (lambda secs: secs + [(b"extra", b"{}")], "unknown section extra"),
    (lambda secs: secs + [(b"params/", secs[1][1])], "unknown section params/"),
    (lambda secs: secs + [(b"optmeta/group_b", p) for n, p in secs
                          if n == b"optmeta/group_a"], "optmeta/group_b has no opt/group_b"),
])
def test_cli_checkpoint_repeated_unknown_or_orphan_section_exits_2(tmp_path, capsys, edit,
                                                                    message):
    path = _rewritten_checkpoint(tmp_path, edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
    assert _plan_exit_code(path) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def _array_section(index: bytes, values: bytes = b"") -> bytes:
    return struct.pack("<I", len(index)) + index + values


def _past_the_end(secs):
    """The sections' body with the last section's length 8 bytes past the body's end."""
    body = b"".join(struct.pack("<I", len(n)) + n + struct.pack("<Q", len(p)) + p
                    for n, p in secs)
    payload = secs[-1][1]
    return body[:-len(payload) - 8] + struct.pack("<Q", len(payload) + 8) + payload


@pytest.mark.parametrize("payload, message", [
    (_array_section(b'{"v": [5]}', np.zeros(5).tobytes()), "malformed index"),
    (_array_section(b'[["v"]]', np.zeros(5).tobytes()), "malformed index"),
    (_array_section(b'[[5, ["v"]]]', np.zeros(5).tobytes()), "malformed index"),
    (_array_section(b'[["v", [5]]]', np.zeros(4).tobytes()), "its index lists 40"),
    (_array_section(b'[["v", [5]]]', np.zeros(6).tobytes()), "holds 48 bytes of values"),
])
def test_checkpoint_array_section_that_misfits_its_index_is_refused(tmp_path, payload,
                                                                     message):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(n, payload if n == b"params/group_b" else p)
                                for n, p in secs])
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_cli_checkpoint_section_past_the_body_end_exits_2(tmp_path, capsys):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, sample_checkpoint())
    body = _past_the_end(_sections(path.read_bytes()))
    path.write_bytes(MAGIC + struct.pack("<IQI", 2, len(body), zlib.crc32(body)) + body)
    with pytest.raises(CheckpointError, match="truncated checkpoint payload"):
        load_checkpoint(path)
    assert _plan_exit_code(str(path)) == 2
    err = capsys.readouterr().err
    assert "truncated checkpoint payload" in err and "Traceback" not in err


def _opt_index(names: list[str]) -> bytes:
    index = json.dumps([[name, [2]] for name in names]).encode("utf-8")
    return struct.pack("<I", len(index)) + index + np.zeros(2 * len(names)).tobytes()


@pytest.mark.parametrize("names", [["m0", "m1", "v0", "v1", "x0"], ["m0", "v0", "v1", "m1"],
                                   ["m0", "m1", "v0"], ["mx", "m1", "v0", "v1"]])
def test_cli_checkpoint_optimizer_index_out_of_order_exits_2(tmp_path, capsys, names):
    path = _rewritten_checkpoint(
        tmp_path, lambda secs: [(n, _opt_index(names) if n == b"opt/group_a" else p)
                                for n, p in secs])
    with pytest.raises(CheckpointError, match="opt/group_a must hold arrays m0..mK"):
        load_checkpoint(path)
    assert _plan_exit_code(path) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_target_above_age_max_rejected(tiny_run, capsys):
    ck = str(tiny_run["out"] / "model.ckpt")
    too_old = tiny_run["cfg"].world.age_max + 1
    with pytest.raises(ValidationError, match="target"):
        run_plan(ck, _subject_inputs(tiny_run, 20), target=too_old)
    with pytest.raises(ValidationError, match="target"):
        run_synthesize(ck, _subject_inputs(tiny_run, 20), target=too_old)
    assert cli.main(["plan", "--checkpoint", ck, "--age", "20", "--target",
                     str(too_old)]) == 1
    assert cli.main(["synthesize", "--checkpoint", ck, "--age", "20", "--target",
                     str(too_old)]) == 1
    assert "target age" in capsys.readouterr().err


def test_evaluation_reports_partition_weight_diagnostics(tiny_run):
    energy = json.loads((tiny_run["out"] / "evaluation.json").read_text())["energy"]
    n = energy["partition_samples"]
    assert 1.0 <= energy["partition_ess"] <= n
    assert 1.0 / n <= energy["partition_max_weight"] <= 1.0
    assert 1 <= energy["partition_distinct_paths"] <= n


def build_pairs_reference(trajs, n_actions):
    """Row-by-row pair enumeration, the oracle for the vectorized build_pairs."""
    xp, xt, acts = [], [], []
    for traj in trajs:
        states = reference.states_of(traj)
        ages = [s.age for s in states]
        for i in range(len(ages)):
            for j in range(i, len(ages)):
                gap = ages[j] - ages[i]
                if 0 <= gap < n_actions:
                    xp.append(states[i].observation)
                    xt.append(states[j].observation)
                    acts.append(gap)
    return np.stack(xp), np.stack(xt), np.array(acts, dtype=np.int64)


def test_build_pairs_matches_row_by_row_reference():
    rng = np.random.default_rng(41)
    world = WorldConfig(dim=5, n_actions=7)
    seeds = rng.integers(0, 10**6, size=6).tolist()
    trajs = [generate_subject(world, s)[1] for s in seeds[:4]]
    trajs += [generate_pool_sequence(world, s, stride=int(rng.integers(1, 4)))
              for s in seeds[4:]]
    trajs.append(reference.trajectory([State(rng.standard_normal(5), 30)]))
    got = build_pairs(PathBatch.from_trajectories(trajs), world.n_actions)
    want = build_pairs_reference(trajs, world.n_actions)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_build_pairs_without_pairs_raises():
    # every state pairs with itself at gap 0, so only an empty action range
    # or no trajectories leave nothing
    traj = reference.trajectory([State(np.zeros(2), 20), State(np.zeros(2), 40)])
    with pytest.raises(ValidationError, match="no usable pairs"):
        build_pairs(PathBatch.from_trajectories([traj]), n_actions=0)
    with pytest.raises(ValidationError, match="no usable pairs"):
        build_pairs(PathBatch.from_trajectories([], dim=2), n_actions=4)


def test_cli_ragged_sequence_file_exits_1(tmp_path, capsys):
    cfg = tiny_config(str(tmp_path / "run"))
    stage_gen_data(cfg)
    train = tmp_path / "run" / "train_sequences.jsonl"
    lines = train.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["observations"][2] = rec["observations"][2][:-1]
    lines[1] = json.dumps(rec)
    train.write_text("\n".join(lines) + "\n")
    assert cli.main(["pretrain-flow", "--seed", "3", "--out", str(tmp_path / "run")]) == 1
    assert "line 2" in capsys.readouterr().err


def test_sequence_dim_must_match_config(tmp_path, capsys):
    cfg = tiny_config(str(tmp_path / "run"))
    stage_gen_data(cfg)
    cfg_path = tmp_path / "cfg.json"
    wider = json.loads(cfg.to_json())
    wider["world"]["dim"] = cfg.world.dim + 1
    cfg_path.write_text(json.dumps(wider))
    assert cli.main(["pretrain-flow", "--config", str(cfg_path)]) == 1
    assert "not the configured dim" in capsys.readouterr().err


@pytest.mark.parametrize("shift", [1005, -60, 2**63])
def test_cli_refuses_sequence_ages_outside_the_world(tmp_path, capsys, shift):
    cfg = tiny_config(str(tmp_path / "run"))
    stage_gen_data(cfg)
    train = tmp_path / "run" / "train_sequences.jsonl"
    lines = train.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["ages"] = [a + shift for a in rec["ages"]]
    lines[1] = json.dumps(rec)
    train.write_text("\n".join(lines) + "\n")
    assert cli.main(["pretrain-flow", "--seed", "3", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    if shift == 2**63:
        assert "line 2: ages must be integers that fit in 64 bits" in err
    else:
        assert (f"train_sequences.jsonl: subject {rec['subject_id']} has age "
                f"{rec['ages'][0]}, outside the world range [10, 60]") in err


def _edit_second_record(path, **fields) -> dict:
    """Overwrite fields of a sequence file's second record; returns the record."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1]) | fields
    rec["observations"] = rec["observations"][:len(rec["ages"])]
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")
    return rec


@pytest.mark.parametrize("name, stage", [
    ("train_sequences.jsonl", "pretrain-flow"),
    ("train_sequences.jsonl", "train-pairs"),
    ("train_sequences.jsonl", "train-irl"),
    ("train_sequences.jsonl", "evaluate"),
    ("heldout_sequences.jsonl", "train-pairs"),
])
def test_stages_refuse_an_age_gap_outside_the_action_range(tiny_run, tmp_path, capsys, name,
                                                            stage):
    run = tmp_path / "run"
    shutil.copytree(tiny_run["out"], run)
    rec = _edit_second_record(run / name, ages=[20, 40])
    seed = [] if stage == "evaluate" else ["--seed", "3"]
    assert cli.main([stage, "--out", str(run)] + seed) == 1
    err = capsys.readouterr().err
    assert (f"{name}: subject {rec['subject_id']} has an age gap of 20, outside the "
            "action range [0, 16)") in err
    assert "Traceback" not in err


def test_evaluate_refuses_a_negative_subject_id(tiny_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(tiny_run["out"], run)
    _edit_second_record(run / "heldout_sequences.jsonl", subject_id=-7)
    assert cli.main(["evaluate", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert ("heldout_sequences.jsonl line 2: subject_id must be a non-negative integer"
            in err)
    assert "Traceback" not in err


@pytest.mark.parametrize("name, stage", [
    ("train_sequences.jsonl", "pretrain-flow"),
    ("pool_sequences.jsonl", "pretrain-flow"),
    ("train_sequences.jsonl", "train-irl"),
    ("heldout_sequences.jsonl", "evaluate"),
])
def test_stages_refuse_a_repeated_subject(tiny_run, tmp_path, capsys, name, stage):
    run = tmp_path / "run"
    shutil.copytree(tiny_run["out"], run)
    lines = (run / name).read_text().splitlines()
    (run / name).write_text("\n".join(lines + lines[:1]) + "\n")
    seed = [] if stage == "evaluate" else ["--seed", "3"]
    assert cli.main([stage, "--out", str(run)] + seed) == 1
    err = capsys.readouterr().err
    assert (f"{name}: subject {json.loads(lines[0])['subject_id']} appears more than once"
            in err)
    assert "Traceback" not in err


def test_evaluate_refuses_a_heldout_subject_that_is_also_a_training_subject(tiny_run, tmp_path,
                                                                            capsys):
    run = tmp_path / "run"
    shutil.copytree(tiny_run["out"], run)
    (run / "evaluation.json").unlink()
    train_id = json.loads((run / "train_sequences.jsonl").read_text().splitlines()[3])["subject_id"]
    _edit_second_record(run / "heldout_sequences.jsonl", subject_id=train_id)
    assert cli.main(["evaluate", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert (f"heldout_sequences.jsonl: subject {train_id} is also in train_sequences.jsonl"
            in err)
    assert "Traceback" not in err
    assert not (run / "evaluation.json").exists()


def test_train_pairs_refuses_a_heldout_subject_that_is_also_a_training_subject(tiny_run, tmp_path,
                                                                               capsys):
    run = tmp_path / "run"
    shutil.copytree(tiny_run["out"], run)
    (run / "pairs.ckpt").unlink()
    train_id = json.loads((run / "train_sequences.jsonl").read_text().splitlines()[3])["subject_id"]
    _edit_second_record(run / "heldout_sequences.jsonl", subject_id=train_id)
    assert cli.main(["train-pairs", "--seed", "3", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert (f"heldout_sequences.jsonl: subject {train_id} is also in train_sequences.jsonl"
            in err)
    assert "Traceback" not in err
    assert not (run / "pairs.ckpt").exists()


@pytest.mark.parametrize("request_args", [
    ["plan", "--age", "18", "--target", "50"],
    ["synthesize", "--age", "20", "--action", "5"],
])
def test_cli_refuses_a_negative_subject_seed(tiny_run, capsys, request_args):
    ck = str(tiny_run["out"] / "model.ckpt")
    argv = request_args[:1] + ["--checkpoint", ck] + request_args[1:]
    assert cli.main(argv + ["--subject-seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert "--subject-seed must be a non-negative integer, not -1" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# train-irl: one set-up path, one checkpoint writer
# ---------------------------------------------------------------------------

def test_model_checkpoint_is_final_boundary_checkpoint(tiny_run):
    out = tiny_run["out"]
    assert (out / "model.ckpt").read_bytes() == (out / "irl_latest.ckpt").read_bytes()
    latest = load_checkpoint(out / "irl_latest.ckpt")
    assert latest.meta["next_iteration"] == tiny_run["cfg"].irl.outer_iters


def test_train_irl_serializes_each_boundary_once_and_copies_the_last(tiny_run, tmp_path,
                                                                     monkeypatch):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "pairs.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    written, save = [], pipeline.save_checkpoint
    monkeypatch.setattr(pipeline, "save_checkpoint",
                        lambda path, ckpt: written.append(path.name) or save(path, ckpt))
    stage_train_irl(tiny_config(str(run)))
    assert written == ["irl_latest.ckpt"] * (tiny_run["cfg"].irl.outer_iters + 1)
    assert (run / "model.ckpt").read_bytes() == (run / "irl_latest.ckpt").read_bytes()
    assert not list(run.glob("*.tmp"))


def test_resume_from_final_boundary_rewrites_same_model(tiny_run, tmp_path):
    # the copy lacks the held-out and pool files: train-irl reads only the train file
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "irl_latest.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    stage_train_irl(tiny_config(str(run)), resume=str(run / "irl_latest.ckpt"))
    assert (run / "model.ckpt").read_bytes() == (tiny_run["out"] / "model.ckpt").read_bytes()
    assert (run / "irl_latest.ckpt").read_bytes() == (run / "model.ckpt").read_bytes()
    metrics = read_csv_without_columns(run / "metrics.csv", {"wall_seconds"})
    assert metrics == read_csv_without_columns(tiny_run["out"] / "metrics.csv",
                                               {"wall_seconds"})


def test_cli_resume_rejects_misshaped_optimizer_moments(tiny_run, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "model.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    ckpt = load_checkpoint(run / "model.ckpt")
    for key in ("m", "v"):
        moments = ckpt.opt_states["cost"][key]
        moments[0] = moments[0].reshape(-1)
    save_checkpoint(run / "reshaped.ckpt", ckpt)
    before = sorted(p.name for p in run.iterdir())
    assert cli.main(["train-irl", "--seed", "3", "--out", str(run),
                     "--resume", str(run / "reshaped.ckpt")]) == 2
    assert "cost.l0.w" in capsys.readouterr().err
    assert (run / "model.ckpt").read_bytes() == (tiny_run["out"] / "model.ckpt").read_bytes()
    assert sorted(p.name for p in run.iterdir()) == before


def test_cli_resume_rejects_a_non_finite_optimizer_moment(tiny_run, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "model.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    ckpt = load_checkpoint(run / "model.ckpt")
    ckpt.opt_states["cost"]["m"][0][0, 0] = np.nan
    save_checkpoint(run / "nan_moment.ckpt", ckpt)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert cli.main(["train-irl", "--seed", "3", "--out", str(run),
                     "--resume", str(run / "nan_moment.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "stored m moment for cost.l0.w" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_cli_resume_without_optimizer_state_exits_2(tiny_run, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "model.ckpt", "metrics.csv"):
        shutil.copy(tiny_run["out"] / name, run / name)
    ckpt = load_checkpoint(run / "model.ckpt")
    ckpt.opt_states = {}
    save_checkpoint(run / "no_opt.ckpt", ckpt)
    assert not any(name.startswith((b"opt/", b"optmeta/"))
                   for name, _ in _sections((run / "no_opt.ckpt").read_bytes()))
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert cli.main(["train-irl", "--seed", "3", "--out", str(run),
                     "--resume", str(run / "no_opt.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "checkpoint missing optimizer state" in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


@pytest.mark.parametrize("key, value", [
    ("learning_rate", -0.5), ("beta1", 2.0), ("beta2", 0.0), ("eps", float("nan")),
    ("eps", 0.0), ("learning_rate", float("inf")), ("step_count", -1), ("step_count", 1.5),
    ("step_count", None),
])
def test_cli_resume_rejects_bad_optimizer_scalars(tiny_run, tmp_path, capsys, key, value):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "model.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    ckpt = load_checkpoint(run / "model.ckpt")
    ckpt.opt_states["policy"][key] = value
    save_checkpoint(run / "bad.ckpt", ckpt)
    before = sorted(p.name for p in run.iterdir())
    assert cli.main(["train-irl", "--seed", "3", "--out", str(run),
                     "--resume", str(run / "bad.ckpt")]) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert (run / "model.ckpt").read_bytes() == (tiny_run["out"] / "model.ckpt").read_bytes()
    assert sorted(p.name for p in run.iterdir()) == before


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.meta.pop("next_iteration"), "meta.next_iteration"),
    (lambda c: c.meta.__setitem__("next_iteration", "3"), "meta.next_iteration"),
    (lambda c: c.meta.__setitem__("next_iteration", 1.5), "meta.next_iteration"),
    (lambda c: c.meta.__setitem__("next_iteration", 4), "meta.next_iteration"),
    (lambda c: c.meta["metrics"][1].pop(), "meta.metrics"),
    (lambda c: c.meta["metrics"].pop(), "meta.metrics"),
    (lambda c: c.meta["metrics"][0].__setitem__(2, "x"), "malformed metrics"),
    (lambda c: setattr(c, "rng_state", None), "rng state"),
    (lambda c: c.rng_state.__setitem__("bit_generator", "MT19937"), "rng state"),
    (lambda c: setattr(c, "meta", [1]), "meta is not a JSON object"),
], ids=["no-next", "text-next", "float-next", "next-past-end", "short-row", "missing-row",
        "text-value", "no-rng", "other-generator", "meta-list"])
def test_cli_resume_rejects_bad_meta_and_rng(tiny_run, tmp_path, capsys, edit, message):
    run = tmp_path / "run"
    run.mkdir()
    for name in ("train_sequences.jsonl", "irl_latest.ckpt"):
        shutil.copy(tiny_run["out"] / name, run / name)
    ckpt = load_checkpoint(run / "irl_latest.ckpt")
    edit(ckpt)
    save_checkpoint(run / "bad.ckpt", ckpt)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    assert cli.main(["train-irl", "--seed", "3", "--out", str(run),
                     "--resume", str(run / "bad.ckpt")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_nonfinite_checkpoint_parameter_is_rejected(tiny_run, tmp_path, capsys):
    ckpt = load_checkpoint(tiny_run["out"] / "model.ckpt")
    dict(ckpt.params["model"])["transform.w_act"][:, 7] = np.nan
    path = tmp_path / "nan.ckpt"
    save_checkpoint(path, ckpt)
    with pytest.raises(CheckpointError, match=r"transform\.w_act"):
        run_synthesize(str(path), _subject_inputs(tiny_run, 20), action=3)
    assert cli.main(["synthesize", "--checkpoint", str(path), "--age", "20",
                     "--action", "3"]) == 2
    err = capsys.readouterr().err
    assert "transform.w_act" in err and "Traceback" not in err


def test_cli_resume_from_non_irl_checkpoint_exits_2(tiny_run, capsys):
    out = tiny_run["out"]
    assert cli.main(["train-irl", "--seed", "3", "--out", str(out),
                     "--resume", str(out / "pairs.ckpt")]) == 2
    assert "not a train-irl boundary checkpoint" in capsys.readouterr().err


def test_pairs_checkpoint_implies_exactly_uniform_policy(tiny_run):
    ckpt = load_checkpoint(tiny_run["out"] / "pairs.ckpt")
    assert cost_from_checkpoint(ckpt) is None
    policy = policy_from_checkpoint(ckpt)
    n = ckpt.config.world.n_actions
    for age in (10, 33, 60):
        (obs, _), = _subject_inputs(tiny_run, age)
        assert np.array_equal(reference.probs(policy, State(obs, age)), np.full(n, 1.0 / n))


def test_stages_name_the_missing_sequence_file(tmp_path, capsys):
    run = tmp_path / "run"
    assert cli.main(["train-irl", "--seed", "3", "--out", str(run)]) == 1
    assert "missing train_sequences.jsonl" in capsys.readouterr().err
    stage_gen_data(tiny_config(str(run)))
    (run / "pool_sequences.jsonl").unlink()
    assert cli.main(["pretrain-flow", "--seed", "3", "--out", str(run)]) == 1
    assert "missing pool_sequences.jsonl" in capsys.readouterr().err


def test_train_irl_refuses_an_empty_train_file_before_writing(tiny_run, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(tiny_run["out"] / "pairs.ckpt", run / "pairs.ckpt")
    (run / "train_sequences.jsonl").write_text("")
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(tiny_config(str(run)).to_json())
    assert cli.main(["train-irl", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "train_sequences.jsonl holds no demonstrations" in err and "Traceback" not in err
    assert not (run / "irl_latest.ckpt").exists()
    assert not (run / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# plan / synthesize --input files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("payload,message", [
    ({"observations": [[0.1] * 16]}, "keys ages and observations"),
    ({"ages": [20]}, "keys ages and observations"),
    ([20], "keys ages and observations"),
    ({"ages": [20], "observations": [[float("nan")] * 16]}, "finite"),
    ({"ages": "20", "observations": [[0.1] * 16, [0.2] * 16]}, "lists"),
    ({"ages": [20.0], "observations": [[0.1] * 16]}, "integers"),
    ({"ages": [20, 28], "observations": [[0.1] * 16]}, "equal count"),
    ({"ages": [20, 28], "observations": [[0.1] * 16, [0.2] * 15]}, "malformed"),
    ({"ages": [20, 28], "observations": [[0.1] * 16, [0.2] * 15 + [False]]},
     "observations must be numbers, not true or false"),
])
def test_cli_rejects_invalid_input_file(tiny_run, tmp_path, capsys, payload, message):
    inp = tmp_path / "inputs.json"
    inp.write_text(json.dumps(payload))
    ckpt = str(tiny_run["out"] / "model.ckpt")
    for argv in (["plan", "--checkpoint", ckpt, "--age", "28", "--target", "40"],
                 ["synthesize", "--checkpoint", ckpt, "--age", "28", "--action", "3"]):
        assert cli.main(argv + ["--input", str(inp)]) == 1
        err = capsys.readouterr().err
        assert str(inp) in err and message in err


def _write_inputs(path, cfg, ages):
    from flowpath.world import make_archetype, observe

    arch = make_archetype(cfg.world, 5)
    path.write_text(json.dumps({
        "ages": ages,
        "observations": [[float(v) for v in observe(cfg.world, arch, a)] for a in ages]}))
    return str(path)


@pytest.mark.parametrize("request_args", [
    ["plan", "--target", "50"],
    ["synthesize", "--target", "50"],
    ["synthesize", "--action", "3"],
])
def test_cli_input_file_needs_age_to_be_its_oldest_age(tiny_run, tmp_path, capsys,
                                                        request_args):
    inp = _write_inputs(tmp_path / "inputs.json", tiny_run["cfg"], [15])
    argv = request_args[:1] + ["--checkpoint", str(tiny_run["out"] / "model.ckpt")]
    assert cli.main(argv + ["--age", "55", "--input", inp] + request_args[1:]) == 1
    captured = capsys.readouterr()
    assert "--age 55" in captured.err and "oldest input age 15" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("seed", ["0", "4", "-1"])
def test_cli_input_file_refuses_an_explicit_subject_seed(tiny_run, tmp_path, capsys, seed):
    inp = _write_inputs(tmp_path / "inputs.json", tiny_run["cfg"], [15, 28])
    assert cli.main(["plan", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                     "--age", "28", "--target", "40", "--input", inp,
                     "--subject-seed", seed]) == 1
    captured = capsys.readouterr()
    assert "--subject-seed" in captured.err and "--input" in captured.err
    assert captured.out == ""


def test_cli_subject_seed_defaults_to_subject_0(tiny_run, capsys):
    ck = str(tiny_run["out"] / "model.ckpt")
    outs = []
    for extra in ([], ["--subject-seed", "0"]):
        assert cli.main(["synthesize", "--checkpoint", ck, "--age", "20", "--action", "5"]
                        + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_plan_and_synthesize_responses_hold_python_numbers(tiny_run):
    from flowpath.pipeline import default_subject_inputs, run_plan, run_synthesize

    ck = str(tiny_run["out"] / "model.ckpt")
    cfg = tiny_run["cfg"]
    world_inputs = default_subject_inputs(cfg, 4, 20)
    # numpy ages, as an array-holding caller would pass them
    folded_inputs = [(default_subject_inputs(cfg, 4, a)[0][0], np.int64(a)) for a in (12, 16, 20)]
    for inputs in (world_inputs, folded_inputs):
        plan = run_plan(ck, inputs, 40)
        assert type(plan["start_age"]) is int and type(plan["target_age"]) is int
        assert all(type(a) is int for a in plan["actions"] + plan["ages"])
        for kwargs in ({"action": 5}, {"target": 40}):
            synth = run_synthesize(ck, inputs, **kwargs)
            assert synth["ages"][0] == 20 and all(type(a) is int for a in synth["ages"])
            assert all(type(v) is float for row in synth["observations"] for v in row)


def test_cli_input_file_ages_may_come_in_any_order(tiny_run, tmp_path, capsys):
    from flowpath.world import make_archetype, observe

    cfg = tiny_run["cfg"]
    arch = make_archetype(cfg.world, 5)
    results = []
    for ages in ([20, 28], [28, 20]):
        inp = tmp_path / f"inputs_{ages[0]}.json"
        inp.write_text(json.dumps({
            "ages": ages,
            "observations": [[float(v) for v in observe(cfg.world, arch, a)] for a in ages]}))
        assert cli.main(["plan", "--checkpoint", str(tiny_run["out"] / "model.ckpt"),
                         "--age", "28", "--target", "40", "--input", str(inp)]) == 0
        results.append(json.loads(capsys.readouterr().out))
    assert results[0] == results[1]
    assert results[0]["start_age"] == 28
