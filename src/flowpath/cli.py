"""Command-line entry point.

Exit codes (`exit_code`): 0 success, 2 for an ArithmeticError or a CheckpointError, also
as a learning iteration's cause, and 1 for any other error.  All randomness flows from
--seed (or FLOWPATH_SEED, or the config file's seed, in that precedence order).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checks import run_gradcheck, run_oracle_check
from .config import RunConfig, load_config
from .errors import CheckpointError, FlowpathError, ValidationError
from .irl import IrlIterationError
from .metrics import write_atomic
from .world import check_sequence_fields
from . import pipeline

SEED_ENV_VAR = "FLOWPATH_SEED"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep usage errors at 1
        raise UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def build_parser() -> _Parser:
    parser = _Parser(prog="flowpath", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--out", help="output directory override")

    for name, help_text in (
        ("gen-data", "generate the synthetic world's sequence files"),
        ("pretrain-flow", "train the two coupling stacks on pooled observations"),
        ("train-pairs", "train the controller transform on observation pairs"),
        ("train-irl", "run the alternating cost/policy learning loop"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "train-irl":
            p.add_argument("--resume", help="resume from a boundary checkpoint")
            p.add_argument("--stop-after", type=int,
                           help="stop after this many outer iterations")

    for name, help_text in (("plan", "plan an aging path for an input"),
                            ("synthesize", "synthesize progressed observations")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--age", type=int, required=True)
        p.add_argument("--target", type=int, required=name == "plan")
        p.add_argument("--input", help="JSON file with ages + observations (multi-input)")
        p.add_argument("--subject-seed", type=int, help="world subject (default 0) to draw "
                       "the input from when no file is given")
        if name == "synthesize":
            p.add_argument("--action", type=int)
            p.add_argument("--out", help="write the result JSON here instead of stdout")

    p = sub.add_parser("evaluate", help="held-out path recovery and age fidelity")
    p.add_argument("--out", help="run directory (the checkpoint's config supplies the rest)")
    p.add_argument("--checkpoint")

    for name in ("gradcheck", "oracle-check"):
        p = sub.add_parser(name, help=f"run the registered {name} suite")
        p.add_argument("--seed", type=int, default=0)

    return parser


def _check_seed(value, source: str) -> int:
    """A seed numpy accepts, a non-negative integer; else a ValidationError naming `source`."""
    if not str(value).isdecimal():
        raise ValidationError(f"{source} must be a non-negative integer, not {value!r}")
    return int(value)


def resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    source = "config seed"
    if getattr(args, "seed", None) is not None:
        cfg.seed, source = args.seed, "--seed"
    elif os.environ.get(SEED_ENV_VAR):
        cfg.seed, source = os.environ[SEED_ENV_VAR], SEED_ENV_VAR
    cfg.seed = _check_seed(cfg.seed, source)
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg


def _load_inputs(args, cfg_from_ckpt) -> list[tuple[np.ndarray, int]]:
    """The --input file's observations, or world subject --subject-seed (default 0) at --age."""
    if not args.input:
        seed = 0 if args.subject_seed is None else args.subject_seed
        return pipeline.default_subject_inputs(
            cfg_from_ckpt, _check_seed(seed, "--subject-seed"), args.age)
    if args.subject_seed is not None:
        raise ValidationError("--subject-seed cannot be combined with --input")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict) or any(k not in data for k in ("ages", "observations")):
        raise ValidationError(f"{args.input}: needs the keys ages and observations")
    obs = check_sequence_fields(data["ages"], data["observations"], args.input, text)
    if args.age != max(data["ages"]):
        raise ValidationError(f"--age {args.age} is not the oldest input age "
                              f"{max(data['ages'])} of {args.input}")
    return list(zip(obs, data["ages"]))


def _run_checks(results) -> int:
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return 0 if ok else 1


def dispatch(args) -> int:
    cmd = args.command
    if cmd == "gen-data":
        out = pipeline.stage_gen_data(resolve_config(args))
        print(f"wrote sequence files under {out}")
        return 0
    if cmd in ("pretrain-flow", "train-pairs"):
        stage = getattr(pipeline, "stage_" + cmd.replace("-", "_"))
        print(f"wrote {stage(resolve_config(args))}")
        return 0
    if cmd == "train-irl":
        path = pipeline.stage_train_irl(resolve_config(args), resume=args.resume,
                                        stop_after=args.stop_after)
        print(f"wrote {path}" if path else "stopped early; resume from irl_latest.ckpt")
        return 0
    if cmd in ("plan", "synthesize"):
        ckpt = pipeline.request_checkpoint(args.checkpoint, args.target)
        inputs = _load_inputs(args, ckpt.config)
        text = json.dumps(pipeline.run_plan(ckpt, inputs, args.target) if cmd == "plan" else
                          pipeline.run_synthesize(ckpt, inputs, args.action, args.target))
        if getattr(args, "out", None):
            write_atomic(args.out, (text + "\n").encode("utf-8"))
        else:
            print(text)
        return 0
    if cmd == "evaluate":
        cfg = RunConfig(out_dir=args.out) if args.out else RunConfig()
        report = pipeline.stage_evaluate(cfg, checkpoint_path=args.checkpoint)
        print(json.dumps({k: v for k, v in report.items() if k != "subjects"},
                         indent=2, sort_keys=True))
        return 0
    if cmd == "gradcheck":
        return _run_checks(run_gradcheck(_check_seed(args.seed, "--seed")))
    if cmd == "oracle-check":
        return _run_checks(run_oracle_check(_check_seed(args.seed, "--seed")))
    raise UsageError(f"unknown command {cmd}")


def exit_code(exc: BaseException) -> int:
    """2 for a numeric or checkpoint failure, 1 for any other error."""
    return 2 if isinstance(exc, (ArithmeticError, CheckpointError)) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return dispatch(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except IrlIterationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(exc.cause)
    except (FlowpathError, ValueError, ArithmeticError, OSError) as exc:
        code = exit_code(exc)
        print(f"{'numeric/checkpoint failure' if code == 2 else 'error'}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
