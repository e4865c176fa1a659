"""Command-line entry point.

Exit codes: 0 success, 1 validation/usage error, 2 numeric or checkpoint
failure.  All randomness flows from --seed (or the FLOWPATH_SEED environment
variable, or the config file's seed, in that precedence order).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint
from .checks import run_gradcheck, run_oracle_check
from .config import RunConfig, load_config
from .errors import (
    CheckpointError,
    DegenerateWeightsError,
    FlowpathError,
    NumericError,
    ValidationError,
)
from .irl import IrlIterationError
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

    p = sub.add_parser("plan", help="plan an aging path for an input")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--age", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--input", help="JSON file with ages + observations (multi-input)")
    p.add_argument("--subject-seed", type=int, default=0,
                   help="world subject to draw the input from when no file is given")

    p = sub.add_parser("synthesize", help="synthesize progressed observations")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--age", type=int, required=True)
    p.add_argument("--action", type=int)
    p.add_argument("--target", type=int)
    p.add_argument("--input")
    p.add_argument("--subject-seed", type=int, default=0)
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
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict) or any(k not in data for k in ("ages", "observations")):
            raise ValidationError(f"{args.input}: needs the keys ages and observations")
        obs = check_sequence_fields(data["ages"], data["observations"], args.input)
        return list(zip(obs, data["ages"]))
    return pipeline.default_subject_inputs(cfg_from_ckpt, args.subject_seed, args.age)


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
    if cmd == "pretrain-flow":
        path = pipeline.stage_pretrain_flow(resolve_config(args))
        print(f"wrote {path}")
        return 0
    if cmd == "train-pairs":
        path = pipeline.stage_train_pairs(resolve_config(args))
        print(f"wrote {path}")
        return 0
    if cmd == "train-irl":
        path = pipeline.stage_train_irl(resolve_config(args), resume=args.resume,
                                        stop_after=args.stop_after)
        print(f"wrote {path}" if path else "stopped early; resume from irl_latest.ckpt")
        return 0
    if cmd == "plan":
        ckpt = load_checkpoint(args.checkpoint)
        inputs = _load_inputs(args, ckpt.config)
        result = pipeline.run_plan(ckpt, inputs, args.target)
        print(json.dumps(result))
        return 0
    if cmd == "synthesize":
        ckpt = load_checkpoint(args.checkpoint)
        inputs = _load_inputs(args, ckpt.config)
        result = pipeline.run_synthesize(ckpt, inputs,
                                         action=args.action, target=args.target)
        text = json.dumps(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
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
        return 2 if isinstance(exc.cause, ArithmeticError) else 1
    except (ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, DegenerateWeightsError, CheckpointError, ArithmeticError) as exc:
        print(f"numeric/checkpoint failure: {exc}", file=sys.stderr)
        return 2
    except FlowpathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
