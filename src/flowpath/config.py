"""Run configuration: nested settings with a lossless JSON round trip."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .world import WorldConfig


@dataclass
class FlowSettings:
    units: int = 10
    hidden: int = 32
    clamp: float = 2.0
    pretrain_steps: int = 1500
    batch_size: int = 64

    def __post_init__(self):
        if self.units < 0 or self.hidden < 1 or self.clamp <= 0:
            raise ValidationError("flow settings must be positive")


@dataclass
class TransformSettings:
    factors: int = 32
    constraint_weight: float = 0.001
    train_steps: int = 3000
    batch_size: int = 64

    def __post_init__(self):
        if self.factors < 1 or self.constraint_weight < 0:
            raise ValidationError("transform settings must be positive")


@dataclass
class IrlSettings:
    outer_iters: int = 25          # K1
    inner_iters: int = 40          # K2
    sample_paths: int = 64         # M paths sampled per outer iteration
    is_samples: int = 2000         # N for partition-function estimation
    demo_batch: int = 32
    sample_batch: int = 32
    policy_rollouts: int = 64
    policy_steps: int = 10
    cost_learning_rate: float = 2e-3
    policy_learning_rate: float = 0.05

    def __post_init__(self):
        for name, v in dataclasses.asdict(self).items():
            if v <= 0 and name != "outer_iters":
                raise ValidationError(f"irl setting {name} must be positive")
        if self.outer_iters < 0:
            raise ValidationError("outer_iters must be >= 0")


@dataclass
class OptimizerSettings:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999

    def __post_init__(self):
        if self.learning_rate <= 0 or not (0 < self.beta1 < 1) or not (0 < self.beta2 < 1):
            raise ValidationError("optimizer settings out of range")


@dataclass
class RunConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    flow: FlowSettings = field(default_factory=FlowSettings)
    transform: TransformSettings = field(default_factory=TransformSettings)
    irl: IrlSettings = field(default_factory=IrlSettings)
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    seed: int = 0
    out_dir: str = "runs/default"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """A config from parsed JSON; a section that is not an object, or a value
        whose type does not match its field or that is not finite, raises
        ValidationError naming it."""
        if not isinstance(data, dict):
            raise ValidationError("a config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValidationError(f"unknown config sections: {sorted(extra)}")

        def check(where, value, kind):
            types = {"int": int, "float": (int, float), "str": str}[kind]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValidationError(f"config {where} must be {kind}, not {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"config {where} must be finite, not {value!r}")
            return value

        def build(tp, name):
            section = data.get(name, {})
            if not isinstance(section, dict):
                raise ValidationError(f"config section {name} must be a JSON object")
            kinds = {f.name: f.type for f in dataclasses.fields(tp)}
            extra = set(section) - set(kinds)
            if extra:
                raise ValidationError(f"unknown config keys: {sorted(extra)}")
            return tp(**{k: check(f"{name}.{k}", v, kinds[k]) for k, v in section.items()})

        return cls(
            world=build(WorldConfig, "world"),
            flow=build(FlowSettings, "flow"),
            transform=build(TransformSettings, "transform"),
            irl=build(IrlSettings, "irl"),
            optimizer=build(OptimizerSettings, "optimizer"),
            seed=check("seed", data.get("seed", 0), "int"),
            out_dir=check("out_dir", data.get("out_dir", "runs/default"), "str"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return RunConfig.from_json(fh.read())
