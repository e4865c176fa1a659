"""The benchmark's span tracer wraps flowpath functions by name; every name
it lists must still resolve, or a traced benchmark run breaks."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_flowpath():
    traced = _load_tracer().TRACED
    assert traced
    missing = []
    for _, module_name, attr, _ in traced:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced names missing from flowpath: {missing}"
