"""flowpath benchmark: one workload in one process, end to end or traced.

    python3 perfbench/run.py --workload {fit,irl,plan-queries} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from anywhere inside a full checkout; it builds nothing and imports
flowpath from src/.  Work files go to .perfbench_work/ at the checkout
root.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics from one traced set-up-and-cycle, plus the tracing
overhead against an untraced cycle of the same run.  Lines before it print
the machine and every named metric with its unit.  --smoke shrinks every
size for the self-test.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".perfbench_work")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op1_ms": "ms", "op2_ms": "ms"}


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
    }


def _median_ms(timings) -> float:
    """Median milliseconds per work unit, at nominal machine speed."""
    return statistics.median(t.normalized() for t in timings) * 1000


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fit", "irl", "plan-queries"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="minimal sizes (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "flowpath").is_dir():
        print(f"perfbench: no flowpath sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracer as tracing
    import workloads

    load_start = _loadavg()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    out = WORK / f"{sizes.name}-{args.workload}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = WORK / f"results-{sizes.name}"
    results.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](out, args.seed, sizes)
    key = "-".join([checks.source_digest([ROOT / "src" / "flowpath", ROOT / "perfbench"])[:16],
                    args.workload, f"seed{args.seed}", sizes.name])
    book = checks.DigestBook(WORK / "digests", key)
    tally = workloads.Tally()

    if args.trace == 0:
        runner = workloads.Runner(tally, book)
        with runner.probe:
            setups = [runner.run_setup(workload) for _ in range(sizes.setup_reps)]
            samples, window = runner.run_cycles(workload, 0, seconds=args.seconds,
                                                min_cycles=workload.min_cycles())
        metrics = {
            "setup_s": statistics.median(t.normalized() for t in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op1_ms": _median_ms(samples[0]),
            "op2_ms": _median_ms(samples[1]),
        }
        units = END_TO_END_UNITS
        named = workload.named_metrics(samples, window)
        named.update({
            "setup_s": (statistics.median(t.seconds for t in setups), "s"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "measured_s": (window, "s"),
            "machine_slowdown": (statistics.median(t.slowdown for kind in samples
                                                   for t in kind), "ratio"),
        })
    else:
        runner = workloads.Runner(tally, book)
        with runner.probe:
            runner.run_setup(workload)
            cycles = workload.trace_cycles()
            samples, _ = runner.run_cycles(workload, 0, min_cycles=cycles)
            with tracing.Tracer(clock=runner.probe.now) as tr:
                runner.tracer = tr
                # in a directory of its own, so the workload's inputs stay as set up
                runner.run_op(workloads.gen_data_op(
                    dataclasses.replace(workload.cfg, out_dir=str(out / "traced-gen-data"))))
                traced, _ = runner.run_cycles(workload, cycles, min_cycles=cycles)
        tr.write_spans(results / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = tr.layer_metrics()
        for kind, name in enumerate(tracing.OVERHEAD):
            metrics[name] = _median_ms(traced[kind]) / _median_ms(samples[kind]) - 1
        units = tracing.metric_units()
        named = {}
    named["error_rate"] = (tally.failed / tally.attempted,
                           f"failed/attempted={tally.failed}/{tally.attempted}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "sizes": sizes.name, "op_kinds": list(workload.op_names),
              "machine": dict(machine_info(), loadavg_start=load_start,
                              loadavg_end=_loadavg()),
              "named_metrics": named, "problems": tally.problems,
              "timings": samples}
    book.save()
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(report, metrics=metrics), indent=1, sort_keys=True), encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} sizes={sizes.name}"
          f" op1={workload.op_names[0]} op2={workload.op_names[1]}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    for name, (value, unit) in named.items():
        print(f"  {name:24s} {value!r} {unit}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value!r} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
