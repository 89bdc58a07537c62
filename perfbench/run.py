"""The repository benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with all instrumentation
off.  ``--trace 1`` is the separate traced run: an untraced and a traced
half of the workload (their difference is the tracing overhead), spans
around every public call written to ``perfbench/out/``, and the
per-layer metrics.  Layers the workload bypasses are measured by short
probes of the workload that exercises them, so every traced run reports
every per-layer metric.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed output check prints
``"correct": false`` and exits 1.  Metric names and units come from
``BENCHMARK.json``; the layer-to-end-to-end map from
``perfbench/layers.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from common import OUT_DIR, PROBES_AROUND, NullTracer, Reference, Tracer, median, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "sweep", "serve-read", "serve-mixed")
SETUP_REPEATS = 5


def load_modules() -> dict[str, Any]:
    """The workload modules; imports the program under test from ``src/``."""
    sys.path.insert(0, str(ROOT / "src"))
    import bench_serve
    import bench_simulate
    import bench_sweep

    return {
        "simulate": bench_simulate,
        "sweep": bench_sweep,
        "serve-read": _ServeWorkload(bench_serve, mixed=False),
        "serve-mixed": _ServeWorkload(bench_serve, mixed=True),
    }


class _ServeWorkload:
    """Adapts :mod:`bench_serve` to the per-workload interface."""

    IN_PROCESS = False
    TRACE_MIN_CALLS = 0

    def __init__(self, bench_serve: Any, mixed: bool) -> None:
        self.setup = bench_serve.make_setup(mixed)
        self.measure = bench_serve.measure
        self.e2e = bench_serve.e2e
        self.check = bench_serve.check
        self.layers = bench_serve.layers
        self.extras = bench_serve.extras


def _print_table(title: str, rows: list[tuple[str, str, str]]) -> None:
    print(title)
    width = max(len(name) for name, _, _ in rows)
    for name, value, unit in rows:
        print(f"  {name:<{width}}  {value:>14}  {unit}")


def _fmt(value: Any) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _result(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }
    )


def run_untraced(name: str, module: Any, spec: dict[str, Any], seed: int, seconds: float) -> tuple[str, bool]:
    tracer = NullTracer()
    # Each set-up is scaled by the host's slowdown around it, as the
    # timed operations are.
    host = Reference()
    setup_times = []
    raw_setup_times = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        if ctx is not None:
            ctx.close()
        host.probe(PROBES_AROUND)
        mark = host.mark()
        ctx = module.setup(seed, tracer)
        raw_setup_times.append(ctx.setup_s)
        setup_times.append(ctx.setup_s / host.around(mark))
    try:
        phase = module.measure(ctx, seconds, tracer)
        errors = phase.errors + module.check(ctx)
        values = module.e2e(ctx, phase)
    finally:
        ctx.close()
    values["setup_s"] = median(setup_times)
    values["peak_rss_mb"] = peak_rss_mb(include_self=module.IN_PROCESS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {m: (values[m], units[m]) for m in units}
    raw = {m: v for m, v in values.items() if m not in units}
    raw["setup_s"] = median(raw_setup_times)

    rows = [(m, _fmt(v), u) for m, (v, u) in metrics.items()]
    rows += [(f"{m} (raw)", _fmt(v), units.get(f"{m}_cal", "s")) for m, v in raw.items()]
    rows.append(("host.slowdown", _fmt(phase.reference.slowdown()), "x nominal"))
    rows.append(("error_rate", _fmt(phase.failed / phase.attempted), "fraction"))
    rows += [(m, _fmt(v), u) for m, (v, u) in module.extras(ctx, phase).items()]
    rows += [(f"samples.{k}", str(v), "count") for k, v in phase.samples.items()]
    _print_table(f"{name} (seed {seed}, {seconds:g}s, tracing off)", rows)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    correct = not errors
    return _result(correct, phase.attempted, phase.failed, metrics), correct


def run_traced(name: str, modules: dict[str, Any], spec: dict[str, Any], seed: int, seconds: float) -> tuple[str, bool]:
    from repro.obs import Instrumentation

    import bench_serve
    import bench_simulate
    import bench_sweep

    module = modules[name]
    half = seconds / 2.0
    ctx = module.setup(seed, NullTracer())
    try:
        untraced = module.measure(ctx, half, NullTracer(), module.TRACE_MIN_CALLS)
    finally:
        ctx.close()

    tracer = Tracer()
    ctx = module.setup(seed, tracer, obs=Instrumentation(name=f"perfbench.{name}"))
    try:
        traced = module.measure(ctx, half, tracer, module.TRACE_MIN_CALLS)
        errors = traced.errors + module.check(ctx)
        values = module.layers(ctx, traced)
    finally:
        ctx.close()
    untraced_ops = untraced.e2e["ops_per_s_cal"]
    traced_ops = traced.e2e["ops_per_s_cal"]
    values["trace.overhead_share"] = 1.0 - traced_ops / untraced_ops

    probes = (
        (bench_simulate.LAYER_METRICS, bench_simulate.probe),
        (bench_sweep.LAYER_METRICS, bench_sweep.probe),
        (bench_serve.READ_LAYER_METRICS, bench_serve.probe_read),
        (bench_serve.INGEST_LAYER_METRICS, bench_serve.probe_ingest),
    )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for provides, probe in probes:
        missing = (set(units) - set(values)) & provides
        if missing:
            measured = probe(seed, tracer, Instrumentation(name="perfbench.probe"))
            values.update({k: measured[k] for k in missing})
    tracer.write(OUT_DIR / f"trace-{name}-seed{seed}.json")
    metrics = {m: (values[m], units[m]) for m in units}

    moves = json.loads((HERE / "layers.json").read_text())["layers"]
    rows = []
    for m, (v, u) in metrics.items():
        target = moves.get(m, {})
        where = "; ".join(f"{e} on {w}" for e, w in target.get("moves", []))
        rows.append((m, _fmt(v), f"{u:<9} -> {where}" if where else u))
    _print_table(f"{name} (seed {seed}, {seconds:g}s, traced run: per-layer metrics)", rows)
    print(
        f"tracing overhead: ops_per_s_cal untraced {untraced_ops:.6g}, "
        f"traced {traced_ops:.6g} "
        f"({values['trace.overhead_share']:+.2%})"
    )
    for error in errors:
        print(f"CHECK FAILED: {error}")
    correct = not errors
    return _result(correct, traced.attempted, traced.failed, metrics), correct


def run_all(argv_rest: list[str]) -> int:
    """Every workload in its own process, one after the other."""
    combined: dict[str, Any] = {}
    correct, attempted, failed = True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, *argv_rest],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload}: exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{workload}.{metric}"] = value
        print()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """Reap the shared-memory tracker process the engine runtime starts in
    this process, so no child outlives the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be > 0 and --seed >= 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modules = load_modules()
    try:
        if args.trace:
            line, correct = run_traced(args.workload, modules, spec, args.seed, args.seconds)
        else:
            line, correct = run_untraced(args.workload, modules[args.workload], spec, args.seed, args.seconds)
    finally:
        _stop_resource_tracker()
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
