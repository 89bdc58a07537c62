"""Workload ``sweep``: a stateless scenario grid through ``run_sweep``.

3 populations x (unaided + assisted at 3 operating points) x 3 biases x
replicates, 2000-case cells, journal on, one persistent
``EngineRuntime(workers=2)``.  The fused stateless kernels (CADT and
reader ``decide_batch``, the bincount tally) do the work, wrapped in
workload dedup, sharding and journalling.  No stream reader and no
scalar fallback runs here.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import PROBES_AROUND, Phase, Reference, Tracer, median, percentile, scratch_dir
from repro.engine import EngineRuntime
from repro.engine.fused import build_fused_item, cancer_class_codes, run_fused_batch
from repro.screening import SubtletyClassifier
from repro.sweep import (
    ScenarioGrid,
    SweepPlan,
    SweepResult,
    compile_grid,
    reproduce_cell,
    run_sweep,
)

CELL_CASES = 2_000
REPLICATES = 4
PROBE_REPLICATES = 2
#: ``run_sweep`` calls a run needs before its p50 has ten samples beyond.
MIN_CALLS = 20
TRACE_MIN_CALLS = 3
#: The program runs in this process (plus its pool workers).
IN_PROCESS = True
#: Cells per run re-evaluated standalone by the output check.
CHECK_CELLS = 6
#: What :func:`layers` (and so :func:`probe`) reports.
LAYER_METRICS = frozenset(
    {
        "screening.build_s",
        "screening.columnise_s",
        "engine.runtime_start_s",
        "engine.workload_cache_hits",
        "sweep.compile_s",
        "sweep.cells_per_dispatch",
        "sweep.shard_ms_p50",
        "sweep.journal_bytes_per_cell",
        "engine.fused_us_per_case",
    }
)


def grid(seed: int, replicates: int = REPLICATES) -> ScenarioGrid:
    return ScenarioGrid(
        name="perfbench",
        populations=("routine", "symptomatic", "young"),
        num_cases=CELL_CASES,
        cancer_fraction=0.5,
        population_seed=seed,
        systems=("unaided", "assisted"),
        biases=("none", "mild", "strong"),
        dynamics=("none",),
        operating_points=(-0.2, 0.0, 0.2),
        replicates=replicates,
    )


@dataclass
class Context:
    seed: int
    grid: ScenarioGrid
    runtime: EngineRuntime
    classifier: SubtletyClassifier
    journals: Path
    setup_s: float
    build_s: float
    columnise_s: float
    runtime_start_s: float
    obs: object = None
    result: SweepResult | None = None

    def close(self) -> None:
        self.runtime.close()
        shutil.rmtree(self.journals, ignore_errors=True)


def setup(seed: int, tracer: Tracer, obs: object = None, probe: bool = False) -> Context:
    """Build and columnise the grid's workloads, start the runtime, and
    run one warm shard so the pool and shared planes are up."""
    the_grid = grid(seed, PROBE_REPLICATES if probe else REPLICATES)
    plan = compile_grid(the_grid, seed=seed)
    start = time.perf_counter()
    workloads = [spec.build() for spec in plan.workloads.values()]
    built = time.perf_counter()
    for workload in workloads:
        workload.to_arrays()
    columnised = time.perf_counter()
    runtime = EngineRuntime(workers=2, max_cached_workloads=8, obs=obs)
    for workload in workloads:
        runtime.publish_workload(workload)
    classifier = SubtletyClassifier()
    run_sweep(
        the_grid, seed=seed, classifier=classifier, runtime=runtime, max_shards=1
    )
    ready = time.perf_counter()
    root = tracer.record("setup", start, ready, trace=tracer.new_trace())
    tracer.record("screening.build", start, built, parent=root)
    tracer.record("screening.columnise", built, columnised, parent=root)
    tracer.record("engine.runtime_start", columnised, ready, parent=root)
    return Context(
        seed=seed,
        grid=the_grid,
        runtime=runtime,
        classifier=classifier,
        journals=scratch_dir("sweep"),
        setup_s=ready - start,
        build_s=built - start,
        columnise_s=columnised - built,
        runtime_start_s=ready - columnised,
        obs=obs,
    )


def measure(ctx: Context, seconds: float, tracer: Tracer, min_calls: int = MIN_CALLS) -> Phase:
    """Whole ``run_sweep`` calls, one caller, journal on."""
    calls: list[float] = []
    raw_calls: list[float] = []
    rates: list[float] = []
    raw_rates: list[float] = []
    journal_bytes: list[float] = []
    errors: list[str] = []
    cells = 0
    failed = 0
    host = Reference()
    host.probe(PROBES_AROUND)
    start = time.perf_counter()
    while True:
        journal = ctx.journals / f"journal-{len(calls) + failed}.jsonl"
        mark = host.mark()
        t0 = time.perf_counter()
        try:
            result = run_sweep(
                ctx.grid,
                seed=ctx.seed + len(calls) + failed,
                classifier=ctx.classifier,
                runtime=ctx.runtime,
                journal=journal,
                obs=ctx.obs,
            )
        except Exception as exc:  # noqa: BLE001 - counted, run keeps going
            failed += 1
            errors.append(f"run_sweep: {exc!r}")
            host.around(mark)
        else:
            t1 = time.perf_counter()
            tracer.record("sweep.run_sweep", t0, t1, cells=len(result.results))
            slowdown = host.around(mark)
            raw_calls.append(t1 - t0)
            calls.append((t1 - t0) / slowdown)
            raw_rates.append(result.executed / raw_calls[-1])
            rates.append(result.executed / calls[-1])
            if not result.complete:
                errors.append("sweep: run_sweep returned an incomplete result")
            cells += result.executed
            journal_bytes.append(journal.stat().st_size / len(result.results))
            ctx.result = result
        journal.unlink(missing_ok=True)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(calls) + failed >= min_calls:
            break
    # The median call's rate: a burst of host noise during one call does
    # not move it.
    e2e = {}
    for suffix, per_call in (("_cal", rates), ("", raw_rates)):
        e2e[f"ops_per_s{suffix}"] = median(per_call)
        e2e[f"cases_per_s{suffix}"] = median(per_call) * CELL_CASES
    phase = Phase(
        e2e=e2e,
        attempted=len(calls) + failed,
        failed=failed,
        samples={"calls": len(calls), "cells": cells},
        errors=errors,
        reference=host,
    )
    phase.info["calls"] = calls
    phase.info["raw_calls"] = raw_calls
    phase.info["journal_bytes_per_cell"] = journal_bytes
    return phase


def e2e(ctx: Context, phase: Phase) -> dict[str, float]:
    failed = [float("inf")] * phase.failed
    metrics = dict(phase.e2e)
    metrics["op_p50_ms_cal"] = percentile(phase.info["calls"] + failed, 50) * 1e3
    metrics["op_p50_ms"] = percentile(phase.info["raw_calls"] + failed, 50) * 1e3
    return metrics


def extras(ctx: Context, phase: Phase) -> dict[str, tuple[float, str]]:
    """The sweep path's own metric name, for the printed table."""
    return {
        "cells_per_s": (phase.e2e["ops_per_s"], "cells/s"),
        "cells_per_s_cal": (phase.e2e["ops_per_s_cal"], "cells/s"),
    }


def check(ctx: Context) -> list[str]:
    """Re-evaluate sampled cells standalone; they must be equal."""
    result = ctx.result
    if result is None:
        return ["sweep: no completed run_sweep to check"]
    evaluations = result.evaluations()
    cell_ids = sorted(evaluations)
    step = max(1, len(cell_ids) // CHECK_CELLS)
    errors = []
    for cell_id in cell_ids[::step][:CHECK_CELLS]:
        standalone = reproduce_cell(result.plan, cell_id, classifier=ctx.classifier)
        if standalone != evaluations[cell_id]:
            errors.append(f"sweep: cell {cell_id} differs from reproduce_cell")
    return errors


def fused_us_per_case(plan: SweepPlan, classifier: SubtletyClassifier) -> float:
    """One ``run_fused_batch`` task of the plan, replayed in-process on a
    built plane; microseconds per case evaluated."""
    batch = plan.shards[0].batches[0]
    workload = plan.workloads[batch.workload_key].build()
    arrays = workload.to_arrays()
    positions = np.flatnonzero(arrays.has_cancer)
    codes = cancer_class_codes(workload, classifier, arrays, positions)
    items = tuple(
        build_fused_item(cell.index, cell.cell.system.build(cell.seed), cell.seed)
        for cell in batch.cells
    )
    task = (arrays, plan.chunk_size, positions, codes, len(classifier.classes), items)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        run_fused_batch(task)
        times.append(time.perf_counter() - t0)
    return median(times) / (len(items) * len(arrays)) * 1e6


def layers(ctx: Context, phase: Phase) -> dict[str, float]:
    """Per-layer metrics of the traced phase (``ctx.obs`` fed ``run_sweep``)."""
    compile_times = []
    for _ in range(5):
        t0 = time.perf_counter()
        plan = compile_grid(ctx.grid, seed=ctx.seed)
        compile_times.append(time.perf_counter() - t0)
    shards = [
        span["duration_s"]
        for span in ctx.obs.report().spans
        if span["name"] == "sweep.shard"
    ]
    return {
        "screening.build_s": ctx.build_s,
        "screening.columnise_s": ctx.columnise_s,
        "engine.runtime_start_s": ctx.runtime_start_s,
        "engine.workload_cache_hits": float(ctx.runtime.cache_info()["hits"]),
        "sweep.compile_s": median(compile_times),
        "sweep.cells_per_dispatch": len(plan) / plan.fused_dispatches,
        "sweep.shard_ms_p50": median(shards) * 1e3,
        "sweep.journal_bytes_per_cell": median(phase.info["journal_bytes_per_cell"]),
        "engine.fused_us_per_case": fused_us_per_case(plan, ctx.classifier),
    }


def probe(seed: int, tracer: Tracer, obs: object) -> dict[str, float]:
    """These layers' metrics on a smaller grid, for other workloads' traced runs."""
    ctx = setup(seed, tracer, obs=obs, probe=True)
    try:
        phase = measure(ctx, 0.0, tracer, min_calls=2)
        return layers(ctx, phase)
    finally:
        ctx.close()
