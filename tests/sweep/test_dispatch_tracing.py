"""Traced sweeps see inside their pooled dispatches.

Sweep tasks run the engine's one kernel through
``EngineRuntime.run_fused``, so a traced parallel sweep reports the same
``runtime.chunk`` spans — recorded in the worker processes and folded
back into the parent — that a traced runtime evaluation does, and
tracing leaves every cell's counts unchanged.
"""

import os

from repro.obs import Instrumentation, build_run_report
from repro.sweep import ScenarioGrid, run_sweep

GRID = ScenarioGrid(
    name="traced",
    num_cases=300,
    systems=("unaided", "assisted"),
    dynamics=("none", "fatigue"),
    replicates=2,
)


def test_traced_parallel_sweep_reports_worker_chunk_spans():
    obs = Instrumentation(name="sweep")
    traced = run_sweep(GRID, seed=3, workers=2, chunk_size=128, obs=obs)
    report = build_run_report(obs)
    chunk_spans = [span for span in report.spans if span["name"] == "runtime.chunk"]
    # 8 cells x 3 chunks each, every one decided in a pool worker.
    assert len(chunk_spans) == len(GRID) * 3
    assert all(span["pid"] != os.getpid() for span in chunk_spans)
    assert report.metrics["histograms"]["runtime.chunk.wall_s"]["count"] == len(chunk_spans)

    plain = run_sweep(GRID, seed=3, workers=2, chunk_size=128)
    assert traced.results == plain.results
