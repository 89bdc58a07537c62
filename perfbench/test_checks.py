"""The benchmark's own tests: every workload's output check fails the run
on a wrong result.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_serve  # noqa: E402
import bench_simulate  # noqa: E402
import bench_sweep  # noqa: E402
import run  # noqa: E402
from common import NullTracer, percentile  # noqa: E402
from repro.analysis import monitor_records  # noqa: E402
from repro.core import PAPER_FIELD_PROFILE, paper_example_parameters  # noqa: E402
from repro.engine import DEFAULT_CHUNK_SIZE, evaluate_system_batch  # noqa: E402
from repro.screening import SingleClassClassifier  # noqa: E402
from repro.service import evaluation_payload, monitoring_report_payload  # noqa: E402
from repro.sweep import SystemSpec, WorkloadSpec  # noqa: E402
from repro.trial.records import TrialRecords  # noqa: E402
from repro.trial.storage import record_from_entry  # noqa: E402


def _last_json(capsys: pytest.CaptureFixture[str]) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_percentile_refuses_too_few_samples_beyond():
    assert percentile([float(i) for i in range(1, 21)], 50) == 10.0
    with pytest.raises(ValueError):
        percentile([1.0] * 999, 99)
    assert percentile([1.0] * 1000, 99) == 1.0


def test_run_fails_without_the_program(tmp_path: Path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture()
def simulate_ctx():
    ctx = bench_simulate.setup(7, NullTracer(), probe=True)
    yield ctx
    ctx.close()


def _wrong_seed(real):
    """An ``evaluate_system_batch`` that answers for another seed."""

    def wrong(system, workload, classifier=None, *args, seed=None, **kwargs):
        return real(system, workload, classifier, *args, seed=seed + 1, **kwargs)

    return wrong


def test_simulate_check_passes_then_catches_a_wrong_batch_result(simulate_ctx, monkeypatch):
    assert bench_simulate.check(simulate_ctx) == []
    monkeypatch.setattr(
        bench_simulate, "evaluate_system_batch", _wrong_seed(bench_simulate.evaluate_system_batch)
    )
    errors = bench_simulate.check(simulate_ctx)
    assert errors and all("batch" in e for e in errors)


def test_simulate_run_exits_1_on_a_wrong_result(monkeypatch, capsys):
    monkeypatch.setattr(bench_simulate, "NUM_CASES", bench_simulate.PROBE_CASES)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    real = bench_simulate.evaluate_system_batch
    monkeypatch.setattr(bench_simulate, "evaluate_system", _wrong_seed(
        lambda system, workload, classifier=None, seed=None: real(system, workload, classifier, seed=seed)
    ))
    code = run.main(["--workload", "simulate", "--seed", "3", "--seconds", "0.1"])
    assert code == 1
    assert _last_json(capsys)["correct"] is False


def test_sweep_check_catches_a_cell_that_differs(monkeypatch):
    ctx = bench_sweep.setup(5, NullTracer(), probe=True)
    try:
        bench_sweep.measure(ctx, 0.0, NullTracer(), min_calls=1)
        assert bench_sweep.check(ctx) == []
        real = bench_sweep.reproduce_cell
        other = sorted(ctx.result.evaluations())[-1]

        def wrong(plan, cell_id, **kwargs):
            return real(plan, other if cell_id != other else sorted(ctx.result.evaluations())[0], **kwargs)

        monkeypatch.setattr(bench_sweep, "reproduce_cell", wrong)
        assert bench_sweep.check(ctx)
    finally:
        ctx.close()


def _outcome(request: bench_serve.Request, body: bytes) -> bench_serve.Outcome:
    return bench_serve.Outcome(0, 0, request, 0.0, 0.001, True, 200, body)


def test_serve_read_check_catches_a_tampered_response():
    requests = [
        r for r in bench_serve.read_requests(2, 0, 40) if r.path == "/v1/compare"
    ][:2]
    assert len(requests) == 2
    good = []
    for request in requests:
        p = request.payload
        workload = WorkloadSpec(**p["workload"]).build()
        body = {
            "evaluations": [
                evaluation_payload(
                    evaluate_system_batch(
                        SystemSpec(**s).build(p["seed"]), workload, SingleClassClassifier(),
                        seed=p["seed"], chunk_size=DEFAULT_CHUNK_SIZE,
                    )
                )
                for s in p["systems"]
            ]
        }
        good.append(_outcome(request, json.dumps(body).encode()))
    assert bench_serve.check_reads(good) == []
    tampered = json.loads(good[0].body)
    tampered["evaluations"][1]["false_negative"]["failures"] += 1
    bad = [_outcome(good[0].request, json.dumps(tampered).encode()), good[1]]
    assert len(bench_serve.check_reads(bad)) == 1


def test_serve_mixed_check_catches_a_wrong_monitor_report(monkeypatch):
    monkeypatch.setattr(bench_serve, "INGEST_RECORDS", 300)
    requests = bench_serve.ingest_requests(9, batches=3)
    outcomes = [_outcome(r, b'{"received": 300}') for r in requests + requests[:1]]
    records = TrialRecords(
        record_from_entry(e) for r in requests + requests[:1] for e in r.payload["records"]
    )
    report = monitoring_report_payload(
        monitor_records(records, paper_example_parameters(), PAPER_FIELD_PROFILE, alpha=0.01)
    )
    final = json.loads(json.dumps({"report": report}))
    assert bench_serve.check_monitor(outcomes, final) == []
    # Dropping one batch from what the server reports must be caught.
    assert bench_serve.check_monitor(outcomes[:-1], final)
    final["report"]["tests"][0]["p_value"] += 1e-12
    assert bench_serve.check_monitor(outcomes, final)


def test_serve_live_run_checks_pass_then_catch_tampering(monkeypatch):
    monkeypatch.setattr(bench_serve, "CHECK_EVERY", 1)
    ctx = bench_serve.make_setup(True)(4, NullTracer())
    try:
        phase = bench_serve.measure(ctx, 1.0, NullTracer(), min_calls=0)
        assert phase.failed == 0
        assert bench_serve.check(ctx) == []
        sampled = next(
            i for i, o in enumerate(ctx.outcomes)
            if o.body is not None and o.request.path == "/v1/evaluate"
        )
        body = json.loads(ctx.outcomes[sampled].body)
        body["evaluation"]["false_negative"]["failures"] += 1
        o = ctx.outcomes[sampled]
        ctx.outcomes[sampled] = bench_serve.Outcome(
            o.connection, o.index, o.request, o.start, o.end, True, 200, json.dumps(body).encode()
        )
        assert bench_serve.check(ctx)
    finally:
        ctx.close()
