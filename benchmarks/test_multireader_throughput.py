"""Benchmark: vectorized multi-reader systems versus the scalar loop.

The acceptance bar for the batch path of ``DoubleReading`` and
``AssistedDoubleReading`` (see ``docs/engine.md``): evaluated through
:func:`~repro.engine.evaluate_system_batch` — per-reader
``decide_batch`` calls over one CADT output, combined by a recall mask —
both systems, under the EITHER and ARBITRATION policies, must be at
least 10x faster than :func:`~repro.system.evaluate_system` on the same
workload, with *bit-identical* failure counts.  Unseeded runs consume
every component's private generator exactly as the per-case loop does,
so the identity is exact, not statistical.

Measured times are written to ``BENCH_multireader.json`` at the repo
root (uploaded as a CI artifact).  Run with::

    pytest benchmarks/test_multireader_throughput.py -s
"""

from __future__ import annotations

import time

import pytest

from benchmarks._report import write_benchmark_report
from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import evaluate_system_batch, supports_batch
from repro.reader import MILD_BIAS, ReaderModel
from repro.screening import routine_screening_population, trial_workload
from repro.system import (
    AssistedDoubleReading,
    DoubleReading,
    RecallPolicy,
    evaluate_system,
)

NUM_CASES = 8_000
REPEATS = 3
SEED = 2027
REQUIRED_SPEEDUP = 10.0
POLICIES = (RecallPolicy.EITHER, RecallPolicy.ARBITRATION)


def _readers(count):
    return [
        ReaderModel(bias=MILD_BIAS, name=f"r{index}", seed=201 + index)
        for index in range(count)
    ]


def make_double(policy):
    first, second, arbiter = _readers(3)
    return DoubleReading([first, second], policy, arbiter)


def make_assisted_double(policy):
    first, second, arbiter = _readers(3)
    cadt = Cadt(DetectionAlgorithm(), seed=210)
    return AssistedDoubleReading([first, second], cadt, policy, arbiter)


SYSTEM_FACTORIES = {
    f"{kind}_{policy.value}": (factory, policy)
    for kind, factory in (("double", make_double), ("assisted_double", make_assisted_double))
    for policy in POLICIES
}


@pytest.fixture(scope="module")
def workload():
    return trial_workload(
        routine_screening_population(seed=SEED),
        NUM_CASES,
        cancer_fraction=0.3,
        name="bench_multireader",
    )


def counts(evaluation):
    fn, fp = evaluation.false_negative, evaluation.false_positive
    return (
        (fn.failures, fn.trials) if fn else None,
        (fp.failures, fp.trials) if fp else None,
    )


def best_of(evaluate, factory, policy, workload):
    """Best time over fresh systems, and the (identical) counts."""
    times, results = [], set()
    for _ in range(REPEATS):
        system = factory(policy)
        start = time.perf_counter()
        evaluation = evaluate(system, workload)
        times.append(time.perf_counter() - start)
        results.add(counts(evaluation))
    (result,) = results
    return min(times), result


def test_multireader_batch_is_10x_faster_than_scalar_loop(workload):
    workload.to_arrays()  # columnise once, outside the timings
    scalar_times, batch_times = {}, {}
    for name, (factory, policy) in SYSTEM_FACTORIES.items():
        assert supports_batch(factory(policy))
        scalar_times[name], scalar = best_of(evaluate_system, factory, policy, workload)
        batch_times[name], batch = best_of(evaluate_system_batch, factory, policy, workload)
        # The speedup claim is only meaningful if the outputs agree exactly.
        assert batch == scalar, name

    scalar_elapsed = sum(scalar_times.values())
    batch_elapsed = sum(batch_times.values())
    speedup = scalar_elapsed / batch_elapsed
    per_case_scalar = scalar_elapsed / (len(SYSTEM_FACTORIES) * NUM_CASES) * 1e6
    per_case_batch = batch_elapsed / (len(SYSTEM_FACTORIES) * NUM_CASES) * 1e6
    per_system = {
        name: round(scalar_times[name] / batch_times[name], 1)
        for name in SYSTEM_FACTORIES
    }
    print(
        f"\nscalar loop: {per_case_scalar:.1f} us/case  "
        f"batch: {per_case_batch:.2f} us/case  speedup: {speedup:.1f}x "
        f"({', '.join(f'{name} {ratio}x' for name, ratio in per_system.items())}; "
        f"best of {REPEATS}, {NUM_CASES} cases)"
    )
    write_benchmark_report(
        "multireader",
        speedup=speedup,
        gate=REQUIRED_SPEEDUP,
        metrics={
            "num_cases": NUM_CASES,
            "repeats": REPEATS,
            "seed": SEED,
            "scalar_total_s": round(scalar_elapsed, 3),
            "batch_total_s": round(batch_elapsed, 3),
            "scalar_us_per_case": round(per_case_scalar, 1),
            "batch_us_per_case": round(per_case_batch, 2),
            **{f"{name}_speedup": ratio for name, ratio in per_system.items()},
        },
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"multi-reader batch path only {speedup:.1f}x faster than the scalar "
        f"loop (required {REQUIRED_SPEEDUP}x)"
    )
