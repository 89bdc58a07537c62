"""Workload ``simulate``: the paper's configuration comparison (§7).

One enriched trial-profile workload goes through one persistent
``EngineRuntime(workers=2)`` at the engine's default chunk size, and is
evaluated by every reading configuration the paper compares.  Three of
them carry most of the cost: the trust-adaptive stream reader and the
two double readers, which have no vectorized form and fall back to the
scalar loop.  The stateless configurations cost ~2 us/case, so a faster
batch kernel shows on ``sweep``, not here.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

from common import PROBES_AROUND, Phase, Reference, Tracer, median, percentile
from repro import RuntimeDegradationWarning
from repro.engine import (
    EngineRuntime,
    evaluate_system_batch,
    supports_batch,
    supports_stream,
)
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import SubtletyClassifier, Workload
from repro.sweep import SystemSpec, WorkloadSpec
from repro.system import (
    AssistedDoubleReading,
    DoubleReading,
    RecallPolicy,
    evaluate_system,
)

#: Within one chunk at the default chunk size (16384), so single-chunk
#: calls run in-process and no pool wake-up latency lands on the timings.
#: The adaptive reader's per-event trust-path rebuild already grows with
#: the chunk here (~24 us/case against ~10 at 1000 cases), and a whole
#: comparison takes about a second, so a run times a few dozen of them.
NUM_CASES = 4_000
#: Cases of the probe other workloads' traced runs use for these layers.
PROBE_CASES = 2_000
#: Seeded single-chunk prefix the batch-vs-scalar check runs on.
CHECK_PREFIX = 1_000
#: Comparisons a run needs before its p50 has ten samples beyond.
MIN_COMPARISONS = 20
#: Each half of a traced run times at least one whole comparison.
TRACE_MIN_CALLS = 1
#: The program runs in this process (plus its pool workers).
IN_PROCESS = True

SystemFactory = Callable[[int], object]


def _reader(seed: int, index: int) -> ReaderModel:
    return ReaderModel(
        skill=ReaderSkill(), bias=MILD_BIAS, name=f"reader{index}", seed=seed + index
    )


def _double(seed: int) -> DoubleReading:
    return DoubleReading([_reader(seed, 0), _reader(seed, 1)], RecallPolicy.EITHER)


def _assisted_double(seed: int) -> AssistedDoubleReading:
    cadt = SystemSpec(kind="assisted").build(seed).cadt
    return AssistedDoubleReading(
        [_reader(seed, 2), _reader(seed, 3)], cadt, RecallPolicy.EITHER
    )


def _spec(**kwargs: object) -> SystemFactory:
    spec = SystemSpec(**kwargs)
    return spec.build


#: ``(layer kind, factory)`` per configuration, in comparison order.
CONFIGURATIONS: tuple[tuple[str, SystemFactory], ...] = (
    ("batch", _spec(kind="unaided", bias="mild")),
    ("batch", _spec(kind="assisted", bias="mild", operating_point=-0.2)),
    ("batch", _spec(kind="assisted", bias="mild", operating_point=0.0)),
    ("batch", _spec(kind="assisted", bias="mild", operating_point=0.2)),
    ("batch", _spec(kind="assisted", bias="strong")),
    ("fatigue", _spec(kind="assisted", bias="mild", dynamics="fatigue")),
    ("adaptive", _spec(kind="assisted", bias="mild", dynamics="adaptive")),
    ("double", _double),
    ("assisted_double", _assisted_double),
)

LAYER_OF_KIND = {
    "batch": "engine.batch_us_per_case",
    "fatigue": "reader.fatigue_us_per_case",
    "adaptive": "reader.adaptive_us_per_case",
    "double": "system.double_us_per_case",
    "assisted_double": "system.assisted_double_us_per_case",
}

#: What :func:`layers` (and so :func:`probe`) reports.
LAYER_METRICS = frozenset(
    {
        "screening.build_s",
        "screening.columnise_s",
        "engine.runtime_start_s",
        "engine.workload_cache_hits",
        "engine.fallback_case_share",
        *LAYER_OF_KIND.values(),
    }
)


@dataclass
class Context:
    seed: int
    workload: Workload
    runtime: EngineRuntime
    classifier: SubtletyClassifier
    setup_s: float
    build_s: float
    columnise_s: float
    runtime_start_s: float

    def close(self) -> None:
        self.runtime.close()


def counts(evaluation: object) -> tuple:
    """The integer failure counts of one evaluation (names excluded)."""
    fn, fp = evaluation.false_negative, evaluation.false_positive
    return (
        (fn.failures, fn.trials) if fn else None,
        (fp.failures, fp.trials) if fp else None,
        tuple(
            sorted(
                (cls.name, rate.failures, rate.trials)
                for cls, rate in evaluation.per_class_false_negative.items()
            )
        ),
    )


def setup(seed: int, tracer: Tracer, obs: object = None, probe: bool = False) -> Context:
    """Workload build, columnisation, and runtime start with a first
    evaluate; everything before the first timed call."""
    num_cases = PROBE_CASES if probe else NUM_CASES
    start = time.perf_counter()
    workload = WorkloadSpec(
        population="routine",
        profile="trial",
        num_cases=num_cases,
        cancer_fraction=0.5,
        population_seed=seed,
    ).build()
    built = time.perf_counter()
    workload.to_arrays()
    columnised = time.perf_counter()
    runtime = EngineRuntime(workers=2, obs=obs)
    classifier = SubtletyClassifier()
    evaluate_system_batch(
        CONFIGURATIONS[0][1](seed + 1),
        workload,
        classifier,
        seed=seed + 2,
        runtime=runtime,
    )
    ready = time.perf_counter()
    root = tracer.record("setup", start, ready, trace=tracer.new_trace())
    tracer.record("screening.build", start, built, parent=root)
    tracer.record("screening.columnise", built, columnised, parent=root)
    tracer.record("engine.runtime_start", columnised, ready, parent=root)
    return Context(
        seed=seed,
        workload=workload,
        runtime=runtime,
        classifier=classifier,
        setup_s=ready - start,
        build_s=built - start,
        columnise_s=columnised - built,
        runtime_start_s=ready - columnised,
    )


def measure(ctx: Context, seconds: float, tracer: Tracer, min_calls: int = MIN_COMPARISONS) -> Phase:
    """Whole comparisons, one caller, until ``seconds`` and ``min_calls``
    comparisons; a host-speed probe after each configuration call."""
    n = len(ctx.workload)
    comparisons: list[float] = []
    raw_comparisons: list[float] = []
    by_kind: dict[str, list[float]] = {kind: [] for kind in LAYER_OF_KIND}
    errors: list[str] = []
    failed = ok_calls = 0
    reference = None
    host = Reference()
    host.probe(PROBES_AROUND)
    scalar_cases = 0
    start = time.perf_counter()
    while True:
        trace = tracer.new_trace()
        results = []
        calls: list[tuple[str, float]] = []
        mark = host.mark()
        for index, (kind, factory) in enumerate(CONFIGURATIONS):
            system = factory(ctx.seed + 10 + index)
            if not supports_batch(system) and not supports_stream(system):
                scalar_cases += n
            t0 = time.perf_counter()
            try:
                evaluation = evaluate_system_batch(
                    system,
                    ctx.workload,
                    ctx.classifier,
                    seed=ctx.seed + 3,
                    runtime=ctx.runtime,
                )
            except Exception as exc:  # noqa: BLE001 - counted, run keeps going
                failed += 1
                errors.append(f"{system.name}: {exc!r}")
                results.append(None)
            else:
                t1 = time.perf_counter()
                tracer.record(f"simulate.{kind}", t0, t1, trace=trace, system=system.name)
                calls.append((kind, t1 - t0))
                results.append(counts(evaluation))
            host.probe()
        slowdown = host.factor(mark)
        if len(calls) == len(CONFIGURATIONS):
            raw = sum(t for _, t in calls)
            raw_comparisons.append(raw)
            comparisons.append(raw / slowdown)
        for kind, t in calls:
            by_kind[kind].append(t)
            ok_calls += 1
        # Same seed, fresh systems: every comparison must repeat exactly.
        if reference is None:
            reference = results
        elif results != reference:
            errors.append("a repeated comparison gave different counts")
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(comparisons) + failed >= min_calls:
            break
    attempted = ok_calls + failed
    cases = len(CONFIGURATIONS) * n
    # The median comparison: a burst of host noise during one does not move it.
    e2e = {}
    for suffix, times in (("_cal", comparisons), ("", raw_comparisons)):
        e2e[f"ops_per_s{suffix}"] = 1.0 / median(times)
        e2e[f"cases_per_s{suffix}"] = cases / median(times)
    phase = Phase(
        e2e=e2e,
        attempted=attempted,
        failed=failed,
        samples={"comparisons": len(comparisons), "calls": ok_calls},
        errors=errors,
        reference=host,
    )
    phase.info["comparisons"] = comparisons
    phase.info["raw_comparisons"] = raw_comparisons
    phase.info["by_kind"] = by_kind
    phase.info["scalar_share"] = scalar_cases / (attempted * n)
    return phase


def e2e(ctx: Context, phase: Phase) -> dict[str, float]:
    """The end-to-end metrics of the timed phase; one op is one comparison."""
    failed = [float("inf")] * phase.failed
    metrics = dict(phase.e2e)
    metrics["op_p50_ms_cal"] = percentile(phase.info["comparisons"] + failed, 50) * 1e3
    metrics["op_p50_ms"] = percentile(phase.info["raw_comparisons"] + failed, 50) * 1e3
    return metrics


def extras(ctx: Context, phase: Phase) -> dict[str, tuple[float, str]]:
    """Nothing beyond the end-to-end metrics: cases_per_s is this path's own name."""
    return {}


def check(ctx: Context) -> list[str]:
    """Batch vs scalar on a seeded single-chunk prefix, fresh instances.

    Runs outside the timed region.  Counts must be bit-identical.
    """
    prefix = Workload(name="prefix", cases=ctx.workload.cases[:CHECK_PREFIX])
    errors = []
    for index, (kind, factory) in enumerate(CONFIGURATIONS):
        system_seed = ctx.seed + 100 + index
        batch = evaluate_system_batch(
            factory(system_seed),
            prefix,
            ctx.classifier,
            seed=ctx.seed + 4,
            runtime=ctx.runtime,
        )
        scalar = evaluate_system(
            factory(system_seed), prefix, ctx.classifier, seed=ctx.seed + 4
        )
        if counts(batch) != counts(scalar):
            errors.append(
                f"simulate: {kind} configuration #{index}: batch {counts(batch)} "
                f"!= scalar {counts(scalar)}"
            )
    return errors


def layers(ctx: Context, phase: Phase) -> dict[str, float]:
    """Per-layer metrics of the traced phase, timed from outside."""
    n = len(ctx.workload)
    metrics = {
        "screening.build_s": ctx.build_s,
        "screening.columnise_s": ctx.columnise_s,
        "engine.runtime_start_s": ctx.runtime_start_s,
        "engine.workload_cache_hits": float(ctx.runtime.cache_info()["hits"]),
        "engine.fallback_case_share": phase.info["scalar_share"],
    }
    for kind, name in LAYER_OF_KIND.items():
        metrics[name] = median(phase.info["by_kind"][kind]) / n * 1e6
    return metrics


def probe(seed: int, tracer: Tracer, obs: object) -> dict[str, float]:
    """These layers' metrics on a small workload, for other workloads' traced runs."""
    ctx = setup(seed, tracer, obs=obs, probe=True)
    try:
        phase = measure(ctx, 0.0, tracer, min_calls=1)
        return layers(ctx, phase)
    finally:
        ctx.close()


# The double readers have no vectorized form; the engine says so once
# per runtime.  That fallback is the measured behaviour here, and
# ``engine.fallback_case_share`` reports it.
warnings.filterwarnings("ignore", category=RuntimeDegradationWarning)
