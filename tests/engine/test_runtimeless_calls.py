"""Evaluations without a caller's runtime run on one opened for the call.

``evaluate_system_batch``/``compare_systems_batch`` without ``runtime=``
open an :class:`EngineRuntime` with ``workers`` processes and delegate
to it, so they report into the ambient instrumentation exactly as a
held runtime does: scalar systems and scalar-only classifiers count
``runtime.degraded.*``, and no metric or span of their own exists.
"""

import warnings

from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import compare_systems_batch, evaluate_system_batch
from repro.exceptions import RuntimeDegradationWarning
from repro.obs import Instrumentation, use_instrumentation
from repro.reader import MILD_BIAS, ReaderModel, ReaderSkill
from repro.screening import FunctionClassifier, SubtletyClassifier
from repro.system import AssistedReading, evaluate_system

from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload
from tests.engine.test_runtime import named_system


def drifting_system(seed=5):
    """A tool whose sensitivity drifts per case: scalar loop only."""
    reader = ReaderModel(skill=ReaderSkill(), bias=MILD_BIAS, name="r", seed=seed)
    tool = Cadt(DetectionAlgorithm(), drift_per_case=5e-3, seed=seed + 100)
    return AssistedReading(reader, tool)


def scalar_only_subtlety():
    """The paper's classifier behind the per-case protocol only."""
    batch = SubtletyClassifier()
    return FunctionClassifier(batch.classify, batch.classes)


def metric_names(obs):
    snapshot = obs.metrics.snapshot()
    return {
        name
        for kind in ("counters", "gauges", "histograms")
        for name in snapshot[kind]
    }


def test_runtimeless_calls_report_degradations_into_ambient_instrumentation():
    workload = make_workload(600)
    obs = Instrumentation()
    with use_instrumentation(obs), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scalar = evaluate_system_batch(drifting_system(), workload, seed=3)
        classified = evaluate_system_batch(
            make_system(), workload, scalar_only_subtlety(), seed=3
        )
    counters = obs.metrics.snapshot()["counters"]
    assert counters["runtime.degraded.scalar_system"] == 1.0
    assert counters["runtime.degraded.scalar_classify"] == 1.0
    reasons = {
        str(w.message).split("(")[1].split(")")[0]
        for w in caught
        if issubclass(w.category, RuntimeDegradationWarning)
    }
    assert reasons == {"scalar_system", "scalar_classify"}
    names = metric_names(obs) | {record.name for record in obs.spans.records()}
    assert not any(name.startswith("executor.") for name in names)
    assert "runtime.evaluate" in names
    # Same counts as the scalar loop and the batch classifier.
    assert failure_counts(scalar) == failure_counts(
        evaluate_system(drifting_system(), workload, seed=3)
    )
    assert classified == evaluate_system_batch(
        make_system(), workload, SubtletyClassifier(), seed=3
    )


def test_runtimeless_compare_opens_one_runtime_for_every_system():
    workload = make_workload(600)
    obs = Instrumentation()
    with use_instrumentation(obs):
        compare_systems_batch(
            [named_system(1), named_system(2, name="other")],
            workload,
            SubtletyClassifier(),
            seed=4,
            chunk_size=200,
        )
    counters = obs.metrics.snapshot()["counters"]
    # One workload residency and one classification serve both systems.
    assert counters["runtime.workload_cache.miss"] == 1.0
    assert counters["runtime.label_cache.miss"] == 1.0
    assert counters["runtime.label_cache.hit"] == 1.0
    assert not any(name.startswith("executor.") for name in metric_names(obs))
