"""One workload residency: ``EngineRuntime.prepare`` bounds what stays alive.

Every path — ``evaluate``, ``run_sweep`` and the service — makes its
workloads dispatch-ready through the runtime, so a persistent runtime
keeps at most ``max_cached_workloads`` columnised workloads alive however
many fresh (but equal) workloads it sees, and a classifier without a
usable ``classify_batch`` is reported the same way on every path.
"""

import asyncio
import gc
import warnings
import weakref

import pytest

from repro.engine import EngineRuntime, shared_memory_available
from repro.engine import runtime as runtime_module
from repro.exceptions import RuntimeDegradationWarning
from repro.obs import Instrumentation
from repro.screening import FunctionClassifier, SubtletyClassifier
from repro.screening.workload import Workload
from repro.service import ScreeningService, ServiceConfig
from repro.sweep import ScenarioGrid, run_sweep
from repro.sweep.grid import SystemSpec, WorkloadSpec

SPEC = WorkloadSpec(population="routine", num_cases=500)
GRID = ScenarioGrid(
    name="residency",
    populations=("routine", "young"),
    num_cases=400,
    systems=("unaided", "assisted"),
)
#: One workload, several fused dispatches (cells beyond the fuse limit).
ONE_WORKLOAD = ScenarioGrid(
    name="one-workload", num_cases=400, systems=("unaided", "assisted"), replicates=3
)


def scalar_only_subtlety():
    """The paper's classifier behind the per-case protocol only."""
    batch = SubtletyClassifier()
    return FunctionClassifier(batch.classify, batch.classes)


class TestBoundedResidency:
    def test_fresh_equal_workloads_leave_only_the_resident_arrays(self):
        obs = Instrumentation()
        refs = []
        with EngineRuntime(workers=1, max_cached_workloads=1, obs=obs) as runtime:
            for seed in range(30):
                workload = SPEC.build()
                refs.append(weakref.ref(workload.to_arrays()))
                runtime.evaluate(SystemSpec().build(seed), workload, seed=seed)
            del workload
            gc.collect()
            alive = [index for index, ref in enumerate(refs) if ref() is not None]
            assert alive == [0]  # the first workload's arrays, now resident
            assert runtime.cache_info() == {
                "workloads": 1, "hits": 29, "misses": 1, "segments": 0
            }
        counters = obs.metrics.snapshot()["counters"]
        # Default-classified calls share one label-cache entry.
        assert counters["runtime.label_cache.miss"] == 1.0
        assert counters["runtime.label_cache.hit"] == 29.0

    @pytest.mark.skipif(
        not shared_memory_available(), reason="no shared memory in this environment"
    )
    def test_repeated_sweeps_on_one_runtime_stay_bounded(self, monkeypatch):
        columnised = []
        original = Workload.to_arrays

        def recording_to_arrays(self):
            arrays = original(self)
            columnised[-1].append(weakref.ref(arrays))
            return arrays

        monkeypatch.setattr(Workload, "to_arrays", recording_to_arrays)
        results = []
        with EngineRuntime(workers=2, max_cached_workloads=2) as runtime:
            for _ in range(5):
                columnised.append([])
                sweep = run_sweep(GRID, seed=4, chunk_size=128, runtime=runtime)
                results.append(sweep.results)
                assert runtime.cache_info()["workloads"] <= 2
            gc.collect()
            survivors = [
                call
                for call, refs in enumerate(columnised)
                for ref in refs
                if ref() is not None
            ]
        # Only the first call's arrays are resident; no later call's
        # fresh (equal) arrays outlive its sweep.
        assert set(survivors) == {0}
        assert len(survivors) <= 2
        assert all(result == results[0] for result in results)


    def test_warm_compare_on_a_resident_workload_pays_no_digest(self, monkeypatch):
        digests = []
        original = runtime_module._arrays_digest

        def counting_digest(arrays):
            digests.append(len(arrays))
            return original(arrays)

        monkeypatch.setattr(runtime_module, "_arrays_digest", counting_digest)
        workload = SPEC.build()
        systems = [SystemSpec(kind=kind).build(3) for kind in ("unaided", "assisted")]
        with EngineRuntime(workers=2) as runtime:
            runtime.compare(systems, workload, seed=3, chunk_size=128)
            assert digests == [len(workload)]  # the cold call's one digest
            runtime.compare(systems, workload, seed=3, chunk_size=128)
        assert digests == [len(workload)]


class TestScalarClassification:
    def test_sweep_counts_scalar_classification_once(self):
        obs = Instrumentation()
        with pytest.warns(RuntimeDegradationWarning, match="scalar_classify"):
            scalar = run_sweep(
                ONE_WORKLOAD,
                seed=9,
                chunk_size=128,
                fuse_limit=2,
                classifier=scalar_only_subtlety(),
                obs=obs,
            )
        batch = run_sweep(
            ONE_WORKLOAD,
            seed=9,
            chunk_size=128,
            fuse_limit=2,
            classifier=SubtletyClassifier(),
        )
        assert scalar.results == batch.results
        counters = obs.metrics.snapshot()["counters"]
        assert counters["sweep.dispatches"] == 3.0
        assert counters["runtime.degraded.scalar_classify"] == 1.0

    def test_service_counts_scalar_classification_once(self):
        config = ServiceConfig(workers=1, linger_ms=1.0, chunk_size=128)

        async def evaluate_twice(classifier, obs=None):
            async with ScreeningService(config, classifier=classifier, obs=obs) as service:
                return [
                    await service.evaluate(SPEC, SystemSpec(), seed=seed)
                    for seed in (1, 2)
                ]

        obs = Instrumentation()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scalar = asyncio.run(evaluate_twice(scalar_only_subtlety(), obs))
        batch = asyncio.run(evaluate_twice(SubtletyClassifier()))
        assert scalar == batch
        assert any("scalar_classify" in str(w.message) for w in caught)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.degraded.scalar_classify"] == 1.0
