"""Public entry points of the batch engine.

:func:`evaluate_system_batch` and :func:`compare_systems_batch` are the
vectorized counterparts of the scalar loop in
:mod:`repro.system.simulate`: each system becomes a one-item task for
the engine's one kernel (:mod:`repro.engine.fused`), which returns the
same :class:`~repro.system.simulate.SystemEvaluation` the scalar loop
produces.  Three properties are load-bearing:

* **Scalar equivalence.**  Unseeded runs, and seeded single-chunk runs,
  are *bit-identical* to :func:`~repro.system.simulate.evaluate_system`
  on fresh, identically-seeded systems.
* **Determinism under parallelism.**  Seeded results depend only on
  ``(seed, chunk_size)`` — never on worker count or scheduling.
* **Transparent fallback.**  Temporal readers run on the ordered
  stream-carry path; systems that are neither stateless nor
  stream-capable (drifting tools, custom readers) take the scalar loop
  unchanged, so one entry point serves every system.

``workers=1`` without a runtime runs the kernel in this process;
``workers > 1`` evaluates on an ephemeral
:class:`~repro.engine.runtime.EngineRuntime`.  Programs that evaluate
repeatedly should hold a runtime and pass it as ``runtime=``, keeping
the pool and the columnised workload plane alive across calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..obs import get_instrumentation
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..system.simulate import SystemEvaluation, evaluate_system
from ..system.single import ScreeningSystem
from .arrays import CaseArrays
from .fused import (
    _run_task,
    build_fused_item,
    cancer_class_codes,
    cancer_classes,
    plan_chunks,
    row_evaluation,
    supports_batch,
    supports_stream,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .runtime import EngineRuntime

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "plan_chunks",
    "supports_batch",
    "supports_stream",
    "cancer_class_labels",
    "evaluate_system_batch",
    "compare_systems_batch",
]

#: Default cases per chunk.  Large enough that per-chunk Python overhead
#: is negligible, small enough that chunk buffers stay cache-friendly.
#: Pass ``chunk_size=None`` for adaptive planning
#: (:func:`repro.engine.runtime.plan_chunk_size`).
DEFAULT_CHUNK_SIZE = 16384


def cancer_class_labels(
    workload: Workload,
    classifier: CaseClassifier,
    arrays: CaseArrays | None = None,
    *,
    on_scalar_fallback: Callable[[], None] | None = None,
) -> tuple[np.ndarray, list[CaseClass]]:
    """Positions and classes of the workload's cancer cases, in order.

    A thin wrapper over :func:`~repro.engine.fused.cancer_class_codes`
    (the engine's one classification routine, which takes the
    classifier's vectorized ``classify_batch`` when it offers one and
    the per-case ``classify`` loop otherwise — invoking
    ``on_scalar_fallback``, if given, exactly when it does).

    Returns:
        ``(positions, labels)`` where ``positions`` is the sorted
        ``int64`` array of cancer-case indices into the workload and
        ``labels[i]`` is the class of the cancer case at
        ``positions[i]``.
    """
    if arrays is None:
        arrays = workload.to_arrays()
    positions = np.flatnonzero(arrays.has_cancer)
    codes = cancer_class_codes(
        workload, classifier, arrays, positions, on_scalar_fallback=on_scalar_fallback
    )
    classes = classifier.classes
    return positions, [classes[int(code)] for code in codes]


def evaluate_system_batch(
    system: ScreeningSystem,
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    runtime: "EngineRuntime | None" = None,
) -> SystemEvaluation:
    """Vectorized counterpart of :func:`~repro.system.simulate.evaluate_system`.

    Stateless systems run through ``decide_batch`` chunk by chunk
    (optionally fanned out over processes).  Stateful-but-vectorizable
    systems — temporal reader wrappers exposing the stream-carry
    protocol — advance chunk by chunk *in order*, handing their
    :class:`~repro.reader.state.ReaderStateVector` across chunk
    boundaries and committing the final state back into ``system``.
    Remaining stateful systems fall back to the scalar loop
    transparently, preserving their order-dependent semantics.

    Args:
        system: The system to drive.
        workload: The cases, in order.
        classifier: Criterion for the per-class breakdown; a single class
            when omitted.
        level: Confidence level for all intervals.
        seed: When given, chunk generators derive from this seed (see
            module docstring); when omitted, components draw from their
            private generators — serial only.
        workers: Processes to fan chunks out over (1 = in-process);
            ``> 1`` evaluates on an ephemeral
            :class:`~repro.engine.runtime.EngineRuntime`.  Requires a
            seed: private component generators cannot be advanced
            coherently across processes.  Note that component state
            (e.g. a tool's processed-case counter) then advances in the
            worker copies, not the caller's objects.
        chunk_size: Cases per chunk.  Seeded results depend only on
            ``(seed, chunk_size)``; unseeded serial results are
            chunk-size-invariant.  ``None`` plans the size adaptively
            from the workload, worker count, and a bytes-per-chunk
            budget (:func:`repro.engine.runtime.plan_chunk_size`) — note
            the planned size, and therefore seeded multi-chunk results,
            then varies with ``workers``.
        runtime: A :class:`~repro.engine.runtime.EngineRuntime` to
            execute on.  Supersedes ``workers`` (the runtime owns the
            pool) and adds pooled-process reuse, a shared-memory
            workload plane, and cached columnisation/classification.

    Raises:
        SimulationError: on an empty workload, or ``workers > 1`` without
            a seed.
    """
    if runtime is not None:
        return runtime.evaluate(
            system, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    if not supports_batch(system) and not supports_stream(system):
        return evaluate_system(system, workload, classifier, level, seed=seed)
    if len(workload) == 0:
        raise SimulationError("cannot evaluate a system on an empty workload")
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers!r}")
    if workers > 1 and seed is None:
        raise SimulationError(
            "parallel evaluation requires a seed: without one, components "
            "draw from private generators that cannot be shared coherently "
            "across processes"
        )
    obs = get_instrumentation()
    with obs.span(
        "executor.evaluate", system=system.name, cases=len(workload)
    ) as span:
        if workers > 1:
            from .runtime import EngineRuntime

            with EngineRuntime(workers=workers) as ephemeral:
                return ephemeral.evaluate(
                    system, workload, classifier, level, seed=seed, chunk_size=chunk_size
                )
        classifier = classifier if classifier is not None else SingleClassClassifier()
        arrays = workload.to_arrays()
        if chunk_size is None:
            from .runtime import plan_chunk_size

            chunk_size = plan_chunk_size(
                len(arrays), workers, bytes_per_case=arrays.bytes_per_case
            )
        span.set(chunks=len(plan_chunks(len(arrays), chunk_size)), workers=workers)
        positions, codes, classes = cancer_classes(
            workload,
            classifier,
            arrays,
            on_scalar_fallback=lambda: obs.count("executor.scalar_classify"),
        )
        item = build_fused_item(0, system, seed)
        task = (arrays, chunk_size, positions, codes, len(classes), (item,))
        ((row,), _) = _run_task(task)
        return row_evaluation(system, row, classes, workload.name, level)


def compare_systems_batch(
    systems: Sequence[ScreeningSystem],
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    runtime: "EngineRuntime | None" = None,
) -> dict[str, SystemEvaluation]:
    """Vectorized counterpart of :func:`~repro.system.simulate.compare_systems`.

    Every system sees the identical case sequence; with ``seed`` given,
    each system's chunk generators derive from the same seed, so shared
    components behave identically across systems (common random numbers).
    Batch-incapable systems take the scalar fallback within the same
    comparison.

    One process pool serves the whole comparison: with ``workers > 1``
    and no ``runtime``, an ephemeral
    :class:`~repro.engine.runtime.EngineRuntime` is created for the
    call, so every system reuses the same workers and the same published
    workload instead of paying pool startup per system.

    Raises:
        SimulationError: if two systems share a name.
    """
    names = [s.name for s in systems]
    if len(set(names)) != len(names):
        raise SimulationError(f"system names must be unique, got {names!r}")
    if runtime is not None:
        return runtime.compare(
            systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    if workers > 1:
        from .runtime import EngineRuntime

        with EngineRuntime(workers=workers) as shared:
            return shared.compare(
                systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
            )
    with get_instrumentation().span(
        "executor.compare", systems=len(systems), cases=len(workload)
    ):
        return {
            system.name: evaluate_system_batch(
                system,
                workload,
                classifier,
                level,
                seed=seed,
                workers=workers,
                chunk_size=chunk_size,
            )
            for system in systems
        }
