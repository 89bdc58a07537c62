"""Public entry points of the batch engine.

:func:`evaluate_system_batch` and :func:`compare_systems_batch` are the
vectorized counterparts of the scalar loop in
:mod:`repro.system.simulate`.  Every evaluation runs on an
:class:`~repro.engine.runtime.EngineRuntime` — the caller's, passed as
``runtime=``, or one opened for the call with ``workers`` processes —
where each system becomes a one-item task for the engine's one kernel
(:mod:`repro.engine.fused`) and returns the same
:class:`~repro.system.simulate.SystemEvaluation` the scalar loop
produces.  Three properties are load-bearing:

* **Scalar equivalence.**  Unseeded runs, and seeded single-chunk runs,
  are *bit-identical* to :func:`~repro.system.simulate.evaluate_system`
  on fresh, identically-seeded systems.
* **Determinism under parallelism.**  Seeded results depend only on
  ``(seed, chunk_size)`` — never on worker count or scheduling.
* **Transparent fallback.**  Temporal readers run on the ordered
  stream-carry path; systems that are neither stateless nor
  stream-capable (drifting tools, custom readers) take the scalar loop
  unchanged (``runtime.degraded.scalar_system``), so one entry point
  serves every system.

Programs that evaluate repeatedly should hold a runtime and pass it as
``runtime=``, keeping the pool and the prepared workload alive across
calls.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..screening.classifier import CaseClassifier
from ..screening.workload import Workload
from ..system.simulate import SystemEvaluation
from ..system.single import ScreeningSystem
from .arrays import CaseArrays
from .fused import (
    DEFAULT_CHUNK_SIZE,
    cancer_class_codes,
    plan_chunks,
    supports_batch,
    supports_stream,
)
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
    runtime: EngineRuntime | None = None,
) -> SystemEvaluation:
    """Vectorized counterpart of :func:`~repro.system.simulate.evaluate_system`.

    Runs :meth:`EngineRuntime.evaluate
    <repro.engine.runtime.EngineRuntime.evaluate>` on ``runtime``, or on
    one opened for the call.  Stateless systems run through
    ``decide_batch`` chunk by chunk (optionally fanned out over
    processes).  Stateful-but-vectorizable systems — temporal reader
    wrappers exposing the stream-carry protocol — advance chunk by chunk
    *in order*, handing their
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
        workers: Processes of the runtime opened for the call (1 =
            in-process).  Requires a seed: private component generators
            cannot be advanced coherently across processes.  Note that
            component state (e.g. a tool's processed-case counter) then
            advances in the worker copies, not the caller's objects.
        chunk_size: Cases per chunk.  Seeded results depend only on
            ``(seed, chunk_size)``; unseeded serial results are
            chunk-size-invariant.  ``None`` plans the size adaptively
            from the workload, the runtime's worker count, and a
            bytes-per-chunk budget — note the planned size, and
            therefore seeded multi-chunk results, then varies with
            ``workers``.
        runtime: A :class:`~repro.engine.runtime.EngineRuntime` to
            execute on.  Supersedes ``workers`` (the runtime owns the
            pool) and keeps the pool, the shared-memory workload plane,
            and the prepared workload alive across calls.

    Raises:
        SimulationError: on an empty workload, or ``workers > 1`` without
            a seed.
    """
    if runtime is not None:
        return runtime.evaluate(
            system, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    if workers > 1 and seed is None:
        raise SimulationError(
            "parallel evaluation requires a seed: without one, components "
            "draw from private generators that cannot be shared coherently "
            "across processes"
        )
    with EngineRuntime(workers=workers) as owned:
        return owned.evaluate(
            system, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )


def compare_systems_batch(
    systems: Sequence[ScreeningSystem],
    workload: Workload,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    seed: int | None = None,
    workers: int = 1,
    chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    runtime: EngineRuntime | None = None,
) -> dict[str, SystemEvaluation]:
    """Vectorized counterpart of :func:`~repro.system.simulate.compare_systems`.

    Every system sees the identical case sequence; with ``seed`` given,
    each system's chunk generators derive from the same seed, so shared
    components behave identically across systems (common random numbers).
    Batch-incapable systems take the scalar fallback within the same
    comparison.

    One runtime serves the whole comparison — ``runtime``, or one opened
    for the call with ``workers`` processes — so every system reuses the
    same pool, the same published workload, and the same class codes.

    Raises:
        SimulationError: if two systems share a name.
    """
    if runtime is not None:
        return runtime.compare(
            systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
    with EngineRuntime(workers=workers) as owned:
        return owned.compare(
            systems, workload, classifier, level, seed=seed, chunk_size=chunk_size
        )
