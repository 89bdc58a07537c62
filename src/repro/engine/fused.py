"""The engine's one decision-and-tally kernel.

Every evaluation the engine runs is a :data:`FusedTask` — a workload
plane, a chunk size, the cancer positions and class codes, and one or
more ``(system, seed)`` items — executed by :func:`_run_task`, the
pool's only worker entry point (:func:`run_fused_batch` is its untraced
public face).  :meth:`EngineRuntime.evaluate
<repro.engine.runtime.EngineRuntime.evaluate>` (behind
``evaluate_system_batch``/``compare_systems_batch``) builds one-item
tasks; the sweep runner fuses a batch of cells into one task and the
service a batch of coalesced requests;
:meth:`EngineRuntime.run_fused <repro.engine.runtime.EngineRuntime.run_fused>`
decides where each runs.  The plane is the
:class:`~repro.engine.arrays.CaseArrays` themselves or a
:class:`_SegmentSpec` naming a shared-memory segment that workers
attach once and cache.

**Determinism contract.**  An item's chunk generators derive from its
own seed — ``SeedSequence(seed).spawn(n_chunks)``, or
``default_rng(seed)`` for a single chunk, matching the seeded scalar
loop — so its counts depend only on ``(seed, chunk_size)``: never on
the items fused beside it, on the chunk range a worker runs, or on
whether it ran pooled.  An unseeded item draws from the components'
private generators, bit-identical to
:func:`~repro.system.simulate.evaluate_system`.  Stream items thread
their reader state through their chunks in order and return the final
:class:`~repro.reader.state.ReaderStateVector` for the caller to commit.

**Tally.**  Exact integer counts from two ``bincount`` passes over class
codes.  :func:`cancer_classes` numbers codes in the order classes first
appear among the cancer cases — the order the scalar loop's
:class:`~repro.system.simulate.FailureTally` meets them — so every path
reports per-class rates in one order.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import SimulationError
from ..obs import SpanPayload
from ..reader.state import ReaderStateVector
from ..screening.classifier import CaseClassifier
from ..screening.workload import Workload
from ..system.simulate import FailureTally, SystemEvaluation
from ..system.single import ScreeningSystem
from .arrays import CaseArrays

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FusedItem",
    "FusedTask",
    "FusedRow",
    "FusedCounts",
    "plan_chunks",
    "supports_batch",
    "supports_stream",
    "build_fused_item",
    "run_fused_batch",
    "cancer_class_codes",
    "cancer_classes",
    "row_evaluation",
]

#: Default cases per chunk.  Large enough that per-chunk Python overhead
#: is negligible, small enough that chunk buffers stay cache-friendly.
#: Pass ``chunk_size=None`` for adaptive planning
#: (:func:`repro.engine.runtime.plan_chunk_size`).
DEFAULT_CHUNK_SIZE = 16384

#: One fused item's work: ``(index, system, seed, stream, chunks)``.
#: ``index`` is the caller's demultiplexing key (cell index, request
#: slot); ``seed`` ``None`` means the components' private generators
#: (in-process only); ``stream`` selects the ordered stream-carry path
#: over ``decide_batch``; ``chunks`` is a ``[lo, hi)`` range of chunk
#: indices, or ``None`` for every chunk.
FusedItem = tuple[
    int, ScreeningSystem, "int | None", bool, "tuple[int, int] | None"
]

#: One fused dispatch: the workload plane (a :class:`_SegmentSpec` for
#: pooled shared-memory execution, or the :class:`CaseArrays` directly),
#: the chunk size, the cancer positions/class codes, the class count,
#: and the items to run against the plane.
FusedTask = tuple[
    "_SegmentSpec | CaseArrays",
    int,
    np.ndarray,
    np.ndarray,
    int,
    tuple[FusedItem, ...],
]

#: One item's raw output row:
#: ``(index, (cancer_failures, cancer_trials, healthy_failures,
#: healthy_trials), class_failures, class_trials, final_state)`` —
#: class counts indexed by code, ``final_state`` ``None`` for batch items.
FusedRow = tuple[
    int, tuple[int, ...], list[int], list[int], "ReaderStateVector | None"
]


def plan_chunks(num_cases: int, chunk_size: int) -> list[tuple[int, int]]:
    """Split ``[0, num_cases)`` into consecutive ``[start, stop)`` chunks."""
    if chunk_size <= 0:
        raise SimulationError(f"chunk_size must be positive, got {chunk_size!r}")
    return [
        (start, min(start + chunk_size, num_cases))
        for start in range(0, num_cases, chunk_size)
    ]


def supports_batch(system: ScreeningSystem) -> bool:
    """Whether a system can run on the vectorized path.

    True when the system exposes ``decide_batch`` and declares itself
    stateless via its ``supports_batch`` property; everything else takes
    the stream path or the scalar fallback.
    """
    return bool(getattr(system, "supports_batch", False)) and hasattr(
        system, "decide_batch"
    )


def supports_stream(system: ScreeningSystem) -> bool:
    """Whether a system can run on the stateful stream path.

    True when the system exposes the chunk-carry protocol
    (``stream_state`` / ``advance_stream`` / ``commit_stream``) and
    declares it usable via its ``supports_stream`` property — temporal
    reader wrappers (fatigue, trust adaptation) around vectorizable base
    readers, whose chunks then advance in order instead of degrading to
    the scalar loop.
    """
    return bool(getattr(system, "supports_stream", False)) and hasattr(
        system, "advance_stream"
    )


def build_fused_item(
    index: int, system: ScreeningSystem, seed: int | None
) -> FusedItem:
    """Classify a system's execution mode and wrap it as a whole-run item.

    Raises:
        SimulationError: when the system supports neither batch nor
            stream execution — the kernel has no scalar fallback, so
            such systems must be evaluated through
            :func:`~repro.engine.executor.evaluate_system_batch` instead.
    """
    stream = not supports_batch(system)
    if stream and not supports_stream(system):
        raise SimulationError(
            f"system {system.name!r} supports neither batch nor stream "
            "execution; fused dispatch requires a vectorizable system"
        )
    return (index, system, seed, stream, None)


# ---------------------------------------------------------------------------
# the shared-memory plane, worker side


@dataclass(frozen=True)
class _SegmentSpec:
    """Recipe for rebuilding a :class:`CaseArrays` from a shared segment.

    This — not the arrays — is what travels to workers: the segment
    name, the case count, and per column its dtype string and byte
    offset into the segment.  All offsets are 8-byte aligned.
    """

    name: str
    num_cases: int
    fields: tuple[tuple[str, str, int], ...]

    def __len__(self) -> int:
        return self.num_cases


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without taking tracker ownership.

    On Python >= 3.13 ``track=False`` keeps the attach out of the
    resource tracker entirely.  Before that, attaching re-registers the
    name — harmless for pool workers, which inherit the parent's tracker
    (the registration set is idempotent and the parent's ``unlink`` is
    the single point of removal), so no unregister dance is needed.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - depends on Python version
        return shared_memory.SharedMemory(name=name)


#: Worker-side cache of attached segments, keyed by segment name.  Lives
#: for the worker process's lifetime (i.e. the pool's), so successive
#: tasks over one workload attach exactly once.
_WORKER_SEGMENTS: OrderedDict[str, tuple[shared_memory.SharedMemory, CaseArrays]]
_WORKER_SEGMENTS = OrderedDict()
_WORKER_CACHE_MAX = 8


def _attached_arrays(spec: _SegmentSpec) -> CaseArrays:
    """The (cached) zero-copy, read-only view of a segment, worker side."""
    cached = _WORKER_SEGMENTS.get(spec.name)
    if cached is not None:
        _WORKER_SEGMENTS.move_to_end(spec.name)
        return cached[1]
    segment = _attach_segment(spec.name)
    columns: dict[str, np.ndarray] = {}
    for name, dtype_str, offset in spec.fields:
        column: np.ndarray = np.ndarray(
            (spec.num_cases,), dtype=np.dtype(dtype_str), buffer=segment.buf, offset=offset
        )
        column.flags.writeable = False  # the plane is read-only by contract
        columns[name] = column
    arrays = CaseArrays(**columns)
    _WORKER_SEGMENTS[spec.name] = (segment, arrays)
    while len(_WORKER_SEGMENTS) > _WORKER_CACHE_MAX:
        _, (old_segment, old_arrays) = _WORKER_SEGMENTS.popitem(last=False)
        del old_arrays  # drop the views so the mapping can be released
        try:
            old_segment.close()
        except BufferError:  # pragma: no cover - a view escaped; skip close
            pass
    return arrays


# ---------------------------------------------------------------------------
# the kernel


def _chunk_rngs(
    seed: int | None, n_chunks: int, lo: int, hi: int
) -> list[np.random.Generator | None]:
    """The generators of chunks ``[lo, hi)`` of an ``n_chunks`` run.

    ``None`` entries mean "use the components' private generators".  A
    seeded single chunk reuses ``default_rng(seed)`` so it matches the
    seeded scalar loop bit for bit; multiple chunks get independent
    spawned streams, deterministic in ``(seed, n_chunks)`` — the range
    only selects which of them run here.
    """
    if seed is None:
        return [None] * (hi - lo)
    if n_chunks == 1:
        return [np.random.default_rng(seed)]
    children = np.random.SeedSequence(seed).spawn(n_chunks)[lo:hi]
    return [np.random.default_rng(child) for child in children]


def _tally(
    failed: np.ndarray, positions: np.ndarray, codes: np.ndarray, n_classes: int
) -> tuple[tuple[int, int, int, int], list[int], list[int]]:
    """Exact integer counts from per-case failure flags.

    ``positions`` index the cancer cases into ``failed``; ``codes`` are
    their classes.  Same integers as :meth:`FailureTally.record_batch`,
    from two ``bincount`` passes instead of a per-case Python loop.
    """
    cancer_failed = failed[positions].astype(bool)
    cancer_trials = int(positions.size)
    cancer_failures = int(np.count_nonzero(cancer_failed))
    healthy_failures = int(np.count_nonzero(failed)) - cancer_failures
    healthy_trials = int(failed.shape[0]) - cancer_trials
    class_trials = np.bincount(codes, minlength=n_classes)
    class_failures = np.bincount(codes[cancer_failed], minlength=n_classes)
    return (
        (cancer_failures, cancer_trials, healthy_failures, healthy_trials),
        [int(f) for f in class_failures],
        [int(t) for t in class_trials],
    )


def _run_task(
    task: FusedTask, traced: bool = False
) -> tuple[list[FusedRow], list[SpanPayload]]:
    """Execute one fused task: the engine's single worker entry point.

    Runs in a pool worker (attaching the shared plane) or in-process.
    Each item decides its chunk range in order — ``decide_batch`` per
    chunk, or ``advance_stream`` threading the reader state — and tallies
    the cases of that range.  With ``traced`` it also returns a
    ``runtime.chunk`` span payload per chunk (and ``runtime.attach`` on a
    first attach) for the parent to ingest; timing wraps the kernel calls
    and never touches a generator, so the rows are identical either way.
    """
    plane, chunk_size, positions, codes, n_classes, items = task
    payload: list[SpanPayload] = []
    pid = os.getpid()
    if isinstance(plane, _SegmentSpec):
        fresh = plane.name not in _WORKER_SEGMENTS
        began = time.perf_counter()
        arrays = _attached_arrays(plane)
        if traced and fresh:
            segment: dict[str, object] = {
                "segment": plane.name,
                "bytes": _WORKER_SEGMENTS[plane.name][0].size,
            }
            payload.append(("runtime.attach", segment, time.perf_counter() - began, pid))
    else:
        arrays = plane
    chunks = plan_chunks(len(arrays), chunk_size)
    rows: list[FusedRow] = []
    for index, system, seed, stream, span in items:
        lo, hi = span if span is not None else (0, len(chunks))
        state = system.stream_state() if stream else None
        flags: list[np.ndarray] = []
        for (start, stop), rng in zip(
            chunks[lo:hi], _chunk_rngs(seed, len(chunks), lo, hi)
        ):
            began = time.perf_counter()
            chunk = arrays.chunk(start, stop)
            if state is not None:
                decisions, state = system.advance_stream(chunk, state, rng=rng)
            else:
                decisions = system.decide_batch(chunk, rng=rng)
            flags.append(np.asarray(decisions.failures(chunk.has_cancer)))
            if traced:
                bounds: dict[str, object] = {"start": start, "stop": stop}
                payload.append(("runtime.chunk", bounds, time.perf_counter() - began, pid))
        first, last = chunks[lo][0], chunks[hi - 1][1]
        low, high = np.searchsorted(positions, (first, last))
        failed = flags[0] if len(flags) == 1 else np.concatenate(flags)
        scalars, class_failures, class_trials = _tally(
            failed, positions[low:high] - first, codes[low:high], n_classes
        )
        rows.append((index, scalars, class_failures, class_trials, state))
    return rows, payload


def run_fused_batch(task: FusedTask) -> list[FusedRow]:
    """Execute one fused task in this process, untraced; one
    :data:`FusedRow` per item."""
    return _run_task(task)[0]


def _merge_rows(parts: Sequence[list[FusedRow]]) -> list[FusedRow]:
    """Sum the rows of one task's chunk-range parts back into one row per
    item (exact integer sums), in first-seen index order."""
    if len(parts) == 1:
        return parts[0]
    merged: dict[int, FusedRow] = {}
    for rows in parts:
        for index, scalars, failures, trials, state in rows:
            seen = merged.get(index)
            if seen is not None:
                scalars = tuple(a + b for a, b in zip(seen[1], scalars))
                failures = [a + b for a, b in zip(seen[2], failures)]
                trials = [a + b for a, b in zip(seen[3], trials)]
            merged[index] = (index, scalars, failures, trials, state)
    return list(merged.values())


# ---------------------------------------------------------------------------
# classification


def cancer_class_codes(
    workload: Workload,
    classifier: CaseClassifier,
    arrays: CaseArrays,
    positions: np.ndarray,
    *,
    on_scalar_fallback: Callable[[], None] | None = None,
) -> np.ndarray:
    """Class indices (into ``classifier.classes``) of the cancer cases at
    ``positions``, in order — the engine's one classification routine.

    Uses the classifier's vectorized ``classify_batch`` when it offers
    one; classifiers that only implement ``classify`` fall back to the
    case loop, with identical codes, and ``on_scalar_fallback`` (if
    given) is invoked exactly when that loop is taken.
    """
    batch = getattr(classifier, "classify_batch", None)
    if batch is not None:
        try:
            codes = np.asarray(batch(arrays))
        except NotImplementedError:
            codes = None
        if codes is not None:
            if codes.shape != (len(arrays),):
                raise SimulationError(
                    f"classify_batch returned shape {codes.shape}, expected "
                    f"({len(arrays)},)"
                )
            return codes[positions].astype(np.int64)
    if on_scalar_fallback is not None:
        on_scalar_fallback()
    index = {case_class: i for i, case_class in enumerate(classifier.classes)}
    cancers = (case for case in workload.cases if case.has_cancer)
    return np.array([index[classifier.classify(case)] for case in cancers], dtype=np.int64)


def cancer_classes(
    workload: Workload,
    classifier: CaseClassifier,
    arrays: CaseArrays,
    *,
    on_scalar_fallback: Callable[[], None] | None = None,
) -> tuple[np.ndarray, np.ndarray, tuple[CaseClass, ...]]:
    """Cancer positions, their class codes, and the classes the codes index.

    Codes are renumbered in the order classes first appear among the
    cancer cases, so a tally over them reports classes in the scalar
    loop's order, and only classes with at least one cancer case are
    listed.  Compute once per (workload, classifier) and reuse.
    """
    positions = np.flatnonzero(arrays.has_cancer)
    codes = cancer_class_codes(
        workload, classifier, arrays, positions, on_scalar_fallback=on_scalar_fallback
    )
    present, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    classes = classifier.classes
    return (
        positions,
        rank[inverse].astype(np.int64),
        tuple(classes[int(code)] for code in present[order]),
    )


def row_evaluation(
    system: ScreeningSystem,
    row: FusedRow,
    classes: Sequence[CaseClass],
    workload_name: str,
    level: float = 0.95,
) -> SystemEvaluation:
    """One item's row as the evaluation of ``system``, classes reattached.

    Commits a stream item's final reader state back into ``system``, so
    the caller's reader ends exactly where the scalar loop would leave
    it.  ``classes`` are the ones the task's codes index (see
    :func:`cancer_classes`).
    """
    _, scalars, class_failures, class_trials, state = row
    if state is not None:
        system.commit_stream(state)
    tally = _failure_tally(scalars, classes, class_failures, class_trials)
    return tally.to_evaluation(system.name, workload_name, level)


def _failure_tally(
    scalars: Sequence[int],
    classes: Sequence[CaseClass],
    class_failures: Sequence[int],
    class_trials: Sequence[int],
) -> FailureTally:
    """Counts as a :class:`FailureTally`; classes without cancer trials are
    dropped, exactly as :meth:`FailureTally.record_batch` never creates them."""
    kept = [entry for entry in zip(classes, class_failures, class_trials) if entry[2]]
    return FailureTally(
        *scalars,
        class_failures={case_class: failures for case_class, failures, _ in kept},
        class_trials={case_class: trials for case_class, _, trials in kept},
    )


@dataclass(frozen=True)
class FusedCounts:
    """One fused item's exact integer failure counts, demultiplexed.

    Classes with zero cancer trials are dropped (exactly as
    :meth:`FailureTally.record_batch` never creates their entries), so
    :meth:`evaluation` rebuilds the same
    :class:`~repro.system.simulate.SystemEvaluation` — identical Wilson
    intervals — as a standalone run of the same ``(seed, chunk_size)``.
    """

    cancer_failures: int
    cancer_trials: int
    healthy_failures: int
    healthy_trials: int
    class_names: tuple[str, ...]
    class_failures: tuple[int, ...]
    class_trials: tuple[int, ...]

    @classmethod
    def from_row(cls, row: FusedRow, class_names: Sequence[str]) -> "FusedCounts":
        """Demultiplex one :data:`FusedRow` against the names its codes index."""
        _, scalars, class_failures, class_trials, _ = row
        kept = [entry for entry in zip(class_names, class_failures, class_trials) if entry[2]]
        return cls(
            *scalars,
            class_names=tuple(name for name, _, _ in kept),
            class_failures=tuple(failures for _, failures, _ in kept),
            class_trials=tuple(trials for _, _, trials in kept),
        )

    def tally(self) -> FailureTally:
        """The counts as a :class:`FailureTally` (classes reattached)."""
        return _failure_tally(
            (
                self.cancer_failures,
                self.cancer_trials,
                self.healthy_failures,
                self.healthy_trials,
            ),
            [CaseClass(name) for name in self.class_names],
            self.class_failures,
            self.class_trials,
        )

    def evaluation(
        self, system_name: str, workload_name: str, level: float = 0.95
    ) -> SystemEvaluation:
        """The counts as a :class:`SystemEvaluation` (same floats as live)."""
        return self.tally().to_evaluation(system_name, workload_name, level)
