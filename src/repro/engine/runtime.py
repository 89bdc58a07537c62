"""Persistent engine runtime: where the engine's one kernel runs.

Every evaluation is a fused task for the kernel in
:mod:`repro.engine.fused`.  :class:`EngineRuntime` decides where each
task runs and amortises everything around it across calls:

* **One dispatch.**  :meth:`EngineRuntime.run_fused` places tasks
  in-process or on one persistent
  :class:`~concurrent.futures.ProcessPoolExecutor`, created lazily and
  reused until :meth:`EngineRuntime.close`.  ``evaluate``/``compare``,
  the sweep runner and the service all dispatch through it; ``map``
  remains for generic grid work.
* **Zero-copy workload plane.**  Each distinct workload's
  :class:`~repro.engine.arrays.CaseArrays` is published *once* into a
  shared-memory segment; pooled tasks carry only a
  :class:`~repro.engine.fused._SegmentSpec` and workers attach views —
  no array travels through a pickle after publication.
* **One workload residency.**  :meth:`EngineRuntime.prepare` is the
  only place a workload becomes dispatch-ready (columnised, its cancer
  cases coded by class); entries are keyed by content digest, so two
  equal workloads share one, in an LRU of ``max_cached_workloads``.
  ``evaluate``, the sweep runner and the service all build on it.
* **Adaptive chunk planning.**  :func:`plan_chunk_size` sizes chunks
  from the case count, worker count, and a bytes-per-chunk budget.

Placement never changes a result: every chunk's generator derives from
its item's seed wherever it runs, so seeded results depend only on
``(seed, chunk_size)``, and unseeded items run in-process on the
caller's objects, bit-identical to the scalar loop.  Without shared
memory pooled tasks carry pickled arrays; with unpicklable systems or a
broken pool the work runs in-process — same results on every path.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
import warnings
import weakref
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from ..core.case_class import CaseClass
from ..exceptions import RuntimeDegradationWarning, SimulationError
from ..obs import Instrumentation, SpanPayload, get_instrumentation
from ..screening.classifier import CaseClassifier, SingleClassClassifier
from ..screening.workload import Workload
from ..system.simulate import SystemEvaluation, evaluate_system
from ..system.single import ScreeningSystem
from .arrays import ARRAY_FIELDS, CaseArrays
from .fused import (
    DEFAULT_CHUNK_SIZE,
    FusedItem,
    FusedRow,
    FusedTask,
    _merge_rows,
    _run_task,
    _SegmentSpec,
    build_fused_item,
    cancer_classes,
    plan_chunks,
    row_evaluation,
    supports_batch,
    supports_stream,
)

__all__ = [
    "EngineRuntime",
    "PreparedWorkload",
    "plan_chunk_size",
    "shared_memory_available",
    "TARGET_CHUNK_BYTES",
    "MIN_CHUNK_SIZE",
    "CHUNKS_PER_WORKER",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Soft per-chunk payload budget for adaptive planning (1 MiB): big
#: enough that per-chunk Python overhead is negligible, small enough
#: that chunk working sets stay cache-resident.
TARGET_CHUNK_BYTES = 1 << 20

#: Floor on adaptively planned chunk sizes; below this the per-chunk
#: overhead dominates the kernels.
MIN_CHUNK_SIZE = 1024

#: Chunks the planner aims to hand each worker, so stragglers can be
#: balanced without making chunks tiny.
CHUNKS_PER_WORKER = 4


def plan_chunk_size(
    num_cases: int,
    workers: int,
    *,
    bytes_per_case: int = 64,
    target_chunk_bytes: int = TARGET_CHUNK_BYTES,
    min_chunk_size: int = MIN_CHUNK_SIZE,
    chunks_per_worker: int = CHUNKS_PER_WORKER,
) -> int:
    """Plan a chunk size from the workload shape and worker count.

    The planned size is the byte-budget cap (``target_chunk_bytes /
    bytes_per_case``) or the fair share (enough chunks for every worker
    to receive ``chunks_per_worker``), whichever is smaller, floored at
    ``min_chunk_size`` and capped at the workload itself.  A pure
    function of its arguments — but note it *does* depend on
    ``workers``, so callers who need seeded results independent of
    worker count must pass an explicit ``chunk_size`` instead of
    ``None`` (the documented contract ties results to
    ``(seed, chunk_size)``).

    Raises:
        SimulationError: if ``workers`` is not positive.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers!r}")
    if num_cases <= 0:
        return max(1, min_chunk_size)
    budget = max(1, target_chunk_bytes // max(1, bytes_per_case))
    fair = -(-num_cases // max(1, workers * chunks_per_worker))
    size = max(min_chunk_size, min(budget, fair))
    return max(1, min(size, num_cases))


_SHM_AVAILABLE: bool | None = None


def shared_memory_available() -> bool:
    """Whether shared-memory segments can be created here (probed once).

    Restricted environments (no ``/dev/shm``, seccomp'd containers) make
    :class:`~multiprocessing.shared_memory.SharedMemory` creation fail;
    the runtime then falls back to pickling arrays into tasks.
    """
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=8)
        except (OSError, ValueError, ImportError):
            _SHM_AVAILABLE = False
        else:
            probe.close()
            probe.unlink()
            _SHM_AVAILABLE = True
    return _SHM_AVAILABLE


def _caller_stacklevel() -> int:
    """The ``stacklevel`` naming the first frame outside ``repro.engine``.

    Counted from the function that calls this one, so a warning raised
    there points at the user's line whichever engine entry point (the
    runtime, or the executor functions over it) it came through.
    """
    frame = sys._getframe(1)
    level = 1
    while frame.f_back is not None:
        module = frame.f_globals.get("__name__", "")
        if module != "repro.engine" and not module.startswith("repro.engine."):
            break
        frame = frame.f_back
        level += 1
    return level


def _aligned(nbytes: int) -> int:
    """Round a byte count up to 8-byte alignment."""
    return -(-nbytes // 8) * 8


def _publish_arrays(
    arrays: CaseArrays,
) -> tuple[shared_memory.SharedMemory, _SegmentSpec]:
    """Copy a batch into a fresh shared segment; returns (segment, spec).

    The caller owns the segment and must eventually ``close()`` and
    ``unlink()`` it.
    """
    offset = 0
    fields: list[tuple[str, str, int]] = []
    columns: list[np.ndarray] = []
    for name in ARRAY_FIELDS:
        column = np.ascontiguousarray(getattr(arrays, name))
        fields.append((name, column.dtype.str, offset))
        columns.append(column)
        offset += _aligned(column.nbytes)
    segment = shared_memory.SharedMemory(create=True, size=max(1, offset))
    for (name, _, start), column in zip(fields, columns):
        view: np.ndarray = np.ndarray(
            column.shape, dtype=column.dtype, buffer=segment.buf, offset=start
        )
        view[:] = column
        del view  # release the buffer export before the segment can close
    spec = _SegmentSpec(
        name=segment.name, num_cases=len(arrays), fields=tuple(fields)
    )
    return segment, spec


def _group_jobs(jobs: Sequence[_T], n_groups: int) -> list[list[_T]]:
    """Split jobs into at most ``n_groups`` contiguous, near-equal groups.

    Grouping is a scheduling decision only: every chunk keeps its own
    generator, so the per-chunk results are identical however the chunks
    are grouped.
    """
    n_groups = max(1, min(n_groups, len(jobs)))
    base, extra = divmod(len(jobs), n_groups)
    groups: list[list[_T]] = []
    index = 0
    for g in range(n_groups):
        size = base + (1 if g < extra else 0)
        groups.append(list(jobs[index : index + size]))
        index += size
    return groups


def _arrays_digest(arrays: CaseArrays) -> str:
    """Content digest of a batch (the runtime's cross-instance cache key)."""
    digest = hashlib.sha1()
    digest.update(str(len(arrays)).encode())
    for name in ARRAY_FIELDS:
        column = np.ascontiguousarray(getattr(arrays, name))
        digest.update(name.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


#: One shared default, so default-classified calls share a label-cache entry.
_DEFAULT_CLASSIFIER = SingleClassClassifier()


@dataclass(frozen=True, eq=False)
class PreparedWorkload:
    """A workload made dispatch-ready by :meth:`EngineRuntime.prepare`.

    Attributes:
        arrays: The resident columnised batch (shared by equal workloads).
        positions: Sorted indices of the cancer cases.
        codes: Class code of each cancer case, aligned with ``positions``.
        classes: The classes the codes number, in the order they first
            appear among the cancer cases.
    """

    arrays: CaseArrays
    positions: np.ndarray
    codes: np.ndarray
    classes: tuple[CaseClass, ...]

    @property
    def class_names(self) -> tuple[str, ...]:
        """Names of :attr:`classes`, in code order."""
        return tuple(case_class.name for case_class in self.classes)

    def task(self, chunk_size: int, items: tuple[FusedItem, ...]) -> FusedTask:
        """The fused task running ``items`` over this workload."""
        return (
            self.arrays, chunk_size, self.positions, self.codes, len(self.classes), items
        )


@dataclass
class _CachedWorkload:
    """One workload's runtime residency: arrays, segment, label caches."""

    arrays: CaseArrays
    digest: str
    segment: shared_memory.SharedMemory | None = None
    spec: _SegmentSpec | None = None
    #: Per-classifier label cache: ``id(classifier)`` -> (classifier —
    #: a strong reference keeping the id stable — and its prepared form).
    labels: dict[int, tuple[CaseClassifier, PreparedWorkload]] = field(
        default_factory=dict
    )


def _release_segment(entry: _CachedWorkload) -> None:
    """Close and unlink a cached workload's segment, if it has one."""
    segment, entry.segment, entry.spec = entry.segment, None, None
    if segment is None:
        return
    segment.close()
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _release_runtime(
    pool_box: list[ProcessPoolExecutor | None],
    cache: OrderedDict[str, _CachedWorkload],
) -> None:
    """Tear down a runtime's pool and segments (close() and GC finalizer)."""
    pool, pool_box[0] = pool_box[0], None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    for entry in cache.values():
        _release_segment(entry)
    cache.clear()


class EngineRuntime:
    """A persistent execution context for the batch engine.

    Use as a context manager (or call :meth:`close` explicitly)::

        with EngineRuntime(workers=4) as runtime:
            for system in systems:
                evaluate_system_batch(system, workload, seed=7, runtime=runtime)

    Everything expensive is created once and reused: the process pool,
    the shared-memory publication of each workload, and its prepared
    form (:meth:`prepare`: columnisation plus per-classifier
    cancer-class codes).  Every evaluation in the engine runs here —
    :func:`~repro.engine.executor.evaluate_system_batch` without a
    ``runtime`` opens one for the call — and every one runs the one
    fused kernel, in-process or pooled, so results are identical at
    every worker count: the runtime is a pure performance substrate.

    Args:
        workers: Worker processes for seeded parallel execution.  ``1``
            keeps everything in-process (no pool, no shared memory).
            Shared memory is used where it is available
            (:func:`shared_memory_available`); otherwise, or if a
            publication fails, arrays are pickled into tasks.
        max_cached_workloads: Distinct workloads kept resident (LRU);
            nothing else the runtime holds grows with the workloads seen.
        shm_byte_budget: Soft cap on the total bytes of live shared
            segments.  When a fresh publication pushes the total over
            the budget, least-recently-used segments are unlinked (the
            arrays and label caches stay resident — only the shared
            plane is dropped, and it re-publishes on next parallel use).
            ``None`` (the default) keeps every cached workload's segment
            alive; set it for many-workload sweeps so the runtime cannot
            exhaust ``/dev/shm``.  Evictions are counted under
            ``runtime.shm.evicted``.
        obs: Instrumentation to record into.  ``None`` (the default)
            resolves the ambient instrumentation at construction — the
            null singleton unless :func:`repro.obs.use_instrumentation`
            is active — so plain runtimes pay only no-op calls.

    Thread-safety: a runtime is not thread-safe; share it across calls,
    not across threads.
    """

    def __init__(
        self,
        workers: int = 2,
        max_cached_workloads: int = 4,
        shm_byte_budget: int | None = None,
        obs: Instrumentation | None = None,
    ) -> None:
        if workers < 1:
            raise SimulationError(f"workers must be >= 1, got {workers!r}")
        if max_cached_workloads < 1:
            raise SimulationError(
                f"max_cached_workloads must be >= 1, got {max_cached_workloads!r}"
            )
        if shm_byte_budget is not None and shm_byte_budget < 1:
            raise SimulationError(
                f"shm_byte_budget must be >= 1 or None, got {shm_byte_budget!r}"
            )
        self._workers = int(workers)
        self._max_cached = int(max_cached_workloads)
        self._shm_byte_budget = (
            int(shm_byte_budget) if shm_byte_budget is not None else None
        )
        self._obs = obs if obs is not None else get_instrumentation()
        self._degraded: set[str] = set()
        self._use_shm = shared_memory_available()
        if not self._use_shm and self._workers > 1:
            self._note_degradation(
                "no_shm",
                "shared memory is unavailable; workloads will be pickled "
                "into every task group (results are unaffected)",
            )
        self._pool_box: list[ProcessPoolExecutor | None] = [None]
        self._pool_launches = 0
        self._cache: OrderedDict[str, _CachedWorkload] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._closed = False
        # Belt-and-braces: segments must never outlive the runtime, even
        # if close() is skipped — unlink on garbage collection too.
        self._finalizer = weakref.finalize(
            self, _release_runtime, self._pool_box, self._cache
        )

    # -- lifecycle ----------------------------------------------------

    def __enter__(self) -> "EngineRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the pool down and unlink every shared segment (idempotent)."""
        self._closed = True
        self._finalizer()

    # -- introspection (stable surface for tests and diagnostics) ------

    @property
    def workers(self) -> int:
        """Worker processes this runtime fans out over."""
        return self._workers

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def pool_launches(self) -> int:
        """Process pools created so far (1 after first parallel call)."""
        return self._pool_launches

    @property
    def uses_shared_memory(self) -> bool:
        """Whether workloads are published to shared memory here."""
        return self._use_shm

    @property
    def obs(self) -> Instrumentation:
        """The instrumentation this runtime records into."""
        return self._obs

    @property
    def degradations(self) -> frozenset[str]:
        """Degradation reasons that have fired on this runtime."""
        return frozenset(self._degraded)

    @property
    def active_segments(self) -> tuple[str, ...]:
        """Names of the shared segments currently published."""
        return tuple(
            entry.segment.name
            for entry in self._cache.values()
            if entry.segment is not None
        )

    @property
    def shm_bytes_live(self) -> int:
        """Total bytes of currently published shared segments."""
        return sum(
            entry.segment.size
            for entry in self._cache.values()
            if entry.segment is not None
        )

    def cache_info(self) -> dict[str, int]:
        """Cache counters: resident workloads, hits, misses, segments."""
        return {
            "workloads": len(self._cache),
            "hits": self._hits,
            "misses": self._misses,
            "segments": len(self.active_segments),
        }

    # -- workload residency --------------------------------------------

    def prepare(
        self, workload: Workload, classifier: CaseClassifier | None = None
    ) -> PreparedWorkload:
        """The workload made dispatch-ready — the one place that happens.

        Finds the workload's resident entry by identity of its arrays
        (``Workload.to_arrays`` is cached on the workload), else by
        content digest, so equal workloads share one entry and its
        arrays.  Cancer cases are coded by class once per classifier
        object (kept alive in the entry so its id stays unique); ``None``
        means one shared single-class classifier.  A classifier without a
        usable ``classify_batch`` takes the per-case loop
        (``runtime.degraded.scalar_classify``; codes are identical).
        """
        if self._closed:
            raise SimulationError("cannot prepare on a closed EngineRuntime")
        classifier = classifier if classifier is not None else _DEFAULT_CLASSIFIER
        entry = self._entry(workload.to_arrays())
        cached = entry.labels.get(id(classifier))
        if cached is not None and cached[0] is classifier:
            self._obs.count("runtime.label_cache.hit")
            return cached[1]
        self._obs.count("runtime.label_cache.miss")
        prepared = PreparedWorkload(
            entry.arrays,
            *cancer_classes(
                workload,
                classifier,
                entry.arrays,
                on_scalar_fallback=lambda: self._note_degradation(
                    "scalar_classify",
                    f"classifier {type(classifier).__name__} has no usable "
                    "classify_batch; cancer labels come from the per-case loop "
                    "(labels are identical, classification is slower)",
                ),
            ),
        )
        entry.labels[id(classifier)] = (classifier, prepared)
        return prepared

    def publish_workload(
        self, workload: Workload
    ) -> tuple[CaseArrays, _SegmentSpec | None]:
        """Columnise, cache, and (if parallel) publish one workload now.

        Returns the resident :class:`CaseArrays` plus, on a parallel
        shared-memory runtime, the :class:`_SegmentSpec` pooled tasks
        attach with (``None`` on serial/no-shm runtimes).  Dispatch
        publishes on demand, so this only moves that cost up front.
        """
        if self._closed:
            raise SimulationError("cannot publish on a closed EngineRuntime")
        entry = self._entry(workload.to_arrays())
        spec = self._publish(entry) if self._workers > 1 else None
        return entry.arrays, spec

    # -- evaluation ----------------------------------------------------

    def evaluate(
        self,
        system: ScreeningSystem,
        workload: Workload,
        classifier: CaseClassifier | None = None,
        level: float = 0.95,
        *,
        seed: int | None = None,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    ) -> SystemEvaluation:
        """Evaluate one system — the engine's one evaluate body, behind
        :func:`~repro.engine.executor.evaluate_system_batch`.

        The system becomes a one-item task for :meth:`run_fused` with
        ``split=True``; a temporal reader's final state is committed back
        into the caller's system.  ``chunk_size=None`` plans adaptively
        via :func:`plan_chunk_size` — pass an explicit size for results
        independent of this runtime's worker count.  Systems supporting
        neither batch nor stream execution degrade to the scalar loop
        (``runtime.degraded.scalar_system``).
        """
        if self._closed:
            raise SimulationError("cannot evaluate on a closed EngineRuntime")
        if not supports_batch(system) and not supports_stream(system):
            self._note_degradation(
                "scalar_system",
                f"system {system.name!r} supports neither batch nor stream "
                "execution; evaluating through the per-case scalar loop",
            )
            return evaluate_system(system, workload, classifier, level, seed=seed)
        if len(workload) == 0:
            raise SimulationError("cannot evaluate a system on an empty workload")
        with self._obs.span(
            "runtime.evaluate", system=system.name, cases=len(workload)
        ) as span:
            prepared = self.prepare(workload, classifier)
            arrays = prepared.arrays
            if chunk_size is None:
                chunk_size = plan_chunk_size(
                    len(arrays), self._workers, bytes_per_case=arrays.bytes_per_case
                )
            n_chunks = len(plan_chunks(len(arrays), chunk_size))
            span.set(chunks=n_chunks, chunk_size=chunk_size)
            item = build_fused_item(0, system, seed)
            if item[3]:
                span.set(stream=True)
            ((row,),) = self.run_fused([prepared.task(chunk_size, (item,))], split=True)
            with self._obs.span("runtime.tally", chunks=n_chunks):
                return row_evaluation(
                    system, row, prepared.classes, workload.name, level
                )

    def compare(
        self,
        systems: Sequence[ScreeningSystem],
        workload: Workload,
        classifier: CaseClassifier | None = None,
        level: float = 0.95,
        *,
        seed: int | None = None,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
    ) -> dict[str, SystemEvaluation]:
        """Evaluate several systems over one workload, sharing everything.

        The pool, the published workload, and the class-code cache serve
        every system; each system's chunk generators derive from the
        same seed (common random numbers).  The body behind
        :func:`~repro.engine.executor.compare_systems_batch`.
        """
        names = [system.name for system in systems]
        if len(set(names)) != len(names):
            raise SimulationError(f"system names must be unique, got {names!r}")
        return {
            system.name: self.evaluate(
                system, workload, classifier, level, seed=seed, chunk_size=chunk_size
            )
            for system in systems
        }

    def run_fused(
        self, tasks: Sequence[FusedTask], *, split: bool = False
    ) -> list[list[FusedRow]]:
        """Run fused tasks through the engine's one kernel; rows per task.

        The dispatch every evaluation takes.  Tasks run in-process on a
        serial runtime, when any item is unseeded (private generators
        stay on the caller's objects), or when the items cannot be
        pickled (``runtime.degraded.unpicklable_system``); otherwise each
        task is one pool submission carrying the workload's shared
        segment.  With ``split`` (how :meth:`evaluate` dispatches) a
        single-chunk task stays in-process, and stateless items spread
        their chunks over at most ``workers`` contiguous ranges whose
        rows are summed back.  A broken pool is discarded and the tasks
        recompute in-process (``runtime.degraded.broken_pool``).  Traced
        spans from workers are folded into this runtime's
        instrumentation.  Rows are identical on every path.
        """
        if self._closed:
            raise SimulationError("cannot dispatch on a closed EngineRuntime")
        traced = self._obs.enabled
        pool = self._pool_for(tasks, split)
        if pool is not None:
            try:
                pending = [
                    [pool.submit(_run_task, part, traced) for part in self._parts(task, split)]
                    for task in tasks
                ]
                outputs = [[future.result() for future in parts] for parts in pending]
            except BrokenProcessPool:
                self._discard_pool()
                self._note_degradation(
                    "broken_pool",
                    "the worker pool broke mid-dispatch; recomputing in-process "
                    "(results are unaffected)",
                )
            else:
                return [
                    _merge_rows([self._ingested(output) for output in parts])
                    for parts in outputs
                ]
        return [self._ingested(_run_task(task, traced)) for task in tasks]

    def map(self, fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
        """Apply a picklable function over items on the persistent pool.

        The generic escape hatch for grid work (extrapolation cells,
        sweep row blocks).  Order is preserved.  Falls back to an
        in-process loop when the runtime is serial or ``fn``/``items``
        cannot be pickled, and recomputes in-process if the pool breaks
        — the result is the same either way.
        """
        if self._closed:
            raise SimulationError("cannot map on a closed EngineRuntime")
        work = list(items)
        if not work:
            return []
        with self._obs.span("runtime.map", items=len(work)):
            pool = self._ensure_pool()
            if pool is not None:
                try:
                    pickle.dumps((fn, work[0]))
                except Exception:
                    pool = None
                    self._note_degradation(
                        "unpicklable_map",
                        f"{getattr(fn, '__name__', fn)!r} (or its items) cannot "
                        "be pickled; mapping in-process instead of on the pool",
                    )
            if pool is None:
                return [fn(item) for item in work]
            try:
                futures = [pool.submit(fn, item) for item in work]
                return [future.result() for future in futures]
            except BrokenProcessPool:  # pragma: no cover - defensive recovery
                self._discard_pool()
                self._note_degradation(
                    "broken_pool",
                    "the worker pool broke mid-map; recomputing in-process "
                    "(results are unaffected)",
                )
                return [fn(item) for item in work]

    # -- internals ------------------------------------------------------

    def _note_degradation(self, reason: str, message: str) -> None:
        """Count a degraded-path event; warn the first time per reason.

        The counter (``runtime.degraded.<reason>``) records *every*
        event so run reports show true frequencies; the
        :class:`RuntimeDegradationWarning` fires once per runtime per
        reason so a tight evaluation loop cannot flood the caller.
        """
        self._obs.count(f"runtime.degraded.{reason}")
        if reason not in self._degraded:
            self._degraded.add(reason)
            warnings.warn(
                f"EngineRuntime degraded ({reason}): {message}",
                RuntimeDegradationWarning,
                stacklevel=_caller_stacklevel(),
            )

    def _ingested(
        self, output: tuple[list[FusedRow], list[SpanPayload]]
    ) -> list[FusedRow]:
        """A kernel run's rows, its traced spans folded into this runtime."""
        rows, payload = output
        if payload:
            self._obs.ingest_spans(payload)
        for name, attrs, duration, _ in payload:
            if name == "runtime.chunk":
                self._obs.observe("runtime.chunk.wall_s", duration)
            elif name == "runtime.attach":
                self._obs.count("runtime.shm.bytes_attached", float(attrs["bytes"]))  # type: ignore[arg-type]
        return rows

    def _pool_for(
        self, tasks: Sequence[FusedTask], split: bool
    ) -> ProcessPoolExecutor | None:
        """The pool a dispatch runs on, or ``None`` to run it in-process."""
        if self._workers <= 1 or not tasks:
            return None
        if any(item[2] is None for task in tasks for item in task[5]):
            return None
        if split and all(len(task[0]) <= task[1] for task in tasks):
            return None
        try:
            pickle.dumps(tasks[0][5])
        except Exception:
            names = ", ".join(repr(item[1].name) for item in tasks[0][5])
            self._note_degradation(
                "unpicklable_system",
                f"system {names} (or its stream state) cannot be pickled; "
                "evaluating in-process instead of on the worker pool",
            )
            return None
        return self._ensure_pool()

    def _parts(self, task: FusedTask, split: bool) -> list[FusedTask]:
        """A task's pool submissions: itself over the shared plane, or with
        ``split`` one per stateless chunk range and per stream item."""
        plane, chunk_size, positions, codes, n_classes, items = task
        if isinstance(plane, CaseArrays):
            plane = self._shared_plane(plane)
        if not split:
            return [(plane, chunk_size, positions, codes, n_classes, items)]
        chunks = range(len(plan_chunks(len(plane), chunk_size)))
        whole: list[tuple[int, int] | None] = [None]
        ranges: list[tuple[int, int] | None] = [
            (group[0], group[-1] + 1) for group in _group_jobs(chunks, self._workers)
        ]
        parts: list[FusedTask] = []
        for index, system, seed, stream, _ in items:
            for span in whole if stream else ranges:
                item = (index, system, seed, stream, span)
                parts.append((plane, chunk_size, positions, codes, n_classes, (item,)))
        return parts

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        """The persistent pool, created on first parallel need (or None)."""
        if self._workers <= 1:
            return None
        if self._pool_box[0] is None:
            with self._obs.span("runtime.pool_launch", workers=self._workers):
                self._pool_box[0] = ProcessPoolExecutor(max_workers=self._workers)
            self._pool_launches += 1
            self._obs.gauge("runtime.pool.workers", self._workers)
            self._obs.count("runtime.pool.launches")
        return self._pool_box[0]

    def _discard_pool(self) -> None:
        """Drop a broken pool so the next parallel call starts fresh."""
        pool, self._pool_box[0] = self._pool_box[0], None
        if pool is not None:  # pragma: no cover - only after a broken pool
            pool.shutdown(wait=False, cancel_futures=True)

    def _resident(self, arrays: CaseArrays) -> _CachedWorkload | None:
        """The resident entry holding this very arrays object, if any."""
        for entry in self._cache.values():
            if entry.arrays is arrays:
                return entry
        return None

    def _entry(self, arrays: CaseArrays) -> _CachedWorkload:
        """The cache entry for a batch: by identity when resident, else by
        content digest (created on a miss, evicting the LRU entry)."""
        entry = self._resident(arrays)
        if entry is None:
            digest = _arrays_digest(arrays)
            entry = self._cache.get(digest)
            if entry is None:
                self._misses += 1
                self._obs.count("runtime.workload_cache.miss")
                entry = self._cache[digest] = _CachedWorkload(arrays, digest)
                while len(self._cache) > self._max_cached:
                    _release_segment(self._cache.popitem(last=False)[1])
                return entry
        self._hits += 1
        self._obs.count("runtime.workload_cache.hit")
        self._cache.move_to_end(entry.digest)
        return entry

    def _shared_plane(self, arrays: CaseArrays) -> "_SegmentSpec | CaseArrays":
        """What a pooled task over ``arrays`` carries: the workload's shared
        segment (published now if it is not live), else the arrays."""
        if not self._use_shm:
            return arrays
        entry = self._resident(arrays)
        spec = self._publish(entry if entry is not None else self._entry(arrays))
        return spec if spec is not None else arrays

    def _publish(self, entry: _CachedWorkload) -> _SegmentSpec | None:
        """Publish an entry's arrays to shared memory (once; may fall back)."""
        if not self._use_shm:
            return None
        if entry.spec is None:
            try:
                entry.segment, entry.spec = _publish_arrays(entry.arrays)
            except OSError:  # pragma: no cover - e.g. /dev/shm filled up
                self._use_shm = False
                self._note_degradation(
                    "no_shm",
                    "publishing a workload to shared memory failed; falling "
                    "back to pickling arrays into tasks",
                )
                return None
            self._obs.count("runtime.shm.bytes_published", entry.segment.size)
            self._enforce_shm_budget(entry)
            self._obs.gauge("runtime.shm.segments", len(self.active_segments))
        return entry.spec

    def _enforce_shm_budget(self, keep: _CachedWorkload) -> None:
        """Unlink LRU segments until live shm bytes fit the budget.

        The just-published entry is never evicted (it is about to be
        used); everything else unlinks oldest-first.  Only the shared
        plane is dropped — the entry's arrays and label caches stay, so
        an evicted workload re-publishes cheaply on its next parallel
        use.  Workers still holding an attached view keep the memory
        alive until their own LRU cache closes it (POSIX unlink
        semantics), so in-flight reads are unaffected.
        """
        if self._shm_byte_budget is None:
            return
        if self.shm_bytes_live <= self._shm_byte_budget:
            return
        for entry in list(self._cache.values()):  # OrderedDict: LRU first
            if entry is keep or entry.segment is None:
                continue
            _release_segment(entry)
            self._obs.count("runtime.shm.evicted")
            if self.shm_bytes_live <= self._shm_byte_budget:
                break
