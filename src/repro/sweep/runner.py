"""The sweep runner: execute compiled plans fast, checkpointed, resumable.

Execution walks the plan shard by shard on an
:class:`~repro.engine.runtime.EngineRuntime` (the caller's, or one owned
for the run).  Per distinct workload (not per cell) it materialises the
cases once and makes them dispatch-ready through
:meth:`EngineRuntime.prepare <repro.engine.runtime.EngineRuntime.prepare>`.
Cells sharing a workload then execute as fused tasks: one task carries
many ``(system, seed)`` pairs against one prepared workload, so the pool
round-trip, the columnisation, and the classification amortise across
the whole batch.  A shard's tasks go through :meth:`EngineRuntime.run_fused
<repro.engine.runtime.EngineRuntime.run_fused>` — in-process on a serial
runtime, else one pool submission per task, each carrying the workload's
shared-memory segment.

**Determinism contract.**  A cell's failure counts depend only on its
recorded ``(seed, chunk_size)``: every task runs the engine's one kernel
(:mod:`repro.engine.fused`, the same kernel behind
:func:`~repro.engine.executor.evaluate_system_batch` and the service's
micro-batcher).  Fused, sharded, serial, parallel,
interrupted-and-resumed — all bit-identical to evaluating the cell
standalone (:func:`reproduce_cell`).

**Checkpointing.**  With a journal path, a header records the plan
fingerprint and every completed shard appends its cell results as JSONL
(:func:`repro.trial.storage.append_journal_entries`).  ``resume=True``
replays the journal — verifying the fingerprint — and skips completed
cells without recomputing them (counted under ``sweep.cells.skipped``).
The journalled cell is the only stored result: per-shard streaming
summaries (:attr:`SweepResult.shard_states`) are derived from the cells,
and journal entry kinds other than the header and cells are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..analysis.streaming import WelfordAccumulator
from ..engine.executor import DEFAULT_CHUNK_SIZE, evaluate_system_batch
from ..engine.fused import FusedCounts, FusedItem, FusedTask, build_fused_item
from ..engine.runtime import EngineRuntime, PreparedWorkload
from ..exceptions import SimulationError
from ..obs import Instrumentation, get_instrumentation
from ..screening.classifier import CaseClassifier
from ..system.simulate import SystemEvaluation
from ..trial.storage import append_journal_entries, load_journal_entries
from .grid import ScenarioGrid
from .plan import (
    DEFAULT_FUSE_LIMIT,
    DEFAULT_SHARD_SIZE,
    PlannedCell,
    Shard,
    SweepPlan,
    compile_grid,
)

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "CellResult",
    "ShardStreamState",
    "SweepResult",
    "run_sweep",
    "resume_sweep",
    "reproduce_cell",
]

#: Version stamped into (and required of) sweep journal headers.
JOURNAL_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class CellResult:
    """One executed cell's exact integer failure counts.

    Storing counts — not derived rates — keeps results bit-stable
    through the journal: :meth:`evaluation` rebuilds the same
    :class:`~repro.system.simulate.SystemEvaluation` (identical Wilson
    intervals) whether the counts come from this run, a resumed journal,
    or a standalone reproduction.

    Attributes:
        index: The cell's position in the plan.
        cell_id: Stable cell identity.
        seed: The recorded evaluation seed.
        system_name: Name of the evaluated system.
        workload_name: Name of the workload it ran on.
        counts: The cell's demultiplexed kernel counts (FN/FP totals and
            the per-class breakdown).
    """

    index: int
    cell_id: str
    seed: int
    system_name: str
    workload_name: str
    counts: FusedCounts

    def evaluation(self, level: float = 0.95) -> SystemEvaluation:
        """The counts as a :class:`SystemEvaluation` (same floats as live)."""
        return self.counts.evaluation(self.system_name, self.workload_name, level)

    def to_entry(self, shard: int) -> dict[str, Any]:
        """The journal line for this result."""
        counts = self.counts
        return {
            "kind": "cell",
            "shard": shard,
            "index": self.index,
            "cell_id": self.cell_id,
            "seed": self.seed,
            "system": self.system_name,
            "workload": self.workload_name,
            "counts": {
                "cancer_failures": counts.cancer_failures,
                "cancer_trials": counts.cancer_trials,
                "healthy_failures": counts.healthy_failures,
                "healthy_trials": counts.healthy_trials,
                "class_names": list(counts.class_names),
                "class_failures": list(counts.class_failures),
                "class_trials": list(counts.class_trials),
            },
        }

    @classmethod
    def from_entry(cls, entry: Mapping[str, Any]) -> "CellResult":
        """Rebuild a result from its journal line.

        Raises:
            SimulationError: on a malformed entry.
        """
        try:
            counts = entry["counts"]
            return cls(
                index=int(entry["index"]),
                cell_id=str(entry["cell_id"]),
                seed=int(entry["seed"]),
                system_name=str(entry["system"]),
                workload_name=str(entry["workload"]),
                counts=FusedCounts(
                    cancer_failures=int(counts["cancer_failures"]),
                    cancer_trials=int(counts["cancer_trials"]),
                    healthy_failures=int(counts["healthy_failures"]),
                    healthy_trials=int(counts["healthy_trials"]),
                    class_names=tuple(str(n) for n in counts["class_names"]),
                    class_failures=tuple(int(f) for f in counts["class_failures"]),
                    class_trials=tuple(int(t) for t in counts["class_trials"]),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed journal cell entry: {exc}") from exc


@dataclass
class ShardStreamState:
    """One shard's mergeable streaming summary of its cell results.

    The exact-count fields (totals) merge by integer addition —
    associative and commutative, so any shard partition and merge order
    folds to the same global state (same contract as
    :class:`~repro.analysis.streaming.StreamingEstimator`).  The per-cell
    rate dispersion rides in :class:`WelfordAccumulator` twins whose
    parallel merge is associative up to floating-point rounding.

    Attributes:
        shard: The shard's plan index (``-1`` for a merged global state).
        cells: Cell results folded in.
        fn_failures: Pooled false negatives over cancer trials.
        fn_trials: Pooled cancer trials.
        fp_failures: Pooled false positives over healthy trials.
        fp_trials: Pooled healthy trials.
        fn_rate: Streaming moments of the per-cell FN rate.
        fp_rate: Streaming moments of the per-cell FP rate.
    """

    shard: int = -1
    cells: int = 0
    fn_failures: int = 0
    fn_trials: int = 0
    fp_failures: int = 0
    fp_trials: int = 0
    fn_rate: WelfordAccumulator = None  # type: ignore[assignment]
    fp_rate: WelfordAccumulator = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fn_rate is None:
            self.fn_rate = WelfordAccumulator()
        if self.fp_rate is None:
            self.fp_rate = WelfordAccumulator()

    @classmethod
    def from_results(
        cls, shard: int, results: Sequence[CellResult]
    ) -> "ShardStreamState":
        """Fold one shard's cell results into a fresh state."""
        state = cls(shard=shard)
        for result in results:
            counts = result.counts
            state.cells += 1
            state.fn_failures += counts.cancer_failures
            state.fn_trials += counts.cancer_trials
            state.fp_failures += counts.healthy_failures
            state.fp_trials += counts.healthy_trials
            if counts.cancer_trials:
                state.fn_rate.add(counts.cancer_failures / counts.cancer_trials)
            if counts.healthy_trials:
                state.fp_rate.add(counts.healthy_failures / counts.healthy_trials)
        return state

    def merge(self, other: "ShardStreamState") -> "ShardStreamState":
        """Fold another shard's state in (in place; returns self)."""
        if not isinstance(other, ShardStreamState):
            raise SimulationError(
                f"cannot merge {type(other).__name__} into ShardStreamState"
            )
        self.cells += other.cells
        self.fn_failures += other.fn_failures
        self.fn_trials += other.fn_trials
        self.fp_failures += other.fp_failures
        self.fp_trials += other.fp_trials
        self.fn_rate.merge(other.fn_rate)
        self.fp_rate.merge(other.fp_rate)
        return self

    def as_dict(self) -> dict[str, Any]:
        """A JSON-ready summary (pooled rates + per-cell dispersion)."""
        return {
            "shard": self.shard,
            "cells": self.cells,
            "fn_failures": self.fn_failures,
            "fn_trials": self.fn_trials,
            "fp_failures": self.fp_failures,
            "fp_trials": self.fp_trials,
            "fn_rate": (
                self.fn_failures / self.fn_trials if self.fn_trials else None
            ),
            "fp_rate": (
                self.fp_failures / self.fp_trials if self.fp_trials else None
            ),
            "fn_rate_per_cell": self.fn_rate.state(),
            "fp_rate_per_cell": self.fp_rate.state(),
        }


@dataclass(frozen=True)
class SweepResult:
    """Everything a finished (or interrupted) sweep run produced.

    Attributes:
        plan: The executed plan.
        results: Cell results in plan order (partial under ``max_shards``).
        executed: Cells computed by this run.
        skipped: Cells restored from the journal instead of recomputed.
        level: Confidence level used by :meth:`evaluations`.
    """

    plan: SweepPlan
    results: tuple[CellResult, ...]
    executed: int
    skipped: int
    level: float = 0.95

    @property
    def complete(self) -> bool:
        """Whether every planned cell has a result."""
        return len(self.results) == len(self.plan)

    @property
    def shard_states(self) -> tuple[ShardStreamState, ...]:
        """Per-shard mergeable streaming summaries, in shard order.

        One state per shard whose cells all have results, folded from
        those results in the shard's cell order — executed and
        journal-restored cells alike, so the states of a resumed run
        equal an uninterrupted run's.
        """
        by_index = {result.index: result for result in self.results}
        states = []
        for shard in self.plan.shards:
            indices = [planned.index for planned in shard.cells()]
            if all(index in by_index for index in indices):
                states.append(
                    ShardStreamState.from_results(
                        shard.index, [by_index[index] for index in indices]
                    )
                )
        return tuple(states)

    def evaluations(self) -> dict[str, SystemEvaluation]:
        """Per-cell evaluations keyed by cell id."""
        return {
            result.cell_id: result.evaluation(self.level)
            for result in self.results
        }

    def rows(self) -> list[dict[str, Any]]:
        """Flat per-cell rows for the consolidated analysis report.

        Each row carries the cell's axis values plus its raw counts —
        the input shape :func:`repro.analysis.report.build_sweep_summary`
        consumes.
        """
        by_id = {planned.cell_id: planned for planned in self.plan.cells()}
        rows = []
        for result in self.results:
            planned = by_id[result.cell_id]
            cell = planned.cell
            rows.append(
                {
                    "cell_id": result.cell_id,
                    "seed": result.seed,
                    "population": cell.workload.population,
                    "profile": cell.workload.profile,
                    "system": cell.system.kind,
                    "bias": cell.system.bias,
                    "dynamics": cell.system.dynamics,
                    "operating_point": cell.system.operating_point,
                    "replicate": cell.replicate,
                    "fn_failures": result.counts.cancer_failures,
                    "fn_trials": result.counts.cancer_trials,
                    "fp_failures": result.counts.healthy_failures,
                    "fp_trials": result.counts.healthy_trials,
                }
            )
        return rows

    def stream_state(self) -> ShardStreamState:
        """All shard states folded into one global state.

        The integer totals are merge-order invariant (exact sums); the
        per-cell rate moments match any fold order to floating-point
        rounding.
        """
        merged = ShardStreamState()
        for state in self.shard_states:
            merged.merge(state)
        return merged

    def streaming_summary(self) -> dict[str, Any]:
        """The merged shard states as one consolidated JSON-ready row.

        Complements :meth:`rows` + ``build_sweep_summary``: the same
        pooled counts, but produced by folding the per-shard streaming
        states instead of re-scanning cell results — the shape a live
        progress consumer reads mid-run.
        """
        summary = self.stream_state().as_dict()
        summary.pop("shard")
        summary["shards"] = len(self.shard_states)
        return summary


# ---------------------------------------------------------------------------
# journal


def _journal_header(plan: SweepPlan) -> dict[str, Any]:
    return {
        "kind": "header",
        "schema": JOURNAL_SCHEMA_VERSION,
        "plan": plan.fingerprint,
        "grid": plan.grid.name,
        "seed": plan.seed,
        "chunk_size": plan.chunk_size,
        "cells": len(plan),
    }


def _load_journal(path: str | Path, plan: SweepPlan) -> dict[str, CellResult] | None:
    """Completed cells recorded in a journal, or ``None`` when it has no
    entries (missing, empty, or only a torn first line).

    Entry kinds other than ``cell`` after the header are skipped.

    Raises:
        SimulationError: when the journal belongs to a different plan
            (grid, seed, or chunking changed) or is structurally invalid.
    """
    entries = load_journal_entries(path)
    if not entries:
        return None
    header = entries[0]
    if header.get("kind") != "header":
        raise SimulationError(
            f"journal {path} has no header line; not a sweep journal"
        )
    if header.get("schema") != JOURNAL_SCHEMA_VERSION:
        raise SimulationError(
            f"journal {path} has schema {header.get('schema')!r}; "
            f"this build reads schema {JOURNAL_SCHEMA_VERSION}"
        )
    if header.get("plan") != plan.fingerprint:
        raise SimulationError(
            f"journal {path} was written by a different plan "
            f"(fingerprint {header.get('plan')!r} != {plan.fingerprint!r}); "
            "refusing to mix results — use a fresh journal or the original "
            "grid, seed, and chunking"
        )
    completed: dict[str, CellResult] = {}
    for entry in entries[1:]:
        if entry.get("kind") == "cell":
            result = CellResult.from_entry(entry)
            completed[result.cell_id] = result
    return completed


# ---------------------------------------------------------------------------
# entry points


def run_sweep(
    grid: ScenarioGrid,
    *,
    seed: int,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
    workers: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    shard_size: int = DEFAULT_SHARD_SIZE,
    fuse_limit: int = DEFAULT_FUSE_LIMIT,
    journal: str | Path | None = None,
    resume: bool = False,
    max_shards: int | None = None,
    runtime: EngineRuntime | None = None,
    obs: Instrumentation | None = None,
) -> SweepResult:
    """Compile a grid and execute it: the sweep engine's main entry point.

    Args:
        grid: The scenario grid.
        seed: Master seed; every cell's recorded seed derives from it,
            and any cell is reproducible standalone from that recorded
            seed (:func:`reproduce_cell`).
        classifier: Per-class breakdown criterion (single class when
            omitted), shared by every cell.
        level: Confidence level of the per-cell intervals.
        workers: Worker processes of the runtime owned for this run.
            ``1`` runs everything in-process; more fan fused dispatches
            out over a pool reading the workload plane from shared
            memory.  Results are identical at every worker count.
        chunk_size: Chunk size all cells evaluate with (results depend
            only on ``(seed, chunk_size)``).
        shard_size: Checkpoint granularity (cells per journalled shard).
        fuse_limit: Maximum cells per fused dispatch.
        journal: JSONL checkpoint path; each completed shard appends its
            results.  ``None`` disables checkpointing.
        resume: Replay ``journal`` (verifying the plan fingerprint) and
            skip already-completed cells.
        max_shards: Execute at most this many (non-empty) shards this
            run, then return a partial result — interruption made
            deterministic, for tests and budgeted runs.
        runtime: An existing runtime to execute on (its worker count
            wins over ``workers``); the caller keeps ownership.  With
            ``None``, a runtime is created and closed internally.
        obs: Instrumentation to record into (ambient resolution when
            ``None``).

    Raises:
        SimulationError: on invalid arguments, a journal that exists
            while ``resume`` is false, or a journal from a different
            plan.
    """
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers!r}")
    if max_shards is not None and max_shards < 0:
        raise SimulationError(f"max_shards must be >= 0, got {max_shards!r}")
    if journal is None and resume:
        raise SimulationError("resume=True requires a journal path")
    plan = compile_grid(
        grid,
        seed=seed,
        chunk_size=chunk_size,
        shard_size=shard_size,
        fuse_limit=fuse_limit,
    )
    instrumentation = obs if obs is not None else get_instrumentation()
    own_runtime = runtime is None
    if runtime is None:
        runtime = EngineRuntime(
            workers=workers,
            max_cached_workloads=max(4, len(plan.workloads)),
            obs=instrumentation,
        )
    try:
        return _execute_plan(
            plan,
            classifier=classifier,
            level=level,
            runtime=runtime,
            journal=journal,
            resume=resume,
            max_shards=max_shards,
            obs=instrumentation,
        )
    finally:
        if own_runtime:
            runtime.close()


def resume_sweep(
    grid: ScenarioGrid,
    *,
    seed: int,
    journal: str | Path,
    **kwargs: Any,
) -> SweepResult:
    """Resume an interrupted sweep from its journal.

    Sugar for :func:`run_sweep` with ``resume=True``: the grid and seed
    must match the interrupted run (the journal's recorded plan
    fingerprint is verified), completed cells are restored without
    recomputation, and only the remainder executes.
    """
    return run_sweep(grid, seed=seed, journal=journal, resume=True, **kwargs)


def _execute_plan(
    plan: SweepPlan,
    *,
    classifier: CaseClassifier | None,
    level: float,
    runtime: EngineRuntime,
    journal: str | Path | None,
    resume: bool,
    max_shards: int | None,
    obs: Instrumentation,
) -> SweepResult:
    """Walk the plan's shards; the shared body of run/resume."""
    completed: dict[str, CellResult] = {}
    needs_header = journal is not None
    if journal is not None and Path(journal).exists():
        if not resume:
            raise SimulationError(
                f"journal {journal} already exists; pass resume=True to "
                "continue it or choose a fresh path"
            )
        loaded = _load_journal(journal, plan)
        if loaded is not None:
            completed, needs_header = loaded, False

    prepared: dict[str, PreparedWorkload] = {}
    results: dict[int, CellResult] = {}
    executed = 0
    skipped = 0
    executed_shards = 0
    planned_by_index: dict[int, PlannedCell] = {
        planned.index: planned for planned in plan.cells()
    }

    with obs.span(
        "sweep.run",
        grid=plan.grid.name,
        cells=len(plan),
        shards=len(plan.shards),
        workloads=len(plan.workloads),
    ):
        if needs_header:
            append_journal_entries(journal, [_journal_header(plan)])
        for shard in plan.shards:
            pending = [
                planned
                for planned in shard.cells()
                if planned.cell_id not in completed
            ]
            for planned in shard.cells():
                if planned.cell_id in completed:
                    results[planned.index] = completed[planned.cell_id]
                    skipped += 1
                    obs.count("sweep.cells.skipped")
            if not pending:
                continue
            if max_shards is not None and executed_shards >= max_shards:
                break
            with obs.span("sweep.shard", shard=shard.index, cells=len(pending)):
                shard_results = _execute_shard(
                    plan, shard, pending, prepared, classifier, runtime, obs
                )
            for result in shard_results:
                results[result.index] = result
                executed += 1
                obs.count("sweep.cells.completed")
            if journal is not None:
                append_journal_entries(
                    journal, [result.to_entry(shard.index) for result in shard_results]
                )
            executed_shards += 1
            obs.count("sweep.shards.completed")
            obs.mark("sweep.shard.completed", shard.index)
            obs.gauge("sweep.progress", len(results) / len(plan))
        obs.gauge("sweep.cells.done", len(results))
    ordered = tuple(results[index] for index in sorted(results))
    return SweepResult(
        plan=plan,
        results=ordered,
        executed=executed,
        skipped=skipped,
        level=level,
    )


def _prepared_workload(
    plan: SweepPlan,
    key: str,
    prepared: dict[str, PreparedWorkload],
    classifier: CaseClassifier | None,
    runtime: EngineRuntime,
    obs: Instrumentation,
) -> PreparedWorkload:
    """One distinct workload, built once per run and prepared on the runtime."""
    if key in prepared:
        obs.count("sweep.workloads.reused")
        return prepared[key]
    with obs.span("sweep.workload", key=key):
        prepared[key] = runtime.prepare(plan.workloads[key].build(), classifier)
    obs.count("sweep.workloads.built")
    return prepared[key]


def _build_cell_work(planned: PlannedCell) -> FusedItem:
    """Build one cell's fresh system and wrap it as a fused item."""
    system = planned.cell.system.build(planned.seed)
    try:
        return build_fused_item(planned.index, system, planned.seed)
    except SimulationError as exc:
        raise SimulationError(f"cell {planned.cell_id!r}: {exc}") from exc


def _execute_shard(
    plan: SweepPlan,
    shard: Shard,
    pending: list[PlannedCell],
    prepared: dict[str, PreparedWorkload],
    classifier: CaseClassifier | None,
    runtime: EngineRuntime,
    obs: Instrumentation,
) -> list[CellResult]:
    """Execute one shard's pending cells as fused dispatches."""
    pending_ids = {planned.cell_id for planned in pending}
    tasks: list[FusedTask] = []
    task_meta: list[list[PlannedCell]] = []
    for batch in shard.batches:
        cells = [
            planned for planned in batch.cells if planned.cell_id in pending_ids
        ]
        if not cells:
            continue
        ready = _prepared_workload(
            plan, batch.workload_key, prepared, classifier, runtime, obs
        )
        items = tuple(_build_cell_work(planned) for planned in cells)
        tasks.append(ready.task(plan.chunk_size, items))
        task_meta.append(cells)
        obs.count("sweep.dispatches")
    outputs = runtime.run_fused(tasks)

    shard_results: list[CellResult] = []
    for cells, output in zip(task_meta, outputs):
        by_index = {planned.index: planned for planned in cells}
        class_names = prepared[cells[0].workload_key].class_names
        for row in output:
            planned = by_index[row[0]]
            shard_results.append(
                CellResult(
                    index=planned.index,
                    cell_id=planned.cell_id,
                    seed=planned.seed,
                    system_name=planned.cell.system.label(),
                    workload_name=planned.workload_key,
                    counts=FusedCounts.from_row(row, class_names),
                )
            )
    shard_results.sort(key=lambda result: result.index)
    return shard_results


def reproduce_cell(
    plan: SweepPlan,
    cell_id: str,
    *,
    classifier: CaseClassifier | None = None,
    level: float = 0.95,
) -> SystemEvaluation:
    """Re-evaluate one cell standalone from its recorded seed.

    Builds the cell's workload and system from their specs and drives
    them through :func:`~repro.engine.executor.evaluate_system_batch`
    with the recorded ``(seed, chunk_size)`` — the independent path the
    determinism contract promises is bit-identical to the fused sweep.
    """
    planned = plan.cell_by_id(cell_id)
    workload = planned.cell.workload.build()
    system = planned.cell.system.build(planned.seed)
    return evaluate_system_batch(
        system,
        workload,
        classifier,
        level,
        seed=planned.seed,
        chunk_size=plan.chunk_size,
    )

