"""Sharded sweep engine: scenario grids compiled to fused engine dispatches.

A :class:`ScenarioGrid` declares axes over the study's design space —
reader population, trial vs. field demand profile, system kind, reader
bias, temporal dynamics, CADT operating point, replicates — and
:func:`compile_grid` turns its cross product into an execution plan
that deduplicates shared workloads, fuses cells sharing arrays into
batched dispatches, and shards the whole sweep into journalled
checkpoints.  :func:`run_sweep` executes the plan (serial or over a
persistent shared-memory runtime) and :func:`resume_sweep` picks an
interrupted run back up without recomputing completed cells.

Every cell's result is bit-identical to evaluating it standalone with
its recorded seed (:func:`reproduce_cell`), at any worker count, fused
or not, interrupted or not.
"""

from .grid import (
    BIASES,
    DYNAMICS,
    GRID_SCHEMA_VERSION,
    POPULATIONS,
    PROFILES,
    SYSTEM_KINDS,
    ScenarioCell,
    ScenarioGrid,
    SystemSpec,
    WorkloadSpec,
)
from .plan import (
    DEFAULT_FUSE_LIMIT,
    DEFAULT_SHARD_SIZE,
    FusedBatch,
    PlannedCell,
    Shard,
    SweepPlan,
    compile_grid,
)
from .runner import (
    JOURNAL_SCHEMA_VERSION,
    CellResult,
    ShardStreamState,
    SweepResult,
    reproduce_cell,
    resume_sweep,
    run_sweep,
)

__all__ = [
    "GRID_SCHEMA_VERSION",
    "JOURNAL_SCHEMA_VERSION",
    "POPULATIONS",
    "PROFILES",
    "SYSTEM_KINDS",
    "BIASES",
    "DYNAMICS",
    "WorkloadSpec",
    "SystemSpec",
    "ScenarioCell",
    "ScenarioGrid",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_FUSE_LIMIT",
    "PlannedCell",
    "FusedBatch",
    "Shard",
    "SweepPlan",
    "compile_grid",
    "CellResult",
    "ShardStreamState",
    "SweepResult",
    "run_sweep",
    "resume_sweep",
    "reproduce_cell",
]
