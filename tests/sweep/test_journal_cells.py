"""The journalled cell is a sweep's only stored result.

A journal holds one header line and cell lines; per-shard streaming
summaries are folded from the cells, so a resumed run's
``shard_states`` equal an uninterrupted run's, and lines of other kinds
(such as the ``shard_state`` lines older journals carry) are skipped.
"""

import json

from repro.sweep import ScenarioGrid, resume_sweep, run_sweep
from repro.trial.storage import load_journal_entries

GRID = ScenarioGrid(
    name="journal-cells",
    populations=("routine", "symptomatic"),
    num_cases=40,
    systems=("unaided", "assisted"),
    biases=("none", "mild"),
    dynamics=("none", "adaptive"),
    operating_points=(0.0,),
    replicates=1,
)
SEED = 5
SHARD_SIZE = 3


def state_fields(state):
    """Every field of a shard state, the Welford moments exactly."""
    return (
        state.shard,
        state.cells,
        state.fn_failures,
        state.fn_trials,
        state.fp_failures,
        state.fp_trials,
        (state.fn_rate.count, state.fn_rate.mean, state.fn_rate.m2),
        (state.fp_rate.count, state.fp_rate.mean, state.fp_rate.m2),
    )


def all_state_fields(result):
    return [state_fields(state) for state in result.shard_states]


def stale_shard_state_line(state):
    """A ``shard_state`` line in the older journal format, its values
    deliberately not the ones the cells give."""
    return {
        "kind": "shard_state",
        "schema": 1,
        "shard": state.shard,
        "cells": state.cells + 100,
        "fn_failures": state.fn_failures + 1,
        "fn_trials": state.fn_trials,
        "fp_failures": state.fp_failures,
        "fp_trials": state.fp_trials,
        "fn_rate": {"count": 1, "mean": 0.5, "m2": 0.0},
        "fp_rate": {
            "count": state.fp_rate.count,
            "mean": state.fp_rate.mean,
            "m2": state.fp_rate.m2,
        },
    }


def test_journal_holds_only_a_header_and_cell_lines(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    result = run_sweep(GRID, seed=SEED, shard_size=SHARD_SIZE, journal=journal)
    kinds = [entry["kind"] for entry in load_journal_entries(journal)]
    assert kinds == ["header"] + ["cell"] * len(result.plan)


def test_shard_states_cover_only_complete_shards(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    partial = run_sweep(
        GRID, seed=SEED, shard_size=SHARD_SIZE, journal=journal, max_shards=2
    )
    fresh = run_sweep(GRID, seed=SEED, shard_size=SHARD_SIZE)
    assert [state.shard for state in partial.shard_states] == [0, 1]
    assert all_state_fields(partial) == all_state_fields(fresh)[:2]


def test_older_shard_state_lines_are_skipped_on_resume(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    partial = run_sweep(
        GRID, seed=SEED, shard_size=SHARD_SIZE, journal=journal, max_shards=2
    )
    # Rewrite the journal as an older build laid it out: each shard's
    # cell lines followed by its shard_state line.
    header, *entries = load_journal_entries(journal)
    cells = [entry for entry in entries if entry["kind"] == "cell"]
    lines = [header]
    for state in partial.shard_states:
        lines += [cell for cell in cells if cell["shard"] == state.shard]
        lines.append(stale_shard_state_line(state))
    journal.write_text("".join(json.dumps(line) + "\n" for line in lines))

    resumed = resume_sweep(GRID, seed=SEED, journal=journal, shard_size=SHARD_SIZE)
    fresh = run_sweep(GRID, seed=SEED, shard_size=SHARD_SIZE)
    assert resumed.complete
    assert resumed.skipped == len(cells)
    assert resumed.results == fresh.results
    assert all_state_fields(resumed) == all_state_fields(fresh)
    assert len(resumed.shard_states) == len(fresh.plan.shards)


def test_resume_onto_an_empty_journal_writes_the_header(tmp_path):
    journal = tmp_path / "sweep.jsonl"
    journal.touch()
    first = resume_sweep(
        GRID, seed=SEED, journal=journal, shard_size=SHARD_SIZE, max_shards=1
    )
    assert load_journal_entries(journal)[0]["kind"] == "header"
    resumed = resume_sweep(GRID, seed=SEED, journal=journal, shard_size=SHARD_SIZE)
    fresh = run_sweep(GRID, seed=SEED, shard_size=SHARD_SIZE)
    assert resumed.complete
    assert resumed.skipped == first.executed > 0
    assert resumed.executed == len(GRID) - first.executed
    assert resumed.results == fresh.results
    assert resumed.evaluations() == fresh.evaluations()
    assert all_state_fields(resumed) == all_state_fields(fresh)
