"""A journal torn by a mid-write kill must resume cleanly, however often.

A kill can cut the journal's final line anywhere: inside a shard's
cell entries, or inside the header written first.  The loader drops
that torn tail; the next append must cut it off (not write after it),
or the torn text and the next batch's first line merge into one
malformed line mid-file that every later resume refuses.  Each test
tears a journal, resumes shard by shard until the sweep completes, and
requires the per-cell results of an uninterrupted sweep, bit for bit.
"""

import json

from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, resume_sweep, run_sweep
from repro.trial.storage import append_journal_entries, load_journal_entries

GRID = ScenarioGrid(
    name="torn",
    populations=("routine",),
    num_cases=40,
    systems=("unaided", "assisted"),
    biases=("none", "strong"),
    dynamics=("none", "adaptive"),
    operating_points=(0.0,),
    replicates=1,
)
SEED = 29
SHARD_SIZE = 2


def _common():
    return dict(seed=SEED, classifier=SubtletyClassifier(), shard_size=SHARD_SIZE)


def _resume_to_completion(journal):
    """Resume one shard at a time; every call must load the journal."""
    for _ in range(len(GRID)):
        result = resume_sweep(GRID, journal=journal, max_shards=1, **_common())
        if result.complete:
            return result
    raise AssertionError("the sweep never completed")


def test_torn_cell_line_then_repeated_resumes_match_uninterrupted(tmp_path):
    uninterrupted = run_sweep(GRID, **_common())
    journal = tmp_path / "sweep.jsonl"
    run_sweep(GRID, journal=journal, max_shards=2, **_common())
    data = journal.read_bytes()
    journal.write_bytes(data[:-40])  # a kill mid-way through the last cell line

    resumed = _resume_to_completion(journal)

    assert resumed.evaluations() == uninterrupted.evaluations()
    # Every line of the finished journal parses: the torn text is gone.
    for line in journal.read_text().splitlines():
        json.loads(line)


def test_torn_header_then_resume_matches_uninterrupted(tmp_path):
    uninterrupted = run_sweep(GRID, **_common())
    journal = tmp_path / "sweep.jsonl"
    run_sweep(GRID, journal=journal, max_shards=1, **_common())
    header = journal.read_bytes().split(b"\n", 1)[0]
    journal.write_bytes(header[: len(header) // 2])  # killed writing the header

    assert load_journal_entries(journal) == []
    resumed = _resume_to_completion(journal)

    assert resumed.evaluations() == uninterrupted.evaluations()
    assert load_journal_entries(journal)[0]["kind"] == "header"


def test_whole_entry_missing_its_newline_is_kept(tmp_path):
    journal = tmp_path / "j.jsonl"
    journal.write_text('{"a": 1}\n{"b": 2}')
    append_journal_entries(journal, [{"c": 3}])
    assert load_journal_entries(journal) == [{"a": 1}, {"b": 2}, {"c": 3}]


def test_torn_tail_longer_than_a_scan_block_is_cut(tmp_path):
    journal = tmp_path / "j.jsonl"
    journal.write_text('{"a": 1}\n{"b": "' + "x" * 10_000)
    append_journal_entries(journal, [{"c": 3}])
    assert journal.read_text() == '{"a": 1}\n{"c": 3}\n'
