"""The adaptive reader's chunk kernel is linear in the chunk length.

``advance_adaptive_chunk`` speculates over a bounded window that doubles
while no failure is caught and resets after a catch, so a long chunk
costs O(n + catches * window).  Speculating over the whole rest of the
chunk after every catch made it O(n * catches): about 10x the per-case
cost at 16k cases as at 1k.  The bound below is loose enough for a
shared host and tight enough to catch that regression.
"""

import time

import numpy as np

from repro.cadt import Cadt, DetectionAlgorithm
from repro.reader import MILD_BIAS, AdaptiveReader, AdaptiveTrust, ReaderModel
from repro.screening import routine_screening_population, trial_workload
from repro.system import AssistedReading

SMALL, LARGE = 1_000, 16_000
REPEATS = 3


def make_adaptive():
    base = ReaderModel(bias=MILD_BIAS, name="r", seed=61)
    trust = AdaptiveTrust(growth_rate=0.02, failure_penalty=0.5)
    return AssistedReading(
        AdaptiveReader(base, trust, seed=62), Cadt(DetectionAlgorithm(), seed=63)
    )


def us_per_case(arrays):
    best = float("inf")
    for _ in range(REPEATS):
        system = make_adaptive()
        state = system.stream_state()
        start = time.perf_counter()
        system.advance_stream(arrays, state, rng=np.random.default_rng(5))
        best = min(best, time.perf_counter() - start)
    return best / len(arrays) * 1e6


def test_per_case_cost_does_not_grow_with_the_chunk():
    population = routine_screening_population(seed=64)
    small = trial_workload(population, SMALL, cancer_fraction=0.3).to_arrays()
    large = trial_workload(population, LARGE, cancer_fraction=0.3).to_arrays()
    assert us_per_case(large) < 2 * us_per_case(small)


def test_windowed_speculation_matches_the_scalar_loop():
    """A chunk spanning several doubled windows and many catches decides
    every case exactly as the per-case loop does."""
    workload = trial_workload(routine_screening_population(seed=65), 3_000, cancer_fraction=0.3)
    scalar_system = make_adaptive()
    scalar = [scalar_system.decide(case).recall for case in workload.cases]
    system = make_adaptive()
    decisions, state = system.advance_stream(workload.to_arrays(), system.stream_state())
    assert decisions.recall.tolist() == scalar
    assert scalar_system.reader.trust.caught_failures > 10
    assert float(state.trust[0]) == scalar_system.reader.trust.trust
    assert int(state.caught_failures[0]) == scalar_system.reader.trust.caught_failures
    assert int(state.observed_successes[0]) == scalar_system.reader.trust.observed_successes
