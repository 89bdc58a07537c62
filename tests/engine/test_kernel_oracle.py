"""Pin the engine's one kernel against an independent reference loop.

Every engine path — ``evaluate_system_batch``, ``EngineRuntime``, sweeps,
the service — now runs the same fused kernel, so comparing them with
each other cannot catch a kernel bug.  This module keeps an oracle that
shares none of the kernel's code: a plain chunk loop over
``decide_batch`` / ``advance_stream`` with generators from
``SeedSequence(seed).spawn``, tallied case class by case class through
:meth:`FailureTally.record_batch` over labels from the classifier's
per-case ``classify``.  Multi-chunk seeded batch and stream runs must
match it in-process and pooled (where a batch item's chunks are split
across workers and a stream moves whole to one worker).  The scalar
``evaluate_system`` stays the anchor for single-chunk seeded and
unseeded serial runs (``tests/engine/test_equivalence.py``).
"""

import numpy as np
import pytest

from repro.engine import EngineRuntime, evaluate_system_batch
from repro.engine.fused import (
    FusedCounts,
    build_fused_item,
    cancer_classes,
    run_fused_batch,
)
from repro.screening import SubtletyClassifier
from repro.system import RecallPolicy
from repro.system.simulate import FailureTally

from tests.engine.test_executor import make_system, make_workload
from tests.engine.test_multireader_equivalence import (
    make_assisted_double_system,
    make_double_system,
)
from tests.engine.test_stateful_equivalence import (
    make_adaptive_system,
    make_fatigued_system,
    reader_state,
)

SEED = 41
CHUNK = 64  # 500-case workload -> 8 chunks


def reference_evaluation(system, workload, classifier, seed, chunk_size):
    """A plain seeded chunk loop and a per-class ``record_batch`` tally."""
    arrays = workload.to_arrays()
    bounds = list(range(0, len(arrays), chunk_size)) + [len(arrays)]
    chunks = list(zip(bounds[:-1], bounds[1:]))
    assert len(chunks) > 1, "the oracle covers multi-chunk runs"
    rngs = [
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(len(chunks))
    ]
    labels = [classifier.classify(case) for case in workload.cases if case.has_cancer]
    stream = not getattr(system, "supports_batch", False)
    state = system.stream_state() if stream else None
    tally = FailureTally()
    seen = 0
    for (start, stop), rng in zip(chunks, rngs):
        chunk = arrays.chunk(start, stop)
        if stream:
            decisions, state = system.advance_stream(chunk, state, rng=rng)
        else:
            decisions = system.decide_batch(chunk, rng=rng)
        cancers = int(chunk.has_cancer.sum())
        tally.record_batch(
            chunk.has_cancer,
            np.asarray(decisions.failures(chunk.has_cancer)),
            labels[seen : seen + cancers],
        )
        seen += cancers
    if stream:
        system.commit_stream(state)
    return tally.to_evaluation(system.name, workload.name)


FACTORIES = {
    "batch": make_system,
    "fatigued": make_fatigued_system,
    "adaptive": make_adaptive_system,
    "double": lambda: make_double_system(RecallPolicy.UNANIMOUS),
    "assisted_double": lambda: make_assisted_double_system(RecallPolicy.ARBITRATION),
}
STREAM_KINDS = ("fatigued", "adaptive")


def in_process(system, workload, classifier):
    return evaluate_system_batch(
        system, workload, classifier, seed=SEED, chunk_size=CHUNK
    )


def pooled(system, workload, classifier):
    with EngineRuntime(workers=2) as runtime:
        evaluation = runtime.evaluate(
            system, workload, classifier, seed=SEED, chunk_size=CHUNK
        )
        assert runtime.pool_launches == 1  # the chunks really ran pooled
    return evaluation


def fused(system, workload, classifier):
    arrays = workload.to_arrays()
    positions, codes, classes = cancer_classes(workload, classifier, arrays)
    task = (arrays, CHUNK, positions, codes, len(classes), (build_fused_item(0, system, SEED),))
    (row,) = run_fused_batch(task)
    if row[4] is not None:
        system.commit_stream(row[4])
    names = tuple(case_class.name for case_class in classes)
    return FusedCounts.from_row(row, names).evaluation(system.name, workload.name)


@pytest.mark.parametrize("kind", sorted(FACTORIES))
@pytest.mark.parametrize("path", [in_process, pooled, fused], ids=lambda f: f.__name__)
def test_kernel_matches_the_reference_loop(kind, path):
    workload = make_workload()
    classifier = SubtletyClassifier()
    reference_system = FACTORIES[kind]()
    expected = reference_evaluation(reference_system, workload, classifier, SEED, CHUNK)
    system = FACTORIES[kind]()
    evaluation = path(system, workload, classifier)
    assert evaluation == expected
    assert list(evaluation.per_class_false_negative) == list(
        expected.per_class_false_negative
    )
    if kind in STREAM_KINDS:
        # The stream's final reader state came back to the caller's system.
        assert reader_state(system) == reader_state(reference_system)
