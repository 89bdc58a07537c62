"""Multi-reader systems on the vectorized path: bit-identical to the scalar loop.

``DoubleReading`` and ``AssistedDoubleReading`` decide a batch as
per-reader ``decide_batch`` calls over one CADT output, combined by a
mask (EITHER ``a | b``, UNANIMOUS ``a & b``, ARBITRATION
``where(a == b, a, arbiter)``).  That is exact only because the scalar
``decide`` consumes a fixed number of uniforms per case — the arbiter
decides every case, not just disagreements — which these tests pin,
along with the configurations that must stay on the scalar fallback.
"""

import warnings

import numpy as np
import pytest

from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import (
    EngineRuntime,
    evaluate_system_batch,
    supports_batch,
)
from repro.engine.fused import (
    FusedCounts,
    build_fused_item,
    cancer_classes,
    run_fused_batch,
)
from repro.reader import MILD_BIAS, AdaptiveReader, ReaderModel, ReaderSkill
from repro.screening import SubtletyClassifier
from repro.system import (
    AssistedDoubleReading,
    DoubleReading,
    RecallPolicy,
    evaluate_system,
)

from tests.engine.test_equivalence import failure_counts
from tests.engine.test_executor import make_system, make_workload

SEED = 53
CHUNK = 64  # 500-case workload -> 8 chunks


def _reader(index, seed):
    return ReaderModel(
        skill=ReaderSkill(), bias=MILD_BIAS, name=f"r{index}", seed=seed + index
    )


def make_double_system(policy=RecallPolicy.EITHER, seed=SEED):
    arbiter = _reader(2, seed) if policy is RecallPolicy.ARBITRATION else None
    return DoubleReading([_reader(0, seed), _reader(1, seed)], policy, arbiter)


def make_assisted_double_system(policy=RecallPolicy.EITHER, seed=SEED):
    arbiter = _reader(2, seed) if policy is RecallPolicy.ARBITRATION else None
    return AssistedDoubleReading(
        [_reader(0, seed), _reader(1, seed)],
        Cadt(DetectionAlgorithm(), seed=seed + 100),
        policy,
        arbiter,
    )


FACTORIES = {"double": make_double_system, "assisted_double": make_assisted_double_system}


@pytest.fixture(scope="module")
def workload():
    return make_workload()


@pytest.mark.parametrize("policy", list(RecallPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", sorted(FACTORIES))
class TestBatchMatchesScalar:
    def test_supports_batch(self, kind, policy):
        assert supports_batch(FACTORIES[kind](policy))

    def test_unseeded_any_chunking(self, kind, policy, workload):
        # Private generators: the batch consumes each component's stream
        # exactly as the per-case loop does, at every chunk size.
        scalar = evaluate_system(FACTORIES[kind](policy), workload)
        batch = evaluate_system_batch(FACTORIES[kind](policy), workload, chunk_size=37)
        assert failure_counts(batch) == failure_counts(scalar)

    def test_seeded_single_chunk(self, kind, policy, workload):
        # One shared generator: the per-case split of one flat draw is
        # the interleaving the scalar loop consumes.
        scalar = evaluate_system(FACTORIES[kind](policy), workload, seed=SEED)
        batch = evaluate_system_batch(
            FACTORIES[kind](policy), workload, seed=SEED, chunk_size=len(workload)
        )
        assert failure_counts(batch) == failure_counts(scalar)

    def test_decisions_match_element_wise(self, kind, policy, workload):
        arrays = workload.to_arrays()
        scalar_system = FACTORIES[kind](policy)
        scalar = [scalar_system.decide(case) for case in workload.cases]
        batch = FACTORIES[kind](policy).decide_batch(arrays)
        assert batch.recall.tolist() == [d.recall for d in scalar]
        if kind == "double":
            assert batch.machine_failed is None
        else:
            assert batch.machine_failed.tolist() == [d.machine_failed for d in scalar]


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_seeded_pooled_run_matches_in_process(kind, workload):
    policy = RecallPolicy.ARBITRATION
    expected = evaluate_system_batch(
        FACTORIES[kind](policy), workload, seed=SEED, chunk_size=CHUNK
    )
    with EngineRuntime(workers=2) as runtime:
        pooled = runtime.evaluate(
            FACTORIES[kind](policy), workload, seed=SEED, chunk_size=CHUNK
        )
        assert runtime.pool_launches == 1  # the chunks really ran pooled
    assert pooled == expected


def test_fused_item_equals_standalone_evaluate(workload):
    """A fused task holding a double reader beside a single-reader system
    gives each item the row its standalone evaluation would."""
    classifier = SubtletyClassifier()
    arrays = workload.to_arrays()
    positions, codes, classes = cancer_classes(workload, classifier, arrays)
    double = make_double_system(RecallPolicy.ARBITRATION)
    items = (
        build_fused_item(0, make_system(), SEED),
        build_fused_item(1, double, SEED + 1),
    )
    rows = run_fused_batch((arrays, CHUNK, positions, codes, len(classes), items))
    names = tuple(case_class.name for case_class in classes)
    fused = FusedCounts.from_row(rows[1], names).evaluation(double.name, workload.name)
    standalone = evaluate_system_batch(
        make_double_system(RecallPolicy.ARBITRATION),
        workload,
        classifier,
        seed=SEED + 1,
        chunk_size=CHUNK,
    )
    assert fused == standalone


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_arbitration_consumes_a_fixed_number_of_uniforms(kind, workload):
    """Agreement or not, a case consumes the tool's 2 uniforms (assisted
    only) plus 4 (cancer) or 1 (healthy) per reader, arbiter included."""
    system = FACTORIES[kind](RecallPolicy.ARBITRATION)
    lead = 0 if kind == "double" else 2
    agreements = set()
    for index, case in enumerate(workload.cases):
        rng = np.random.default_rng(index)
        system.decide(case, rng)
        replay = np.random.default_rng(index)
        output = system.cadt.process(case, replay) if system.cadt is not None else None
        first = system.readers[0].decide(case, output, replay).recall
        second = system.readers[1].decide(case, output, replay).recall
        agreements.add(first == second)
        expected = np.random.default_rng(index)
        expected.random(lead + 3 * (4 if case.has_cancer else 1))
        assert rng.bit_generator.state == expected.bit_generator.state
    assert agreements == {True, False}


def _aliased():
    reader = _reader(0, SEED)
    return DoubleReading([reader, reader], RecallPolicy.EITHER)


def _aliased_arbiter():
    first = _reader(0, SEED)
    return DoubleReading([first, _reader(1, SEED)], RecallPolicy.ARBITRATION, first)


def _temporal():
    adaptive = AdaptiveReader(_reader(0, SEED), seed=SEED + 50)
    return AssistedDoubleReading(
        [adaptive, _reader(1, SEED)], Cadt(DetectionAlgorithm(), seed=SEED + 100)
    )


def _temporal_arbiter():
    adaptive = AdaptiveReader(_reader(2, SEED), seed=SEED + 50)
    return DoubleReading(
        [_reader(0, SEED), _reader(1, SEED)], RecallPolicy.ARBITRATION, adaptive
    )


def _drifting():
    return AssistedDoubleReading(
        [_reader(0, SEED), _reader(1, SEED)],
        Cadt(DetectionAlgorithm(), drift_per_case=5e-3, seed=SEED + 100),
    )


SCALAR_ONLY = {
    "aliased_readers": _aliased,
    "aliased_arbiter": _aliased_arbiter,
    "temporal_reader": _temporal,
    "temporal_arbiter": _temporal_arbiter,
    "drifting_cadt": _drifting,
}


@pytest.mark.parametrize("kind", SCALAR_ONLY)
def test_scalar_only_configurations_report_the_fallback(kind, workload):
    assert not supports_batch(SCALAR_ONLY[kind]())
    scalar = evaluate_system(SCALAR_ONLY[kind](), workload)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with EngineRuntime(workers=1) as runtime:
            batch = runtime.evaluate(SCALAR_ONLY[kind](), workload)
            assert runtime.degradations == frozenset({"scalar_system"})
    assert failure_counts(batch) == failure_counts(scalar)


def test_an_ignored_arbiter_does_not_block_batching():
    """Outside arbitration the arbiter never decides, so it may alias a
    reader or be temporal without forcing the scalar loop."""
    first = _reader(0, SEED)
    system = DoubleReading([first, _reader(1, SEED)], RecallPolicy.EITHER, first)
    assert supports_batch(system)
