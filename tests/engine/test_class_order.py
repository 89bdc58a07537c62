"""Every evaluation path reports per-class rates in one order.

The scalar loop's :class:`~repro.system.simulate.FailureTally` meets the
case classes in the order they first appear among the cancer cases, so
``SystemEvaluation.per_class_false_negative`` iterates in that order.
The dicts compare equal whatever their order, but CLI and library output
follow it — so the batch engine, the runtime, the fused kernel and the
sweep must all produce the scalar reference's order, not the
classifier's declaration order.
"""

import pytest

from repro.engine import EngineRuntime, evaluate_system_batch
from repro.engine.fused import (
    FusedCounts,
    build_fused_item,
    cancer_classes,
    run_fused_batch,
)
from repro.screening import SubtletyClassifier
from repro.sweep import ScenarioGrid, SystemSpec, WorkloadSpec, reproduce_cell, run_sweep
from repro.system import evaluate_system

SEED = 1
WORKLOAD = WorkloadSpec(population="routine", num_cases=200, population_seed=SEED)


def system():
    return SystemSpec(kind="assisted").build(SEED)


def scalar_order(workload, classifier):
    evaluation = evaluate_system(system(), workload, classifier, seed=SEED)
    return list(evaluation.per_class_false_negative)


def batch_serial(workload, classifier):
    return evaluate_system_batch(system(), workload, classifier, seed=SEED)


def batch_on_runtime(workload, classifier):
    with EngineRuntime(workers=2) as runtime:
        return evaluate_system_batch(
            system(), workload, classifier, seed=SEED, chunk_size=64, runtime=runtime
        )


def fused_kernel(workload, classifier):
    arrays = workload.to_arrays()
    positions, codes, classes = cancer_classes(workload, classifier, arrays)
    item = build_fused_item(0, system(), SEED)
    task = (arrays, 64, positions, codes, len(classes), (item,))
    (row,) = run_fused_batch(task)
    names = tuple(case_class.name for case_class in classes)
    return FusedCounts.from_row(row, names).evaluation("assisted", workload.name)


def sweep_cell(workload, classifier, reproduce=False):
    grid = ScenarioGrid(
        name="order",
        num_cases=WORKLOAD.num_cases,
        population_seed=WORKLOAD.population_seed,
    )
    result = run_sweep(grid, seed=SEED, classifier=classifier)
    (cell,) = result.results
    assert result.plan.workloads[cell.workload_name] == WORKLOAD
    if reproduce:
        return reproduce_cell(result.plan, cell.cell_id, classifier=classifier)
    return cell.evaluation()


def reproduced_cell(workload, classifier):
    return sweep_cell(workload, classifier, reproduce=True)


@pytest.mark.parametrize(
    "evaluate",
    [batch_serial, batch_on_runtime, fused_kernel, sweep_cell, reproduced_cell],
    ids=["batch-serial", "batch-runtime", "fused-kernel", "sweep-cell", "reproduce-cell"],
)
def test_per_class_order_matches_the_scalar_reference(evaluate):
    workload = WORKLOAD.build()
    classifier = SubtletyClassifier()
    expected = scalar_order(workload, classifier)
    assert len(expected) > 1  # the order is only observable with two classes
    assert list(evaluate(workload, classifier).per_class_false_negative) == expected
