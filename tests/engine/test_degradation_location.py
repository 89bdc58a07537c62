"""Degradation warnings point at the caller's line, not into the engine.

``RuntimeDegradationWarning`` is raised deep inside ``EngineRuntime``;
whichever engine entry point the call came through — the runtime
itself or the executor functions that open one — the warning must name
the first frame outside ``repro.engine``: here, this test file.
"""

import warnings

import pytest

from repro.cadt import Cadt, DetectionAlgorithm
from repro.engine import EngineRuntime, compare_systems_batch, evaluate_system_batch
from repro.exceptions import RuntimeDegradationWarning
from repro.reader import MILD_BIAS, ReaderModel
from repro.system import AssistedReading

from tests.engine.test_executor import make_workload


def drifting_system():
    return AssistedReading(
        ReaderModel(bias=MILD_BIAS, name="r", seed=3),
        Cadt(DetectionAlgorithm(), drift_per_case=5e-3, seed=4),
    )


def through_runtime(workload):
    with EngineRuntime(workers=1) as runtime:
        runtime.evaluate(drifting_system(), workload)


def through_evaluate(workload):
    evaluate_system_batch(drifting_system(), workload)


def through_compare(workload):
    compare_systems_batch([drifting_system()], workload)


@pytest.mark.parametrize(
    "route", [through_runtime, through_evaluate, through_compare], ids=lambda f: f.__name__
)
def test_warning_names_the_calling_file(route):
    workload = make_workload(n=60)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        route(workload)
    (warning,) = [w for w in caught if issubclass(w.category, RuntimeDegradationWarning)]
    assert "scalar_system" in str(warning.message)
    assert warning.filename == __file__
