"""Optimal allocation of machine-improvement effort across classes.

Section 6.2's design lesson is qualitative: "It may be more useful to
concentrate any improvements on cases for which readers have a high t(x)
(and that are somewhat frequent)."  This module makes it quantitative.

Model of effort: reducing a class's machine failure probability by a
factor ``k`` costs ``log k`` units (engineering effort buys *relative*
error reduction — each halving costs the same).  Given a total budget
``B`` of log-improvement, choose per-class factors ``k_x >= 1`` with
``sum_x log k_x <= B`` minimising

    PHf = sum_x p(x) * [ PHf|Ms(x) + (PMf(x)/k_x) * t(x) ]

Writing ``b_x = log k_x`` and ``c_x = p(x) * PMf(x) * t(x)`` (each class's
current *relevance*, the headroom contribution), the problem is the
classic water-filling form ``minimise sum c_x e^(-b_x)``: the optimum
equalises the post-improvement relevances ``c_x e^(-b_x)`` of every class
that receives effort, and classes whose relevance is already below the
water level get nothing.  Classes with ``t(x) <= 0`` never receive effort.

:func:`optimal_improvement_allocation` solves this exactly (sorting, no
iterative optimisation), and :class:`AllocationResult` reports the factors,
the predicted failure probability, and the comparison against spending the
same budget uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..exceptions import ParameterError
from .case_class import CaseClass
from .profile import DemandProfile
from .sequential import SequentialModel

__all__ = ["AllocationResult", "optimal_improvement_allocation"]


@dataclass(frozen=True)
class AllocationResult:
    """The outcome of an improvement-budget allocation.

    Attributes:
        factors: Improvement factor per class (1.0 = untouched).
        baseline_failure_probability: ``PHf`` before any improvement.
        optimal_failure_probability: ``PHf`` after the optimal allocation.
        uniform_failure_probability: ``PHf`` after spending the same
            budget uniformly across all classes with positive relevance —
            the naive comparison point.
        budget: The log-improvement budget that was allocated.
    """

    factors: Mapping[CaseClass, float]
    baseline_failure_probability: float
    optimal_failure_probability: float
    uniform_failure_probability: float
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", dict(self.factors))

    @property
    def gain_over_uniform(self) -> float:
        """How much lower the optimal ``PHf`` is than the uniform spend's."""
        return self.uniform_failure_probability - self.optimal_failure_probability

    @property
    def improvement(self) -> float:
        """Total reduction of ``PHf`` achieved by the optimal allocation."""
        return self.baseline_failure_probability - self.optimal_failure_probability


def _apply_factors(
    model: SequentialModel, factors: Mapping[CaseClass, float]
) -> SequentialModel:
    """The model with each class's ``PMf`` divided by its factor, in one
    table rebuild (a rebuild per class made allocation quadratic)."""
    return SequentialModel(
        model.parameters.transform(
            lambda case_class, params: params.with_machine_improved(factors[case_class])
            if factors.get(case_class, 1.0) > 1.0
            else params
        )
    )


def optimal_improvement_allocation(
    model: SequentialModel,
    profile: DemandProfile,
    log_budget: float,
) -> AllocationResult:
    """Water-filling allocation of a machine-improvement budget.

    Args:
        model: The current model.
        profile: Demand profile the objective is evaluated under.
        log_budget: Total budget ``B`` of natural-log improvement (e.g.
            ``math.log(10)`` buys one overall x10 somewhere, or several
            smaller reductions spread across classes).

    Returns:
        The optimal per-class factors and the resulting failure
        probabilities (optimal vs uniform vs baseline).

    Raises:
        ParameterError: if the budget is not positive, or no class has
            positive relevance (``p(x) * PMf(x) * t(x) > 0``) so machine
            improvement cannot help at all.
    """
    if not (math.isfinite(log_budget) and log_budget > 0.0):
        raise ParameterError(f"log_budget must be positive and finite, got {log_budget!r}")

    relevances: dict[CaseClass, float] = {}
    for case_class in profile.support:
        params = model.parameters[case_class]
        relevance = (
            profile[case_class] * params.p_machine_failure * params.importance_index
        )
        if relevance > 0.0:
            relevances[case_class] = relevance
    if not relevances:
        raise ParameterError(
            "no class has positive relevance p(x)*PMf(x)*t(x); machine "
            "improvement cannot reduce the system failure probability"
        )

    # Water-filling: classes active in decreasing relevance; for an active
    # set A, log(level) = (sum_i log c_i - B) / |A|; the set is correct when
    # the level lies between the smallest active and the largest inactive c.
    ordered = sorted(relevances.items(), key=lambda kv: -kv[1])
    log_c = [math.log(c) for _, c in ordered]
    chosen_level: float | None = None
    active_count = 0
    for size in range(1, len(ordered) + 1):
        level_log = (sum(log_c[:size]) - log_budget) / size
        lower_ok = level_log <= log_c[size - 1]
        upper_ok = size == len(ordered) or level_log >= log_c[size]
        if lower_ok and upper_ok:
            chosen_level = level_log
            active_count = size
            break
    if chosen_level is None:  # numerically degenerate ties: use all classes
        active_count = len(ordered)
        chosen_level = (sum(log_c) - log_budget) / active_count

    factors: dict[CaseClass, float] = {}
    for index, (case_class, _) in enumerate(ordered):
        if index < active_count:
            b = max(0.0, log_c[index] - chosen_level)
            factors[case_class] = math.exp(b)
        else:
            factors[case_class] = 1.0
    for case_class in profile.support:
        factors.setdefault(case_class, 1.0)

    baseline = model.system_failure_probability(profile)
    optimal = _apply_factors(model, factors).system_failure_probability(profile)

    uniform_factor = math.exp(log_budget / len(relevances))
    uniform_factors = {case_class: uniform_factor for case_class in relevances}
    uniform = _apply_factors(model, uniform_factors).system_failure_probability(profile)

    return AllocationResult(
        factors=factors,
        baseline_failure_probability=baseline,
        optimal_failure_probability=optimal,
        uniform_failure_probability=uniform,
        budget=log_budget,
    )
