"""Tests for repro.core.optimize (improvement-budget allocation)."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ClassParameters,
    DemandProfile,
    ModelParameters,
    PAPER_FIELD_PROFILE,
    SequentialModel,
    optimal_improvement_allocation,
    paper_example_parameters,
)
from repro.exceptions import ParameterError

unit_floats = st.floats(min_value=0.0, max_value=1.0)


@pytest.fixture
def paper_model():
    return SequentialModel(paper_example_parameters())


class TestPaperExample:
    def test_budget_concentrates_on_difficult_class(self, paper_model):
        result = optimal_improvement_allocation(
            paper_model, PAPER_FIELD_PROFILE, math.log(10.0)
        )
        factors = {c.name: f for c, f in result.factors.items()}
        assert factors["difficult"] > 5.0
        assert factors["difficult"] > factors["easy"]

    def test_beats_uniform_spend(self, paper_model):
        result = optimal_improvement_allocation(
            paper_model, PAPER_FIELD_PROFILE, math.log(10.0)
        )
        assert result.optimal_failure_probability <= result.uniform_failure_probability
        assert result.gain_over_uniform >= 0.0

    def test_beats_paper_all_on_difficult_option(self, paper_model):
        """With the freedom to split, the optimum is at least as good as
        Table 3's best single-class option (x10 on difficult: 0.1706)."""
        result = optimal_improvement_allocation(
            paper_model, PAPER_FIELD_PROFILE, math.log(10.0)
        )
        all_on_difficult = paper_model.with_machine_improved(
            10.0, ["difficult"]
        ).system_failure_probability(PAPER_FIELD_PROFILE)
        assert result.optimal_failure_probability <= all_on_difficult + 1e-12

    def test_budget_fully_spent(self, paper_model):
        result = optimal_improvement_allocation(
            paper_model, PAPER_FIELD_PROFILE, math.log(10.0)
        )
        spent = sum(math.log(f) for f in result.factors.values())
        assert spent == pytest.approx(math.log(10.0), abs=1e-9)

    def test_improvement_positive(self, paper_model):
        result = optimal_improvement_allocation(
            paper_model, PAPER_FIELD_PROFILE, math.log(2.0)
        )
        assert result.improvement > 0


class TestStructure:
    def test_zero_importance_class_gets_nothing(self):
        model = SequentialModel(
            ModelParameters(
                {
                    "useful": ClassParameters(0.3, 0.8, 0.2),
                    "indifferent": ClassParameters(0.5, 0.3, 0.3),  # t = 0
                }
            )
        )
        profile = DemandProfile({"useful": 0.5, "indifferent": 0.5})
        result = optimal_improvement_allocation(model, profile, math.log(4.0))
        factors = {c.name: f for c, f in result.factors.items()}
        assert factors["indifferent"] == 1.0
        assert factors["useful"] == pytest.approx(4.0)

    def test_water_filling_equalises_post_relevance(self):
        """Active classes end with equal p(x)*PMf(x)*t(x)/k."""
        model = SequentialModel(
            ModelParameters(
                {
                    "a": ClassParameters(0.4, 0.9, 0.1),
                    "b": ClassParameters(0.2, 0.6, 0.2),
                    "c": ClassParameters(0.1, 0.5, 0.3),
                }
            )
        )
        profile = DemandProfile({"a": 0.3, "b": 0.4, "c": 0.3})
        result = optimal_improvement_allocation(model, profile, 3.0)
        post = []
        for case_class, factor in result.factors.items():
            params = model.parameters[case_class]
            relevance = (
                profile[case_class]
                * params.p_machine_failure
                * params.importance_index
            )
            if factor > 1.0 + 1e-9:
                post.append(relevance / factor)
        assert len(post) >= 2
        assert max(post) == pytest.approx(min(post), rel=1e-6)

    def test_large_budget_spreads_to_all_relevant_classes(self, paper_model):
        result = optimal_improvement_allocation(
            paper_model, PAPER_FIELD_PROFILE, math.log(1e6)
        )
        assert all(f > 1.0 for f in result.factors.values())

    def test_no_relevant_class_rejected(self):
        indifferent = SequentialModel(
            ModelParameters({"x": ClassParameters(0.3, 0.2, 0.2)})
        )
        with pytest.raises(ParameterError):
            optimal_improvement_allocation(
                indifferent, DemandProfile({"x": 1.0}), 1.0
            )

    def test_invalid_budget_rejected(self, paper_model):
        with pytest.raises(ParameterError):
            optimal_improvement_allocation(paper_model, PAPER_FIELD_PROFILE, 0.0)
        with pytest.raises(ParameterError):
            optimal_improvement_allocation(
                paper_model, PAPER_FIELD_PROFILE, float("inf")
            )


def random_model(n, seed=5):
    rng = np.random.default_rng(seed)
    params, weights = {}, {}
    for index in range(n):
        low = float(rng.uniform(0, 0.5))
        high = float(min(1.0, low + rng.uniform(0, 0.5)))
        params[f"c{index}"] = ClassParameters(float(rng.uniform(0, 1)), high, low)
        weights[f"c{index}"] = float(rng.uniform(0.1, 1.0))
    return SequentialModel(ModelParameters(params)), DemandProfile.from_weights(weights)


class TestScaling:
    def test_allocation_time_grows_near_linearly_in_classes(self):
        """4x the classes must cost well under 16x (the quadratic ratio).

        Best-of-5 timings damp scheduler noise; a linear allocation
        measures ~4x, one parameter-table rebuild per class ~15x.
        """

        def best_time(n):
            model, profile = random_model(n)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                optimal_improvement_allocation(model, profile, math.log(100.0))
                times.append(time.perf_counter() - start)
            return min(times)

        ratio = best_time(1600) / best_time(400)
        assert ratio < 8.0, f"4x classes took {ratio:.1f}x the time"


class TestOptimalityProperty:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.01, max_value=0.99),
                unit_floats,
                unit_floats,
                st.floats(min_value=0.05, max_value=1.0),
            ),
            min_size=2,
            max_size=5,
        ),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40)
    def test_never_worse_than_uniform_or_single_class(self, rows, budget):
        params = {}
        weights = {}
        for index, (pmf, hf_mf, hf_ms, weight) in enumerate(rows):
            low, high = sorted((hf_mf, hf_ms))
            params[f"c{index}"] = ClassParameters(pmf, high, low)  # t >= 0
            weights[f"c{index}"] = weight
        model = SequentialModel(ModelParameters(params))
        profile = DemandProfile.from_weights(weights)
        try:
            result = optimal_improvement_allocation(model, profile, budget)
        except ParameterError:
            return  # all-zero relevance draws are legitimately rejected
        assert (
            result.optimal_failure_probability
            <= result.uniform_failure_probability + 1e-9
        )
        # Also at least as good as dumping the whole budget on any single class.
        for case_class in profile.support:
            relevance = (
                profile[case_class]
                * model.parameters[case_class].p_machine_failure
                * model.parameters[case_class].importance_index
            )
            if relevance <= 0:
                continue
            single = model.with_machine_improved(
                math.exp(budget), [case_class]
            ).system_failure_probability(profile)
            assert result.optimal_failure_probability <= single + 1e-9
