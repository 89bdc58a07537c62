"""Per-rule fixtures: one flagging and one non-flagging case per behaviour.

Every fixture goes through :func:`repro.lint.lint_source` with an explicit
``module`` so package-scoped rules (REP002, REP005) see the module name a
real run would derive from the file path.
"""

import textwrap

from repro.lint import LintConfig, lint_source


def run(source, module="repro.cadt.algorithm", select=None):
    config = LintConfig(select=select)
    return lint_source(
        textwrap.dedent(source), path=f"{module.replace('.', '/')}.py",
        module=module, config=config,
    )


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestRep001Randomness:
    def test_flags_stdlib_random_import(self):
        findings = run("import random\n", select=("REP001",))
        assert rule_ids(findings) == ["REP001"]

    def test_flags_from_random_import(self):
        findings = run("from random import choice\n", select=("REP001",))
        assert rule_ids(findings) == ["REP001"]

    def test_flags_unseeded_default_rng(self):
        findings = run(
            """
            import numpy as np

            def make():
                return np.random.default_rng()
            """,
            select=("REP001",),
        )
        assert rule_ids(findings) == ["REP001"]
        assert "default_rng()" in findings[0].message

    def test_flags_unseeded_default_rng_via_from_import(self):
        findings = run(
            """
            from numpy.random import default_rng

            def make():
                return default_rng()
            """,
            select=("REP001",),
        )
        assert rule_ids(findings) == ["REP001"]

    def test_allows_seeded_default_rng(self):
        findings = run(
            """
            import numpy as np

            def make(seed):
                return np.random.default_rng(seed)
            """,
            select=("REP001",),
        )
        assert findings == []

    def test_allows_keyword_seeded_default_rng(self):
        findings = run(
            """
            import numpy as np

            def make(seed=None):
                return np.random.default_rng(seed=seed)
            """,
            select=("REP001",),
        )
        assert findings == []

    def test_seam_module_is_exempt(self):
        findings = run(
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """,
            module="repro._numeric",
            select=("REP001",),
        )
        assert findings == []


class TestRep002NumericSeam:
    def test_flags_math_exp_on_sampling_path(self):
        findings = run(
            """
            import math

            def accept(x):
                return math.exp(-x)
            """,
            select=("REP002",),
        )
        assert rule_ids(findings) == ["REP002"]
        assert "repro._numeric" in findings[0].message

    def test_flags_np_exp_on_sampling_path(self):
        findings = run(
            """
            import numpy as np

            def accept(x):
                return np.exp(-x)
            """,
            select=("REP002",),
        )
        assert rule_ids(findings) == ["REP002"]

    def test_flags_aliased_from_import(self):
        findings = run(
            """
            from math import exp as e

            def accept(x):
                return e(-x)
            """,
            select=("REP002",),
        )
        assert rule_ids(findings) == ["REP002"]

    def test_flags_math_sqrt_but_allows_np_sqrt(self):
        # IEEE 754 requires sqrt to be correctly rounded, so np.sqrt
        # cannot cause scalar/batch divergence; math.sqrt still signals
        # a scalar-only code shape on a sampling path.
        flagged = run("import math\nr = math.sqrt(2.0)\n", select=("REP002",))
        allowed = run("import numpy as np\nr = np.sqrt(2.0)\n", select=("REP002",))
        assert rule_ids(flagged) == ["REP002"]
        assert allowed == []

    def test_allows_numeric_seam_calls(self):
        findings = run(
            """
            from repro._numeric import exp as _exp

            def accept(x):
                return _exp(-x)
            """,
            select=("REP002",),
        )
        assert findings == []

    def test_module_outside_sampling_path_is_exempt(self):
        findings = run(
            "import math\nr = math.exp(1.0)\n",
            module="repro.core.bounds",
            select=("REP002",),
        )
        assert findings == []

    def test_numeric_seam_module_is_exempt(self):
        findings = run(
            "import numpy as np\n\n\ndef exp(x):\n    return np.exp(x)\n",
            module="repro._numeric",
            select=("REP002",),
        )
        assert findings == []


class TestRep003Validation:
    def test_flags_unvalidated_probability_parameter(self):
        findings = run(
            """
            def scale(p_failure):
                return 1.0 - p_failure
            """,
            select=("REP003",),
        )
        assert rule_ids(findings) == ["REP003"]
        assert "p_failure" in findings[0].message

    def test_flags_sensitivity_and_prob_suffix_names(self):
        findings = run(
            """
            def mix(sensitivity, miss_prob):
                return sensitivity * miss_prob
            """,
            select=("REP003",),
        )
        assert rule_ids(findings) == ["REP003"]

    def test_allows_validated_parameter(self):
        findings = run(
            """
            from repro._validation import check_probability

            def scale(p_failure):
                p_failure = check_probability(p_failure, "p_failure")
                return 1.0 - p_failure
            """,
            select=("REP003",),
        )
        assert findings == []

    def test_allows_method_style_validator_call(self):
        findings = run(
            """
            from repro import _validation

            def scale(p_failure):
                return 1.0 - _validation.check_probability(p_failure, "p")
            """,
            select=("REP003",),
        )
        assert findings == []

    def test_private_helpers_are_exempt(self):
        findings = run(
            """
            def _scale(p_failure):
                return 1.0 - p_failure
            """,
            select=("REP003",),
        )
        assert findings == []

    def test_non_probability_parameters_are_exempt(self):
        findings = run(
            """
            def scale(factor, count):
                return factor * count
            """,
            select=("REP003",),
        )
        assert findings == []


class TestRep004Comparisons:
    def test_flags_float_equality_on_probability_name(self):
        findings = run(
            """
            def check(p_failure):
                from repro._validation import check_probability
                check_probability(p_failure, "p")
                if p_failure == 0.5:
                    return True
                return False
            """,
            select=("REP004",),
        )
        assert rule_ids(findings) == ["REP004"]

    def test_flags_inequality_on_probability_attribute(self):
        findings = run(
            """
            def check(obj):
                return obj.sensitivity != 1.0
            """,
            select=("REP004",),
        )
        assert rule_ids(findings) == ["REP004"]

    def test_allows_ordered_comparisons(self):
        findings = run(
            """
            def check(obj):
                return obj.p_failure <= 0.0
            """,
            select=("REP004",),
        )
        assert findings == []

    def test_allows_equality_against_exempt_constants(self):
        # String/None sentinels are not float comparisons.
        findings = run(
            """
            def check(p_mode):
                return p_mode == "auto" or p_mode == None
            """,
            select=("REP004",),
        )
        assert findings == []

    def test_flags_mutable_default_arguments(self):
        findings = run(
            """
            def collect(values=[], table={}, seen=set()):
                return values, table, seen
            """,
            select=("REP004",),
        )
        assert rule_ids(findings) == ["REP004", "REP004", "REP004"]

    def test_flags_mutable_default_in_keyword_only_args(self):
        findings = run(
            """
            def collect(*, values=list()):
                return values
            """,
            select=("REP004",),
        )
        assert rule_ids(findings) == ["REP004"]

    def test_allows_immutable_defaults(self):
        findings = run(
            """
            def collect(values=(), name="x", count=0, other=None):
                return values, name, count, other
            """,
            select=("REP004",),
        )
        assert findings == []


class TestRep005SeedThreading:
    def test_flags_decide_without_seed_or_rng(self):
        findings = run(
            """
            class Reader:
                def decide(self, case):
                    return case.is_cancer
            """,
            select=("REP005",),
        )
        assert rule_ids(findings) == ["REP005"]

    def test_flags_evaluate_prefix_without_seed_or_rng(self):
        findings = run(
            """
            def evaluate_policy(cases):
                return len(cases)
            """,
            select=("REP005",),
        )
        assert rule_ids(findings) == ["REP005"]

    def test_flags_accepted_but_unused_rng(self):
        findings = run(
            """
            def compare_systems(a, b, rng):
                return a - b
            """,
            select=("REP005",),
        )
        assert rule_ids(findings) == ["REP005"]
        assert "never" in findings[0].message

    def test_allows_threaded_and_used_rng(self):
        findings = run(
            """
            def decide(case, rng):
                return rng.random() < case.p_detect
            """,
            select=("REP005",),
        )
        assert findings == []

    def test_allows_seed_parameter(self):
        findings = run(
            """
            def evaluate_run(trial, seed=None):
                return trial.run(seed)
            """,
            select=("REP005",),
        )
        assert findings == []

    def test_protocol_stub_checked_for_parameter_only(self):
        findings = run(
            """
            class Decider:
                def decide(self, case, rng):
                    ...
            """,
            select=("REP005",),
        )
        assert findings == []

    def test_property_and_private_names_are_exempt(self):
        findings = run(
            """
            class Policy:
                @property
                def decide(self):
                    return self._decide

                def _decide(self, case):
                    return case
            """,
            select=("REP005",),
        )
        assert findings == []

    def test_module_outside_seed_threading_packages_is_exempt(self):
        findings = run(
            """
            def evaluate(model):
                return model.p_system_failure
            """,
            module="repro.core.extrapolation",
            select=("REP005",),
        )
        assert findings == []

    def test_service_handlers_are_covered(self):
        # The always-on service is a seed-threading package: a request
        # handler that evaluates without threading the request seed
        # would silently break coalesced/standalone bit-identity.
        findings = run(
            """
            class Service:
                async def evaluate(self, workload, system):
                    return self._dispatch(workload, system)
            """,
            module="repro.service.app",
            select=("REP005",),
        )
        assert rule_ids(findings) == ["REP005"]

    def test_service_handler_threading_seed_passes(self):
        findings = run(
            """
            class Service:
                async def evaluate(self, workload, system, *, seed):
                    return self._dispatch(workload, system, seed)
            """,
            module="repro.service.app",
            select=("REP005",),
        )
        assert findings == []

    def test_orchestration_follow_launcher_without_seed_is_flagged(self):
        # follow* streaming launchers in orchestration packages are held
        # to the same bar as run*/resume*: they own the master seed.
        findings = run(
            """
            def follow_cells(journal, grid):
                return journal.tail(grid)
            """,
            module="repro.sweep.runner",
            select=("REP005",),
        )
        assert rule_ids(findings) == ["REP005"]
        assert "follow_cells" in findings[0].message

    def test_orchestration_follow_launcher_threading_seed_passes(self):
        findings = run(
            """
            def follow_cells(journal, grid, *, seed):
                return journal.tail(grid, seed)
            """,
            module="repro.sweep.runner",
            select=("REP005",),
        )
        assert findings == []

    def test_follow_prefix_ignored_outside_orchestration_packages(self):
        # A deterministic file tailer (repro.trial) takes no seed and
        # must not be forced to grow one.
        findings = run(
            """
            def follow_records_csv(path):
                return open(path).readlines()
            """,
            module="repro.trial.storage",
            select=("REP005",),
        )
        assert findings == []


class TestRep006Observability:
    def test_flags_random_import_inside_obs(self):
        findings = run(
            "import random\n", module="repro.obs.metrics", select=("REP006",)
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_numpy_random_import_inside_obs(self):
        findings = run(
            "from numpy.random import default_rng\n",
            module="repro.obs.spans",
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_seeded_default_rng_inside_obs(self):
        # Even *seeded* construction is banned inside instrumentation:
        # the observability layer has no business holding a generator.
        findings = run(
            """
            import numpy as np

            def jitter():
                return np.random.default_rng(7)
            """,
            module="repro.obs.report",
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_generator_method_call_inside_obs(self):
        findings = run(
            """
            def sample_ids(rng):
                return rng.integers(0, 10)
            """,
            module="repro.obs.metrics",
            select=("REP006",),
        )
        # Both the rng-named parameter and the sampling call are findings.
        assert rule_ids(findings) == ["REP006", "REP006"]

    def test_flags_generator_parameter_inside_obs(self):
        findings = run(
            """
            def record(name, generator):
                return (name, generator)
            """,
            module="repro.obs.instrumentation",
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]
        assert "generator" in findings[0].message

    def test_allows_pure_timing_code_inside_obs(self):
        findings = run(
            """
            import time

            def stamp(counts):
                return (time.perf_counter(), sum(counts.values()))
            """,
            module="repro.obs.spans",
            select=("REP006",),
        )
        assert findings == []

    def test_flags_generator_positional_arg_to_instrumentation(self):
        findings = run(
            """
            def evaluate(obs, rng):
                obs.count("draws", rng)
            """,
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_generator_passed_to_timeline_mark(self):
        # mark() feeds the ring-buffered timeline; a generator smuggled
        # through it is as bad as one through count()/gauge().
        findings = run(
            """
            def evaluate(obs, rng):
                obs.mark("monitor.checkpoint", rng)
            """,
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_allows_scalar_mark_values(self):
        findings = run(
            """
            def evaluate(obs, shard_index):
                obs.mark("sweep.shard.completed", shard_index)
            """,
            select=("REP006",),
        )
        assert findings == []

    def test_streaming_monitoring_plane_is_an_observability_package(self):
        # repro.analysis.streaming publishes through repro.obs and must
        # stay a pure observer: no randomness of any shape inside it.
        findings = run(
            "import random\n",
            module="repro.analysis.streaming",
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_streaming_plane_rejects_generator_parameters(self):
        findings = run(
            """
            def checkpoint(counts, rng):
                return (counts, rng)
            """,
            module="repro.analysis.streaming",
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_generator_span_attribute(self):
        findings = run(
            """
            def evaluate(self, rng):
                with self._obs.span("sample", rng=rng):
                    return rng.random()
            """,
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_flags_generator_through_get_instrumentation(self):
        findings = run(
            """
            from repro.obs import get_instrumentation

            def trace(generator):
                get_instrumentation().observe("state", generator)
            """,
            select=("REP006",),
        )
        assert rule_ids(findings) == ["REP006"]

    def test_allows_derived_scalars_to_instrumentation(self):
        findings = run(
            """
            def evaluate(obs, rng, draws):
                obs.count("posterior.rows", draws)
                with obs.span("sample", draws=draws):
                    return rng.normal(size=draws)
            """,
            select=("REP006",),
        )
        assert findings == []

    def test_allows_generator_to_non_instrumentation_call(self):
        findings = run(
            """
            def evaluate(sampler, rng):
                return sampler.sample(rng)
            """,
            select=("REP006",),
        )
        assert findings == []


class TestEngineBasics:
    def test_syntax_error_yields_synthetic_finding(self):
        findings = run("def broken(:\n")
        assert rule_ids(findings) == ["SYNTAX"]

    def test_findings_are_sorted_by_location(self):
        findings = run(
            """
            import random
            import math

            def f(x):
                return math.exp(x)
            """,
        )
        assert findings == sorted(findings)

    def test_select_restricts_rules(self):
        source = """
        import random
        import math

        def f(x):
            return math.exp(x)
        """
        assert rule_ids(run(source, select=("REP001",))) == ["REP001"]
        assert rule_ids(run(source, select=("REP002",))) == ["REP002"]
        assert set(rule_ids(run(source))) == {"REP001", "REP002"}
