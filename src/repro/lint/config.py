"""replint configuration: the domain knowledge behind the rules.

The rules themselves are generic AST checks; everything repo-specific —
which packages are sampling paths, which modules are approved randomness
seams, what counts as a probability name — lives here so that tests can
lint synthetic fixtures under a controlled configuration.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Default baseline filename looked up in the working directory.
DEFAULT_BASELINE_NAME = "replint-baseline.json"

#: Names of :mod:`repro._validation` helpers that satisfy REP003.
VALIDATOR_NAMES: tuple[str, ...] = (
    "check_probability",
    "check_probabilities",
    "check_distribution",
    "check_positive",
    "clip_probability",
)

#: ``math`` attributes banned on sampling paths (REP002).  ``math.sqrt``
#: is included even though sqrt is correctly rounded: scalar ``math.*``
#: calls on a sampling path signal a scalar-only code shape that the
#: batch path cannot replicate, so they route through ``_numeric`` too.
BANNED_MATH_ATTRS: tuple[str, ...] = ("exp", "log", "sqrt", "expm1", "log1p", "pow")

#: ``numpy`` attributes banned on sampling paths (REP002).  ``np.sqrt``
#: is *not* banned: IEEE-754 requires sqrt to be correctly rounded, so it
#: cannot introduce scalar/batch divergence the way exp/log can.
BANNED_NUMPY_ATTRS: tuple[str, ...] = ("exp", "log", "expm1", "log1p")


@dataclass(frozen=True)
class LintConfig:
    """Tunable knobs for one lint run.

    Attributes:
        sampling_path_packages: Dotted package prefixes whose modules are
            sampling paths for REP002 (the scalar/batch bit-equality seam).
        numeric_seam_modules: Modules allowed to call transcendentals
            directly — the implementation of the seam itself.
        randomness_seam_modules: Modules allowed to construct unseeded
            generators (REP001): the numeric seam.  Chunk generators in
            :mod:`repro.engine.fused` are always built from an explicit
            seed, so the engine needs no exemption.
        seed_threading_packages: Packages whose public ``decide`` /
            ``evaluate*`` / ``compare*`` entry points must thread
            ``seed``/``rng`` (REP005).
        orchestration_packages: Packages (a subset of the seed-threading
            ones in spirit) whose public ``run*``/``resume*`` entry
            points must *also* thread ``seed``/``rng`` (REP005) — the
            sweep engine's entry points are launchers, not ``evaluate*``
            functions, but they own the master seed all cell seeds
            derive from.
        observability_packages: Packages that implement instrumentation
            (metrics, spans, run reports) and therefore must never touch
            RNG state (REP006).  The streaming monitoring plane
            (``repro.analysis.streaming``) is held to the same bar: its
            estimators and alarms publish through ``repro.obs`` and must
            stay pure observers of the record stream.  Outside these
            packages the same rule forbids handing generator objects to
            instrumentation calls.
        validator_names: Call names that count as boundary validation
            for REP003.
        probability_name_regex: What parameter/variable names denote
            probabilities for REP003/REP004.
        select: Rule ids to run; ``None`` runs every registered rule.
    """

    sampling_path_packages: tuple[str, ...] = (
        "repro.reader",
        "repro.cadt",
        "repro.screening",
        "repro.engine",
        "repro.system",
    )
    numeric_seam_modules: tuple[str, ...] = ("repro._numeric",)
    randomness_seam_modules: tuple[str, ...] = ("repro._numeric",)
    seed_threading_packages: tuple[str, ...] = (
        "repro.reader",
        "repro.cadt",
        "repro.system",
        "repro.engine",
        "repro.sweep",
        "repro.service",
    )
    orchestration_packages: tuple[str, ...] = ("repro.sweep",)
    observability_packages: tuple[str, ...] = (
        "repro.obs",
        "repro.analysis.streaming",
    )
    validator_names: tuple[str, ...] = VALIDATOR_NAMES
    probability_name_regex: str = (
        r"^(p_.+|.+_prob|.+_probability|prevalence|sensitivity|specificity)$"
    )
    select: tuple[str, ...] | None = None
    _probability_pattern: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_probability_pattern", re.compile(self.probability_name_regex)
        )

    def is_probability_name(self, name: str) -> bool:
        """Whether ``name`` denotes a probability under this config."""
        return bool(self._probability_pattern.match(name))

    def in_packages(self, module: str, packages: tuple[str, ...]) -> bool:
        """Whether dotted ``module`` lives under any of ``packages``."""
        return any(
            module == package or module.startswith(package + ".")
            for package in packages
        )

    def rule_selected(self, rule_id: str) -> bool:
        """Whether ``rule_id`` participates in this run."""
        return self.select is None or rule_id in self.select
