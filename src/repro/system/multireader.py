"""Multi-reader screening configurations (Section 7's extensions).

The paper's conclusions point at "more complex combinations ... e.g. with
two readers assisted by a CADT, or less qualified readers assisted by
CADTs", against the U.K. practice baseline of double reading.  This module
implements those configurations over the same reader/CADT substrates:

* :class:`DoubleReading` — two unaided readers with a recall policy;
* :class:`AssistedDoubleReading` — two readers who both see the same
  CADT output for each case (the films are processed once);
* recall policies: recall if *either* recalls (maximises sensitivity),
  only if *both* agree (maximises specificity), or *arbitration* by a
  third reader on disagreements (common U.K. practice).

Both systems share one fixed randomness layout: the tool (if any)
processes the case, then ``readers[0]``, ``readers[1]`` and — under
arbitration — the arbiter each decide, *whatever* the first two said;
the arbiter's decision is used only on disagreement.  Because every
case's consumption then depends only on its ground truth, the batch
path (:meth:`decide_batch`) reproduces the scalar loop bit for bit
(see ``docs/engine.md``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..cadt.algorithm import CadtBatchOutput, CadtOutput
from ..cadt.tool import Cadt
from ..exceptions import SimulationError
from ..reader.reader import ReaderModel
from ..screening.case import Case
from .single import BatchDecisions, SystemDecision, _split_shared_uniforms

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..engine.arrays import CaseArrays

__all__ = ["RecallPolicy", "DoubleReading", "AssistedDoubleReading"]


class RecallPolicy(enum.Enum):
    """How two readers' decisions combine into the system decision."""

    #: Recall if either reader recalls (1-out-of-2 on detection of cancer).
    EITHER = "either"
    #: Recall only if both readers recall (2-out-of-2).
    UNANIMOUS = "unanimous"
    #: On disagreement, a third reader (the arbiter) decides.
    ARBITRATION = "arbitration"


class _PairedReading:
    """Validation, recall combinator and batch path of the two-reader systems.

    Subclasses set ``_prefix`` (the default name's stem) and, for the
    assisted configuration, ``cadt``.
    """

    _prefix: str
    cadt: Cadt | None = None

    def __init__(
        self,
        readers: Sequence[ReaderModel],
        policy: RecallPolicy,
        arbiter: ReaderModel | None,
        name: str | None,
    ):
        if len(readers) != 2:
            raise SimulationError(f"double reading needs exactly 2 readers, got {len(readers)}")
        self.readers = tuple(readers)
        self.policy = RecallPolicy(policy)
        if self.policy is RecallPolicy.ARBITRATION and arbiter is None:
            raise SimulationError("the arbitration policy requires an arbiter reader")
        self.arbiter = arbiter
        self._name = name if name is not None else f"{self._prefix}_{self.policy.value}"

    @property
    def name(self) -> str:
        return self._name

    def _deciders(self) -> tuple[ReaderModel, ...]:
        """The readers that decide every case, in decision order."""
        if self.policy is RecallPolicy.ARBITRATION:
            return (*self.readers, self.arbiter)
        return self.readers

    def _combine(self, first, second, arbiter=None):
        """The system recall from the deciders' recalls (bools or masks)."""
        if self.policy is RecallPolicy.EITHER:
            return first | second
        if self.policy is RecallPolicy.UNANIMOUS:
            return first & second
        return np.where(first == second, first, arbiter)

    @property
    def supports_batch(self) -> bool:
        """Whether :meth:`decide_batch` is available.

        Requires plain :class:`ReaderModel` deciders, a drift-free tool,
        and no decider appearing twice: one object's private generator
        is consumed case by case across its roles in the scalar loop but
        role by role in a batch, so aliased readers stay scalar.
        """
        deciders = self._deciders()
        return (
            all(isinstance(reader, ReaderModel) for reader in deciders)
            and (self.cadt is None or self.cadt.drift_per_case == 0.0)
            and len({id(reader) for reader in deciders}) == len(deciders)
        )

    def decide(
        self, case: Case, rng: np.random.Generator | None = None
    ) -> SystemDecision:
        """Decide one case in the fixed randomness layout.

        The tool (if any) processes the case, then ``readers[0]``,
        ``readers[1]`` and, under arbitration, the arbiter decide — the
        arbiter on every case, its recall used only on disagreement — so
        what a case consumes depends on its ground truth alone.
        """
        output: CadtOutput | None = None
        machine_failed: bool | None = None
        if self.cadt is not None:
            output = self.cadt.process(case, rng)
            machine_failed = (
                output.is_false_negative(case)
                if case.has_cancer
                else output.is_false_positive(case)
            )
        recalls = [reader.decide(case, output, rng).recall for reader in self._deciders()]
        return SystemDecision(
            case_id=case.case_id,
            recall=bool(self._combine(*recalls)),
            machine_failed=machine_failed,
        )

    def decide_batch(
        self, arrays: "CaseArrays", rng: np.random.Generator | None = None
    ) -> BatchDecisions:
        """Vectorized :meth:`decide` over a batch of cases.

        With ``rng`` omitted, the tool and each decider draw from their
        own private generators in the fixed layouts the scalar loop
        consumes.  With a shared ``rng``, one flat draw is split per
        case into the tool's ``[u_miss, u_prompts]`` (assisted only)
        followed by each decider's uniforms in decision order — the
        interleaving :meth:`decide` consumes from a shared generator.
        Either way the results are bit-identical to the scalar loop.
        """
        if not self.supports_batch:
            raise SimulationError(
                f"system {self.name!r} has stateful, drifting or aliased "
                "components; use the scalar path"
            )
        deciders = self._deciders()
        output: CadtBatchOutput | None = None
        if rng is None:
            if self.cadt is not None:
                output = self.cadt.process_batch(arrays)
            recalls = [reader.decide_batch(arrays, output) for reader in deciders]
        else:
            lead = 0 if self.cadt is None else 2
            cadt_u, reader_us = _split_shared_uniforms(arrays, rng, lead, len(deciders))
            if self.cadt is not None:
                output = self.cadt.process_batch(arrays, u=cadt_u)
            recalls = [
                reader.decide_batch(arrays, output, u=u)
                for reader, u in zip(deciders, reader_us)
            ]
        return BatchDecisions(
            case_id=arrays.case_id,
            recall=self._combine(*recalls),
            machine_failed=(
                None if output is None else output.machine_failed(arrays.has_cancer)
            ),
        )


class DoubleReading(_PairedReading):
    """Two unaided readers with a recall policy (U.K. practice baseline).

    Args:
        readers: Exactly two reader models.
        policy: How the two decisions combine.
        arbiter: Third reader deciding disagreements; required for the
            arbitration policy, ignored otherwise.
        name: Evaluation label.
    """

    _prefix = "double"

    def __init__(
        self,
        readers: Sequence[ReaderModel],
        policy: RecallPolicy = RecallPolicy.EITHER,
        arbiter: ReaderModel | None = None,
        name: str | None = None,
    ):
        super().__init__(readers, policy, arbiter, name)


class AssistedDoubleReading(_PairedReading):
    """Two readers, each seeing the same CADT output, with a recall policy.

    The CADT processes each case once; both readers review the same
    prompted films — so the machine's failures are a *common* influence on
    both readers, the system-level analogue of common-mode failure.

    Args:
        readers: Exactly two reader models.
        cadt: The shared advisory tool.
        policy: How the two decisions combine.
        arbiter: Third reader for the arbitration policy; the arbiter also
            sees the CADT output.
        name: Evaluation label.
    """

    _prefix = "assisted_double"

    def __init__(
        self,
        readers: Sequence[ReaderModel],
        cadt: Cadt,
        policy: RecallPolicy = RecallPolicy.EITHER,
        arbiter: ReaderModel | None = None,
        name: str | None = None,
    ):
        super().__init__(readers, policy, arbiter, name)
        self.cadt = cadt
