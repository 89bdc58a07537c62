"""Shared pieces of the repository benchmark: statistics, spans, results.

Everything here is benchmark-side.  The program under test is only ever
reached through its public functions (or its CLI), so nothing in this
module imports ``repro``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

#: Where runs leave their span files and scratch journals (gitignored).
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A named percentile needs this many samples beyond it.
SAMPLES_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``samples``.

    Raises ``ValueError`` when fewer than :data:`SAMPLES_BEYOND` samples
    lie beyond the percentile: a run too short for a named percentile
    must be lengthened, never relabelled.  Failed requests are in the
    samples as ``inf``, so they count as missing any latency limit.
    """
    n = len(samples)
    beyond = n * (100.0 - q) / 100.0
    if beyond < SAMPLES_BEYOND:
        raise ValueError(
            f"p{q:g} needs {SAMPLES_BEYOND} samples beyond it; "
            f"{n} samples give {beyond:.1f}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    """Median of a non-empty sample list."""
    return float(statistics.median(samples))


def peak_rss_mb(include_self: bool) -> float:
    """Peak resident set, in MB, of the program under test.

    ``include_self`` adds this process (simulate and sweep run the
    program in-process) to the largest waited-for child (pool workers,
    or the server process for the serve workloads).
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return (own + children) / 1024.0


@dataclass
class Span:
    """One timed region recorded by the benchmark around a public call."""

    span_id: int
    name: str
    start: float
    end: float
    parent: int | None = None
    trace: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; written out once when the run ends.

    Spans of one request (or one comparison) share a ``trace`` id, and
    ``parent`` names the span that caused one, so a layer's self time is
    its duration minus what its children cover.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._next_trace = 0

    def new_trace(self) -> int:
        self._next_trace += 1
        return self._next_trace

    def record(
        self,
        name: str,
        start: float,
        end: float,
        trace: int | None = None,
        parent: int | None = None,
        **attrs: Any,
    ) -> int:
        """Add a span timed by the caller; returns its id."""
        self.spans.append(Span(len(self.spans), name, start, end, parent, trace, attrs))
        return len(self.spans) - 1

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(span) for span in self.spans]))


class NullTracer(Tracer):
    """The tracing-off twin: recording a span costs one call."""

    def record(self, name: str, start: float, end: float, trace: int | None = None, parent: int | None = None, **attrs: Any) -> int:
        return 0


#: What one reference-kernel call takes at the host speed the calibrated
#: (``*_cal``) metrics are quoted at.  A round figure: on a shared 2-vCPU
#: x86-64 KVM guest (Xeon, 2.0 GHz, Python 3.11, numpy 2) a call took
#: 6-10 ms as the host's load changed.
REFERENCE_NOMINAL_S = 0.010

#: Kernel calls on each side of an operation that takes no probes of
#: its own: enough to smooth one call's noise, few enough to stay cheap.
PROBES_AROUND = 3


class Reference:
    """A fixed piece of work timed between the workload's operations.

    A shared host changes speed by up to 2x from minute to minute, for
    every process on it alike, and no median over one run removes that.
    The kernel mixes the program's kinds of work: interpreter arithmetic,
    small-object churn, and numpy sampling, masking and ``bincount`` over
    a few megabytes.  Each probe times one kernel call; the probes taken
    just before, during (between an operation's parts) and just after an
    operation give, as their median, the host's slowdown over it, and
    dividing the operation's time by that quotes it at the host speed
    where a call takes :data:`REFERENCE_NOMINAL_S`.  The kernel never
    calls the program and never changes, so a change to the program
    moves the calibrated metrics exactly as it moves the raw ones.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20_030_617)
        self._thresholds = rng.random(200_000)
        self._codes = rng.integers(0, 64, 200_000)
        self.probes: list[float] = []

    def _kernel(self) -> float:
        total = 0
        for i in range(20_000):
            total += (i * i) % 7
        rows = [{"case": i, "score": i * 0.5, "pair": (i, i + 1)} for i in range(4_000)]
        total += sum(row["score"] + row["pair"][1] for row in rows)
        draws = np.random.default_rng(7).random(200_000)
        hits = np.bincount(self._codes[draws < self._thresholds], minlength=64)
        return total + float(hits.sum()) + float(np.sort(draws[:50_000])[0])

    def probe(self, calls: int = 1) -> None:
        """Time ``calls`` kernel calls, each one probe.  The collector is
        off meanwhile: how much the benchmark holds in memory must not
        change what a call takes."""
        for _ in range(calls):
            gc.disable()
            try:
                start = time.perf_counter()
                self._kernel()
                elapsed = time.perf_counter() - start
            finally:
                gc.enable()
            self.probes.append(elapsed / REFERENCE_NOMINAL_S)

    def mark(self) -> int:
        """Where the operation starting now begins in :attr:`probes`."""
        return len(self.probes)

    def factor(self, mark: int) -> float:
        """The host's slowdown over the operation begun at ``mark``: the
        median of the probes from :data:`PROBES_AROUND` before it to now
        (above 1 when the host ran slower than nominal)."""
        return median(self.probes[max(0, mark - PROBES_AROUND):])

    def around(self, mark: int) -> float:
        """:meth:`factor` after probing :data:`PROBES_AROUND` times, for
        an operation that took no probes of its own."""
        self.probe(PROBES_AROUND)
        return self.factor(mark)

    def slowdown(self) -> float:
        """The run's median probe."""
        return median(self.probes)


@dataclass
class Phase:
    """What one timed region measured.

    ``attempted``/``failed`` count the workload's operations; ``errors``
    holds the output-check findings (any entry fails the run);
    ``reference`` holds the host-speed probes taken between operations.
    ``e2e`` holds each timing twice: at nominal host speed (``*_cal``)
    and as measured.
    """

    e2e: dict[str, float]
    attempted: int
    failed: int
    samples: dict[str, int] = field(default_factory=dict)
    info: dict[str, Any] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    reference: Reference | None = None


def scratch_dir(tag: str) -> Path:
    """A fresh per-process scratch directory inside the checkout."""
    path = OUT_DIR / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
