"""The service's multi-tenant workload cache.

Requests name workloads declaratively (a
:class:`~repro.sweep.grid.WorkloadSpec`), and two tenants asking for the
same spec mean the same case sequence — ``WorkloadSpec.key()`` is a
content fingerprint, so one cache serves every tenant without
cross-tenant leakage (a key fully determines its workload).

The cache holds only the built :class:`~repro.screening.workload.Workload`
— what a spec costs to materialise.  Everything dispatch-ready about it
(columnised arrays, cancer class codes, the shared-memory segment) is the
engine's: :meth:`EngineRuntime.prepare
<repro.engine.runtime.EngineRuntime.prepare>` keeps it resident, so the
runtime's LRU and ``shm_byte_budget`` bound it in one place.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..exceptions import SimulationError
from ..obs import NULL_INSTRUMENTATION, Instrumentation
from ..screening.workload import Workload
from ..sweep.grid import WorkloadSpec

__all__ = ["CachedWorkload", "WorkloadCache"]


@dataclass(frozen=True)
class CachedWorkload:
    """One built workload, keyed by its spec fingerprint."""

    key: str
    workload: Workload


class WorkloadCache:
    """LRU cache of built workloads, keyed by ``WorkloadSpec.key()``.

    Not thread-safe: the service serializes every access on its single
    engine-dispatch thread, which is also what keeps build work from
    being duplicated by concurrent misses on the same key.
    """

    def __init__(self, capacity: int = 8, obs: Instrumentation | None = None) -> None:
        if capacity < 1:
            raise SimulationError(f"cache capacity must be >= 1, got {capacity!r}")
        self._capacity = capacity
        self._obs = obs if obs is not None else NULL_INSTRUMENTATION
        self._entries: OrderedDict[str, CachedWorkload] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, spec: WorkloadSpec) -> CachedWorkload:
        """The built workload for ``spec`` (built on miss)."""
        key = spec.key()
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._obs.count("service.workload_cache.hit")
            return entry
        self._obs.count("service.workload_cache.miss")
        with self._obs.span("service.workload_build", key=key):
            entry = CachedWorkload(key=key, workload=spec.build())
        self._entries[key] = entry
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self._obs.count("service.workload_cache.evicted")
        return entry
