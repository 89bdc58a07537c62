"""The micro-batcher: where concurrent requests become one dispatch.

Requests sharing a *batch key* (workload fingerprint + chunk size) are
collected into a group; the group fires as one fused engine dispatch
when either the linger window expires or the group reaches
``max_batch`` items.  The linger window is the coalescing bargain: a
bounded few milliseconds of added latency buys the amortisation of the
pool round-trip, workload publication, and tally across every request
in the batch.

Coalescing is invisible in the results by construction: the dispatch
callback receives the items exactly as submitted (each carrying its own
seed), runs them through the engine's one kernel
(:mod:`repro.engine.fused`) — whose per-item chunk generators depend
only on ``(seed, chunk_size)`` —
and each submitter's future resolves with its own result plus the batch
size it rode in (the ``service.batch_size`` observable).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Hashable, Sequence

from ..exceptions import SimulationError

__all__ = ["MicroBatcher"]

#: A dispatch callback: ``(key, items) -> results`` with ``results[i]``
#: belonging to ``items[i]``.
DispatchFn = Callable[[Hashable, Sequence[Any]], Awaitable[Sequence[Any]]]


class _Group:
    """One batch key's pending items and their waiting futures."""

    __slots__ = ("items", "futures", "timer")

    def __init__(self) -> None:
        self.items: list[Any] = []
        self.futures: list[asyncio.Future] = []
        self.timer: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Coalesce submissions per key into bounded, lingering batches.

    Single-event-loop only (the service's); submissions from the loop
    thread need no locks.
    """

    def __init__(
        self,
        dispatch: DispatchFn,
        *,
        linger_s: float = 0.002,
        max_batch: int = 32,
    ) -> None:
        if linger_s < 0:
            raise SimulationError(f"linger_s must be >= 0, got {linger_s!r}")
        if max_batch < 1:
            raise SimulationError(f"max_batch must be >= 1, got {max_batch!r}")
        self._dispatch = dispatch
        self._linger_s = linger_s
        self._max_batch = max_batch
        self._groups: dict[Hashable, _Group] = {}
        self._inflight: set[asyncio.Task] = set()

    @property
    def queued(self) -> int:
        """Items currently lingering (not yet dispatched)."""
        return sum(len(group.items) for group in self._groups.values())

    @property
    def inflight(self) -> int:
        """Dispatches currently executing."""
        return len(self._inflight)

    def submit(self, key: Hashable, item: Any) -> "asyncio.Future[tuple[Any, int]]":
        """Enqueue ``item`` under ``key``; resolves to ``(result, batch_size)``.

        The future completes once the item's batch has dispatched; a
        dispatch failure fails every future in the batch with the same
        exception.
        """
        loop = asyncio.get_running_loop()
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = _Group()
            if self._linger_s > 0:
                group.timer = loop.call_later(self._linger_s, self._fire, key)
        future: asyncio.Future = loop.create_future()
        group.items.append(item)
        group.futures.append(future)
        if len(group.items) >= self._max_batch:
            self._fire(key)
        elif self._linger_s == 0:
            # Zero linger means "coalesce only what is already waiting":
            # fire at the end of this event-loop tick, so a burst
            # submitted in one tick still fuses.
            if group.timer is None:
                group.timer = loop.call_later(0, self._fire, key)
        return future

    def _fire(self, key: Hashable) -> None:
        group = self._groups.pop(key, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        task = asyncio.ensure_future(self._run(key, group))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run(self, key: Hashable, group: _Group) -> None:
        try:
            results = await self._dispatch(key, group.items)
            if len(results) != len(group.items):
                raise SimulationError(
                    f"dispatch returned {len(results)} results for "
                    f"{len(group.items)} items"
                )
        except BaseException as exc:  # noqa: BLE001 - fail the whole batch
            for future in group.futures:
                if not future.done():
                    future.set_exception(exc)
            return
        batch_size = len(group.items)
        for future, result in zip(group.futures, results):
            if not future.done():
                future.set_result((result, batch_size))

    async def flush(self) -> None:
        """Fire every lingering group and wait for all dispatches."""
        while self._groups or self._inflight:
            for key in list(self._groups):
                self._fire(key)
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
