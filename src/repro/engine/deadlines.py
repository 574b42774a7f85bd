"""Deadline wheel: a lazy min-heap of per-flow buffer-timeout deadlines.

The executable spec of Figure 1 (``tests/spec.py``) finds timed-out
flows by scanning every pending flow on each flush: O(pending) per call.
The wheel keeps one heap entry per (flow, deadline) and pops expired
flows in O(expired · log n), so ``flush_timeouts`` can run as often as
the caller likes without touching live flows; both expire the same flows
at the same flush (``tests/properties/test_arm_once_deadlines.py``).

Rescheduling is lazy: scheduling a flow again pushes a fresh entry and
records the flow's current deadline; stale heap entries are discarded
when popped (and compacted wholesale when they outnumber live flows).
The engine schedules sparingly — once when a flow is created and left
pending, and again only when a fired deadline finds the flow still
active (:meth:`StagedEngine.pop_expired
<repro.engine.engine.StagedEngine.pop_expired>` compares the flow's
``last_arrival`` and re-arms) — so the heap holds about one entry per
pending flow, not one per pending packet, and a fired deadline is a cue
to look at the flow, not yet a verdict.

Expiry is *strict*: a flow whose inactivity equals the timeout exactly is
NOT expired — the paper's condition is ``now - t_last > timeout``, so a
deadline fires only when ``now > deadline``.
"""

from __future__ import annotations

import heapq

__all__ = ["DeadlineWheel"]


class DeadlineWheel:
    """Min-heap of per-flow deadlines with lazy rescheduling."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, bytes]] = []
        self._current: dict[bytes, float] = {}
        self._seq = 0
        self._m_expirations = None

    def bind_metrics(self, registry) -> None:
        """Register this wheel's instruments on a ``MetricsRegistry``.

        Exposes fired deadlines (counter: expired flows plus flows the
        engine found still active and re-armed), heap entries including
        stale ones (gauge: entries of cancelled — classified — flows stay
        until popped or compacted), and scheduled flows (gauge). The two
        gauges read the sizes when scraped, so ``schedule`` /
        ``pop_expired`` pay nothing for them.
        """
        self._m_expirations = registry.counter(
            "wheel_expirations_total",
            help="Buffer-timeout deadlines fired by the deadline wheel",
        )
        registry.gauge(
            "wheel_heap_entries",
            help="Heap entries held by the wheel (live + stale)",
            reader=lambda: len(self._heap),
        )
        registry.gauge(
            "wheel_scheduled_flows",
            help="Flows with an active buffer-timeout deadline",
            reader=self.__len__,
        )

    def __len__(self) -> int:
        """Number of flows with an active deadline (not heap entries)."""
        return len(self._current)

    def __contains__(self, flow_id: bytes) -> bool:
        return flow_id in self._current

    def deadline_of(self, flow_id: bytes) -> "float | None":
        """The flow's active deadline, or None when unscheduled."""
        return self._current.get(flow_id)

    def schedule(self, flow_id: bytes, deadline: float) -> None:
        """Set (or move) a flow's deadline; the old one becomes stale."""
        self._current[flow_id] = deadline
        self._seq += 1
        heapq.heappush(self._heap, (deadline, self._seq, flow_id))
        if len(self._heap) > 8 and len(self._heap) > 2 * len(self._current):
            self._compact()

    def cancel(self, flow_id: bytes) -> None:
        """Drop a flow's deadline (no-op when unscheduled)."""
        self._current.pop(flow_id, None)

    def pop_expired(self, now: float) -> list[bytes]:
        """Flow IDs whose deadline lies strictly before ``now``.

        Popped flows are unscheduled; stale entries (superseded or
        cancelled) are discarded along the way.
        """
        expired: list[bytes] = []
        heap = self._heap
        while heap and heap[0][0] < now:
            deadline, _, flow_id = heapq.heappop(heap)
            if self._current.get(flow_id) == deadline:
                del self._current[flow_id]
                expired.append(flow_id)
        if expired and self._m_expirations is not None:
            self._m_expirations.inc(len(expired))
        return expired

    def _compact(self) -> None:
        """Rebuild the heap from live deadlines only."""
        self._seq = 0
        self._heap = []
        for flow_id, deadline in self._current.items():
            self._seq += 1
            self._heap.append((deadline, self._seq, flow_id))
        heapq.heapify(self._heap)
