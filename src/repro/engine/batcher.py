"""Micro-batcher: accumulate ready-to-classify flows, drain in one call.

Batched extraction and prediction cost far less per flow than
one-at-a-time classification, so flows whose windows are ready queue
here, and the engine drains them through one classify drain — one
extractor ``finalize`` and one vectorized predict
(``StagedEngine.classify_labels``) — when either

* ``max_batch`` flows have accumulated (size trigger), or
* the oldest queued flow has waited :data:`DRAIN_WAIT_COSTS` times the
  wall time of the last classify drain (the wait rule, on the wall
  clock: :attr:`MicroBatcher.drain_at`).

The wait rule prices a flow's wait in what a drain costs. Under load
the batch fills first, so the closed loop keeps full batches; when
arrivals are slow a label waits a few drain costs — not the time a
batch takes to fill — and drains take at most ``1/DRAIN_WAIT_COSTS``
of the wall time.

What queues is the flow's own
:class:`~repro.engine.types.PendingFlow`, its ``window`` frozen and its
CDB record stamped when it became ready: there is no separate
ready-flow record, and batching changes *when* a label is emitted,
never what it is or what any counter reads.

``max_batch=1`` degenerates to the spec's classify-on-ready behaviour
(``tests/spec.py``): every push returns a singleton batch and nothing
ever waits.
"""

from __future__ import annotations

from time import perf_counter

from repro.engine.types import PendingFlow

__all__ = ["DRAIN_REASONS", "DRAIN_WAIT_COSTS", "MicroBatcher", "clock"]


#: How many drain costs the oldest queued flow may wait. A drain costs
#: a few hundred µs, so 8 keeps a label's wait at a few milliseconds
#: while a busy stream still fills its batches before the wait runs out.
DRAIN_WAIT_COSTS = 8

#: The wall clock of the wait rule, read through this module so a test
#: can replace it with a deterministic one.
clock = perf_counter

#: Why a batch drained, for the ``batcher_drains_total`` reason split:
#: ``size`` (max_batch reached), ``wait`` (the wait rule), ``close``
#: (FIN/RST needs its label now), ``purge`` (the next ready flow's
#: insert fires the CDB's inactivity sweep), ``timeout`` (after a
#: buffer-timeout flush), ``final`` (end of stream), ``manual`` (direct
#: ``drain()`` call).
DRAIN_REASONS = ("size", "wait", "close", "purge", "timeout", "final", "manual")


class MicroBatcher:
    """Size- and wait-triggered accumulator of ready flows."""

    def __init__(self, max_batch: int = 1) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self._queue: list[PendingFlow] = []
        #: Wall seconds the oldest queued flow may wait:
        #: :data:`DRAIN_WAIT_COSTS` times the last drain's cost (0 until
        #: a drain has been timed, see :meth:`record_drain_cost`).
        self.max_wait = 0.0
        #: Wall clock past which the queue is overdue (the oldest flow's
        #: push plus :attr:`max_wait`); None when nothing waits. The
        #: runtime tests ``clock() > drain_at`` before every packet.
        self.drain_at: "float | None" = None
        self._m_drain_size = None
        self._m_drains: "dict[str, object] | None" = None

    def bind_metrics(self, registry) -> None:
        """Register this batcher's instruments on a ``MetricsRegistry``.

        Exposes the drain-size distribution (histogram, buckets up to
        ``max_batch``-scale) and a per-reason drain counter (see
        :data:`DRAIN_REASONS`).
        """
        self._m_drain_size = registry.histogram(
            "batcher_drain_flows",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            help="Flows per micro-batch drain",
        )
        self._m_drains = {
            reason: registry.counter(
                "batcher_drains_total",
                help="Micro-batch drains by trigger reason",
                reason=reason,
            )
            for reason in DRAIN_REASONS
        }

    def __len__(self) -> int:
        return len(self._queue)

    def push(
        self, item: PendingFlow, purge_at: int = 0
    ) -> "list[PendingFlow] | None":
        """Queue a ready flow; returns the batch when a trigger fires.

        The size trigger fires at ``max_batch`` flows. A positive
        ``purge_at`` is the queue length whose last flow's CDB insert
        fires the inactivity sweep: that sweep must see every earlier
        ready flow's record and no later packet, so the queue drains
        (reason ``purge``) as soon as it holds that flow.
        """
        queue = self._queue
        queue.append(item)
        if self.drain_at is None:
            self.drain_at = clock() + self.max_wait
        if len(queue) >= self.max_batch:
            return self.drain(reason="size")
        if 0 < purge_at <= len(queue):
            return self.drain(reason="purge")
        return None

    def record_drain_cost(self, seconds: float) -> None:
        """Set the wait rule from the wall time the last drain took."""
        self.max_wait = DRAIN_WAIT_COSTS * seconds

    def drain(self, reason: str = "manual") -> "list[PendingFlow]":
        """Take everything queued (empty list when idle).

        ``reason`` attributes the drain for telemetry; an unknown reason
        raises so the split stays trustworthy.
        """
        if reason not in DRAIN_REASONS:
            raise ValueError(
                f"unknown drain reason {reason!r}; expected one of "
                f"{', '.join(DRAIN_REASONS)}"
            )
        batch = self._queue
        self._queue = []
        self.drain_at = None
        if batch and self._m_drains is not None:
            self._m_drain_size.observe(len(batch))
            self._m_drains[reason].inc()
        return batch
