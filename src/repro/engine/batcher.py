"""Micro-batcher: accumulate ready-to-classify flows, drain in one call.

Batched extraction and prediction cost far less per flow than
one-at-a-time classification, so flows whose windows are ready queue
here, and the engine drains them through one classify drain — one
extractor ``finalize`` and one vectorized predict
(``StagedEngine.classify_labels``) — when either

* ``max_batch`` flows have accumulated (size trigger), or
* ``max_delay`` seconds have passed since the oldest queued flow arrived
  (latency bound, checked against packet timestamps).

What queues is the flow's own
:class:`~repro.engine.types.PendingFlow`, its ``window`` frozen when it
became ready: there is no separate ready-flow record, and batching
changes *when* the model runs, never *what* it sees.

``max_batch=1`` degenerates to the monolithic engine's behaviour: every
push returns a singleton batch and nothing ever waits.
"""

from __future__ import annotations

from repro.engine.types import PendingFlow

__all__ = ["DRAIN_REASONS", "MicroBatcher"]


#: Why a batch drained, for the ``batcher_drains_total`` reason split:
#: ``size`` (max_batch reached), ``delay`` (latency bound on the packet
#: clock), ``close`` (FIN/RST needs its label now), ``timeout`` (after a
#: buffer-timeout flush), ``final`` (end of stream), ``manual`` (direct
#: ``drain()`` call).
DRAIN_REASONS = ("size", "delay", "close", "timeout", "final", "manual")


class MicroBatcher:
    """Size- and delay-triggered accumulator of ready flows."""

    def __init__(self, max_batch: int = 1, max_delay: float = 0.05) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._queue: list[PendingFlow] = []
        #: Packet clock at which the oldest queued flow was pushed; None
        #: when nothing waits. The runtime reads it on every packet, where
        #: calling :meth:`due` would cost a frame.
        self.oldest_enqueued: "float | None" = None
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

    def push(self, item: PendingFlow, now: float) -> "list[PendingFlow] | None":
        """Queue a ready flow; returns the batch when the size trigger fires."""
        self._queue.append(item)
        if self.oldest_enqueued is None:
            self.oldest_enqueued = now
        if len(self._queue) >= self.max_batch:
            return self.drain(reason="size")
        return None

    def due(self, now: float) -> bool:
        """Whether the latency bound has elapsed for the oldest queued flow."""
        return (
            self.oldest_enqueued is not None
            and now - self.oldest_enqueued >= self.max_delay
        )

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
        self.oldest_enqueued = None
        if batch and self._m_drains is not None:
            self._m_drain_size.observe(len(batch))
            self._m_drains[reason].inc()
        return batch
