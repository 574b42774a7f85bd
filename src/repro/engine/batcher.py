"""Micro-batcher: accumulate ready-to-classify flows, drain in one call.

PR 1 made ``classify_buffers`` 30-80x cheaper per flow than one-at-a-time
classification, but the fill path still classified each flow the moment
its buffer filled. The batcher closes that gap: flows whose windows are
ready queue here, and the engine drains them through a single
``classify_buffers`` call when either

* ``max_batch`` flows have accumulated (size trigger), or
* ``max_delay`` seconds have passed since the oldest queued flow arrived
  (latency bound, checked against packet timestamps).

``max_batch=1`` degenerates to the monolithic engine's behaviour: every
push returns a singleton batch and nothing ever waits.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DRAIN_REASONS", "FoldBatcher", "MicroBatcher", "ReadyFlow"]


@dataclass(frozen=True)
class ReadyFlow:
    """A flow whose classification window is frozen and awaiting a drain.

    ``window`` is whatever the engine's extractor hands to
    :meth:`~repro.core.extract.FeatureExtractor.finalize`: the frozen
    payload window (``bytes``) for payload-retaining extractors —
    exactly the bytes the monolithic engine would have classified at
    that moment — or the flow's accumulated state object (e.g. k-gram
    count tables) for streaming extractors. Either way it is captured
    when the flow becomes ready (buffer full, FIN, or timeout), so
    batching changes *when* the model runs, never *what* it sees.

    ``seq`` / ``first_arrival`` / ``shard`` carry enough of the pending
    flow's identity for the runtime to classify the
    batch (ordering, delay metrics) and route the label back to the
    owning :class:`~repro.engine.shard.ShardPipeline` without touching
    shard-local state.
    """

    flow_id: bytes
    window: "bytes | object"
    protocol: "str | None"
    seq: int = 0
    first_arrival: float = 0.0
    shard: int = 0


#: Why a batch drained, for the ``batcher_drains_total`` reason split:
#: ``size`` (max_batch reached), ``delay`` (latency bound on the packet
#: clock), ``close`` (FIN/RST needs its label now), ``timeout`` (after a
#: buffer-timeout flush), ``final`` (end of stream), ``manual`` (direct
#: ``drain()`` call).
DRAIN_REASONS = ("size", "delay", "close", "timeout", "final", "manual")


class FoldBatcher:
    """Fold-batching stage: defer per-packet folds, fold per drain tick.

    The incremental extractor's ``fold_batch`` packs the k-grams of many
    packets in one numpy pass, but only if someone accumulates the
    packets first. This is that accumulator — the fold-path sibling of
    :class:`MicroBatcher`: the engine queues each arriving chunk on its
    flow's ``PendingFlow.unfolded`` list and registers the flow here.
    A classify drain :meth:`take`\\ s just the flows it is about to
    finalize — one vectorized ``fold_batch`` call per classification
    batch, the fastest cadence — while ``max_packets > 0`` adds a size
    trigger (:meth:`push` returns True every ``max_packets`` chunks and
    the engine then :meth:`drain`\\ s everything queued, folding ahead
    of classification at the cost of smaller batches).
    ``max_packets=0`` has no size trigger at all: chunks wait for their
    flow's classification, and deferred memory stays bounded because
    the engine never queues chunks past the extractor's window cap.

    Deferral is invisible semantically: chunks fold in arrival order
    behind each flow's boundary carry, readiness checks count queued
    chunks, and state is always folded up to date before it is read.
    """

    def __init__(self, max_packets: int = 0) -> None:
        if max_packets < 0:
            raise ValueError(f"max_packets must be >= 0, got {max_packets}")
        self.max_packets = max_packets
        self._flows: dict = {}
        self._chunks = 0
        self._m_drain_chunks = None

    def bind_metrics(self, registry) -> None:
        """Register this stage's instruments on a ``MetricsRegistry``."""
        self._m_drain_chunks = registry.histogram(
            "fold_batch_chunks",
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
            help="Payload chunks folded per vectorized fold_batch drain",
        )

    def __len__(self) -> int:
        """Chunks currently deferred (across all queued flows)."""
        return self._chunks

    def push(self, flow_id: bytes, pending) -> bool:
        """Note one chunk queued on ``pending``; True when a drain is due."""
        if flow_id not in self._flows:
            self._flows[flow_id] = pending
        self._chunks += 1
        return 0 < self.max_packets <= self._chunks

    def discard(self, flow_id: bytes) -> None:
        """Forget a flow (dropped as unclassifiable before any drain)."""
        pending = self._flows.pop(flow_id, None)
        if pending is not None:
            self._chunks -= len(pending.unfolded)
            pending.unfolded.clear()

    def observe_drain(self, chunks: int) -> None:
        """Record one drain's chunk count on the stage histogram.

        Called by the engine's fold-pending step, which is the one place
        every drain passes through — including classify-tick folds that
        never touch this queue.
        """
        if self._m_drain_chunks is not None:
            self._m_drain_chunks.observe(chunks)

    def take(self, flow_ids) -> list:
        """Take just ``flow_ids`` out of the queue (those with folds due).

        Used by the classify stage to fold exactly the flows it is about
        to finalize — the rest stay queued and keep accumulating toward
        a full-size fold batch.
        """
        pop = self._flows.pop
        taken = [
            pending
            for pending in (pop(flow_id, None) for flow_id in flow_ids)
            if pending is not None
        ]
        if taken:
            self._chunks -= sum(len(pending.unfolded) for pending in taken)
        return taken

    def drain(self) -> list:
        """Take every queued flow (each with its ``unfolded`` chunks)."""
        if not self._flows:
            return []
        flows = list(self._flows.values())
        self._flows.clear()
        self._chunks = 0
        return flows


class MicroBatcher:
    """Size- and delay-triggered accumulator of ready flows."""

    def __init__(self, max_batch: int = 1, max_delay: float = 0.05) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._queue: list[ReadyFlow] = []
        self._oldest_enqueued: "float | None" = None
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

    def push(self, item: ReadyFlow, now: float) -> "list[ReadyFlow] | None":
        """Queue a ready flow; returns the batch when the size trigger fires."""
        self._queue.append(item)
        if self._oldest_enqueued is None:
            self._oldest_enqueued = now
        if len(self._queue) >= self.max_batch:
            return self.drain(reason="size")
        return None

    def due(self, now: float) -> bool:
        """Whether the latency bound has elapsed for the oldest queued flow."""
        return (
            self._oldest_enqueued is not None
            and now - self._oldest_enqueued >= self.max_delay
        )

    def drain(self, reason: str = "manual") -> "list[ReadyFlow]":
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
        self._oldest_enqueued = None
        if batch and self._m_drains is not None:
            self._m_drain_size.observe(len(batch))
            self._m_drains[reason].inc()
        return batch
