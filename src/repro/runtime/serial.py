"""Serial runtime: the flow pipeline runs inline, in arrival order.

This is the default and the reference semantics: with ``max_batch=1``
the engine is packet-for-packet equivalent to the fused monolith
(labels, counters, CDB size series — the staged-equivalence suite
proves it), because every ordering decision the monolith made is
reproduced exactly:

* the delay-due check runs before the packet touches the flow table, a
  FIN/RST drains the queue into one classify call, and drained batches
  classify in push order — readiness order, never re-sorted;
* a CDB-hit payload packet goes to every sink's ``on_packet`` right
  after ``ingest`` returns its label (and after a FIN/RST hit has
  retired the record);
* timeout expirations freeze in first-arrival (``seq``) order, which is
  the order the monolith's flush used (and what keeps random-skip draws
  aligned);
* ``engine.classify_apply`` folds each batch's deferred chunks in a
  single call, then applies labels per ready flow, so the
  CDB purge trigger fires at the same insert index.

``dispatch`` is one of the three frames a packet that needs no
classification enters (``engine.process_packet`` → ``dispatch`` →
``pipeline.ingest``), so it calls nothing else on that path: the
batcher's latency check is inlined and the sink loop is its own.
"""

from __future__ import annotations

from repro.runtime.base import register

__all__ = ["SerialRuntime"]


class SerialRuntime:
    """Inline, single-threaded execution of the flow pipeline."""

    name = "serial"

    def __init__(self) -> None:
        self._engine = None

    def bind(self, engine) -> None:
        self._engine = engine

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        engine = self._engine
        pipeline = engine.pipeline
        # The packet clock advanced: drain if the oldest queued flow has
        # waited past the latency bound, before this packet is handled.
        # This is ``MicroBatcher.due``, inlined (one frame per packet).
        batcher = pipeline.batcher
        oldest = batcher.oldest_enqueued
        if oldest is not None and now - oldest >= batcher.max_delay:
            engine.classify_apply(pipeline.drain(reason="delay"), now)

        result = pipeline.ingest(packet, flow_id, now, is_close)
        label = result.label
        if label is not None:
            # CDB hit: the packet is forwarded on its flow's label.
            if packet.payload:
                for sink in engine.sinks:
                    sink.on_packet(label, packet)
            return label
        if result.ready:
            return engine.classify_apply(result.ready, now, flow_id)
        return None

    def flush(self, now: float) -> int:
        engine = self._engine
        pipeline = engine.pipeline
        if pipeline.batcher.due(now):
            engine.classify_apply(pipeline.drain(reason="delay"), now)
        # The wheel pops in deadline order; freeze in first-arrival
        # order, matching the monolith's expiry sort (keeps any
        # random-skip draws aligned).
        expired = pipeline.pop_expired(now)
        expired.sort(key=lambda item: item[1].seq)
        for flow_id, pending in expired:
            batch = pipeline.make_ready(flow_id, pending, now, force=False)
            if batch:
                engine.classify_apply(batch, now)
        engine.classify_apply(pipeline.drain(reason="timeout"), now)
        return len(expired)

    def finish(self, now: float) -> None:
        engine = self._engine
        pipeline = engine.pipeline
        engine.classify_apply(pipeline.drain(reason="final"), now)
        for flow_id, pending in engine.table.pending_items():
            if pending.queued:
                continue
            batch = pipeline.make_ready(flow_id, pending, now, force=False)
            if batch:
                engine.classify_apply(batch, now)
        engine.classify_apply(pipeline.drain(reason="final"), now)

    def close(self) -> None:
        """Nothing to release: execution is inline."""


register("serial", lambda config: SerialRuntime())
