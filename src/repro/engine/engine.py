"""The staged online engine: a thin facade over one flow pipeline.

``StagedEngine`` composes the explicit pipeline stages that the paper's
Figure 1 draws:

1. **key** — read the packet's packed 5-tuple, the flow ID every later
   stage is keyed by (the facade's only per-packet job);
2. **CDB lookup / buffer / ready** — owned by the
   :class:`~repro.engine.pipeline.FlowPipeline` over the one
   :class:`~repro.engine.flow_table.FlowTable`: pending buffers, the
   :class:`~repro.engine.deadlines.DeadlineWheel`, and the
   :class:`~repro.engine.batcher.MicroBatcher`;
3. **extract + classify** — ready flows drain through one extractor
   ``finalize`` + vectorized predict call per batch
   (:meth:`classify_labels`), then apply back to the table;
4. **forward** — each drain's outcomes fan out to the pluggable
   :class:`~repro.engine.sinks.ResultSink` list, one
   ``on_flows_classified`` call per sink (:meth:`classify_apply`).

:class:`SerialRuntime` drives the pipeline inline, in arrival order,
and concludes what the executable spec of Figure 1 does
(``tests/spec.py``: labels, counters, outcomes, the CDB and its size
series, under any ``max_batch``). The facade keeps dispatch, the
classify kernels, sink fan-out, and the readers that put its counts on
the metrics registry.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.extract import make_extractor
from repro.core.labels import ALL_NATURES, FlowNature
from repro.engine import batcher as batching
from repro.engine.flow_table import FlowTable
from repro.engine.pipeline import FlowPipeline, WindowPolicy
from repro.engine.sinks import ResultSink, StatsSink
from repro.engine.types import NO_STATS_SINK, EngineClosedError, EngineStats
from repro.net.packet import Packet
from repro.obs import MetricsRegistry

if TYPE_CHECKING:  # in-memory traces are not on the classify path
    import numpy as np

    from repro.net.trace import Trace

__all__ = ["SerialRuntime", "StagedEngine"]

#: Buckets for per-flow state bytes: centred on the paper's ~200 B
#: (b=32) and 5.1 KB (b=1024) Table-3 figures.
STATE_BYTE_BUCKETS = (
    64.0, 128.0, 192.0, 256.0, 384.0, 512.0, 1024.0, 2048.0, 5120.0, 8192.0
)

#: Buckets for the classification-delay histogram: from sub-millisecond
#: single-packet fills up to the 10 s buffer timeout.
DELAY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)

#: ``EngineStats`` fields the registry reads as counters (scrape time).
_STATS_COUNTERS = (
    ("engine_packets_total", "packets", "Packets ingested"),
    ("engine_cdb_hits_total", "cdb_hits",
     "Packets forwarded via an existing CDB label"),
    ("engine_unclassifiable_total", "unclassifiable",
     "Flows dropped with too little payload to classify"),
    ("engine_reclassifications_total", "reclassifications",
     "CDB records expired by the reclassification defense"),
    ("engine_dispatch_errors_total", "dispatch_errors",
     "Packets whose dispatch raised and process_source's on_error "
     "callable absorbed"),
)


class SerialRuntime:
    """Inline, single-threaded execution of an engine's flow pipeline.

    The reference semantics: with ``max_batch=1`` the engine is
    packet-for-packet what the executable spec (``tests/spec.py``, which
    classifies each flow the instant it is ready) concludes — labels,
    counters, outcomes, CDB, size series; the spec-based suites check
    it — because every ordering decision of the spec is reproduced:

    * drained batches classify in push order — readiness order, never
      re-sorted — and a FIN/RST drains the queue into one classify call;
    * a CDB-hit payload packet goes to every sink's ``on_packet`` right
      after ``ingest`` returns its label (and after a FIN/RST hit has
      retired the record);
    * timeout expirations freeze in first-arrival (``seq``) order, the
      order the spec's flush walks its pending flows in (and what keeps
      random-skip draws aligned);
    * ``engine.classify_apply`` folds each batch's buffered payload in a
      single call, then applies the drain's labels in one
      ``pipeline.apply`` loop in readiness order, so the CDB purge
      trigger fires at the same insert index, and hands every sink the
      drain in one ``on_flows_classified`` call.

    With a larger ``max_batch`` the labels, counters and size series are
    still those of ``max_batch=1`` whenever the queue drains: the
    pipeline stamps every flow at readiness
    (:meth:`~repro.engine.pipeline.FlowPipeline.make_ready`). So the
    batcher's wait rule can run on the wall clock: before each packet,
    the queue drains once its oldest flow has waited
    :data:`~repro.engine.batcher.DRAIN_WAIT_COSTS` times the last
    :meth:`StagedEngine.classify_apply`.

    ``dispatch`` is one of the three frames a packet that needs no
    classification enters (``engine.process_packet`` → ``dispatch`` →
    ``pipeline.ingest``), so it calls nothing else on that path: the
    wait rule is inlined and the sink loop is its own.
    """

    def __init__(self, engine: "StagedEngine") -> None:
        self._engine = engine

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        engine = self._engine
        pipeline = engine.pipeline
        # The wait rule, before this packet is handled.
        drain_at = pipeline.batcher.drain_at
        if drain_at is not None and batching.clock() > drain_at:
            engine.classify_apply(pipeline.drain(reason="wait"))

        result = pipeline.ingest(packet, flow_id, now, is_close)
        label = result.label
        if label is not None:
            # CDB hit: the packet is forwarded on its flow's label.
            if packet.payload:
                for sink in engine.sinks:
                    sink.on_packet(label, packet)
            return label
        if result.ready:
            return engine.classify_apply(result.ready, flow_id)
        return None

    def flush(self, now: float) -> int:
        """Classify pending flows inactive beyond ``buffer_timeout``.

        Returns how many flows expired. The queue drains whole at the
        end, so the wait rule is not consulted here.
        """
        engine = self._engine
        pipeline = engine.pipeline
        # The wheel pops in deadline order; freeze in first-arrival
        # order, as the spec's flush does (keeps any random-skip draws
        # aligned).
        expired = pipeline.pop_expired(now)
        expired.sort(key=lambda item: item[1].seq)
        for flow_id, pending in expired:
            batch = pipeline.make_ready(flow_id, pending, now, force=False)
            if batch:
                engine.classify_apply(batch)
        engine.classify_apply(pipeline.drain(reason="timeout"))
        return len(expired)

    def finish(self, now: float) -> None:
        """End of stream: classify everything pending."""
        engine = self._engine
        pipeline = engine.pipeline
        engine.classify_apply(pipeline.drain(reason="final"))
        for flow_id, pending in engine.table.pending_items():
            if pending.queued:
                continue
            batch = pipeline.make_ready(flow_id, pending, now, force=False)
            if batch:
                engine.classify_apply(batch)
        engine.classify_apply(pipeline.drain(reason="final"))


class StagedEngine:
    """Staged online flow-nature classifier engine.

    Configure with one frozen :class:`~repro.core.config.EngineConfig`
    (or a bare :class:`IustitiaConfig`, wrapped with engine defaults).
    Staging knobs are ``EngineConfig`` fields, not constructor keywords
    — passing any raises ``TypeError``. Unless telemetry
    is disabled (``EngineConfig(telemetry=False)``), every stage
    registers instruments on ``self.metrics`` — a
    :class:`repro.obs.MetricsRegistry`, shareable via the ``registry``
    argument — and a run yields live counters, gauges, and histograms
    for each paper claim (see DESIGN.md's metric map).

    Call :meth:`close` (or use the engine as a context manager) when
    done: it flushes the sinks.
    """

    def __init__(
        self,
        classifier: IustitiaClassifier,
        config: "EngineConfig | IustitiaConfig | None" = None,
        rng: "np.random.Generator | None" = None,
        *,
        sinks: "list[ResultSink] | None" = None,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        if isinstance(config, EngineConfig):
            engine_config = config
        else:
            engine_config = EngineConfig(pipeline=config)
        self.sinks: list[ResultSink] = (
            list(sinks) if sinks is not None else [StatsSink()]
        )
        for sink in self.sinks:
            # Both events are required: a sink without on_packet would
            # pass here and fail at its first CDB hit, mid-stream.
            missing = [
                event
                for event in ("on_flow_classified", "on_packet")
                if not callable(getattr(sink, event, None))
            ]
            if missing:
                raise TypeError(
                    f"{type(sink).__name__} does not implement the "
                    f"ResultSink protocol (missing {', '.join(missing)})"
                )
        self.classifier = classifier
        self.engine_config = engine_config
        self.config = engine_config.pipeline
        if self.config.buffer_size < classifier.feature_set.max_width:
            raise ValueError(
                "engine buffer_size cannot hold the classifier's widest feature"
            )
        # The window the model actually sees is truncated twice on the
        # batch path (engine window, then classifier); bind the extractor
        # to the smaller bound so the incremental path folds exactly the
        # bytes the batch path would classify.
        self.extractor = make_extractor(
            engine_config.extractor,
            feature_set=classifier.feature_set,
            buffer_size=min(self.config.buffer_size, classifier.buffer_size),
        )
        if not self.extractor.retains_payload:
            needs_payload = [
                name
                for name, active in (
                    ("strip_known_headers", self.config.strip_known_headers),
                    ("header_threshold > 0", self.config.header_threshold > 0),
                    ("random_skip_max > 0", self.config.random_skip_max > 0),
                )
                if active
            ]
            if needs_payload:
                raise ValueError(
                    f"extractor {self.extractor.name!r} retains no payload, "
                    "so the engine cannot re-window flows at readiness; "
                    f"disable {', '.join(needs_payload)} or use the 'batch' "
                    "extractor"
                )
        self.table = FlowTable(
            purge_coefficient=self.config.purge_coefficient,
            purge_trigger_flows=self.config.purge_trigger_flows,
        )
        self.pipeline = FlowPipeline(
            self.table,
            extractor=self.extractor,
            policy=WindowPolicy(
                config=self.config,
                min_window=classifier.feature_set.max_width,
                rng=rng,
            ),
            max_batch=engine_config.max_batch,
            buffer_timeout=self.config.buffer_timeout,
            reclassify_interval=self.config.reclassify_interval,
        )
        #: The one pipeline, as the iterable external instrumentation
        #: (the benchmark's tracer) walks.
        self.pipelines = (self.pipeline,)
        self.wheel = self.pipeline.wheel
        self.batcher = self.pipeline.batcher
        #: Live counters: the engine counts packets, the pipeline the rest.
        self.stats: EngineStats = self.pipeline.stats
        self._payload_bytes = 0
        for sink in self.sinks:
            if isinstance(sink, StatsSink):
                # Surface the sink's list as stats.classified.
                self.stats.classified = sink.classified
                break
        self._closed = False
        self._finished = False
        if registry is None and engine_config.telemetry:
            registry = MetricsRegistry()
        self.metrics: "MetricsRegistry | None" = registry
        #: Kept as an attribute (not inlined into :meth:`process_packet`)
        #: because the benchmark's tracer wraps ``runtime.dispatch``.
        self.runtime = SerialRuntime(self)
        self._bind_metrics(registry)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Flush the sinks (idempotent).

        After closing, the engine is read-only: counters, metrics, and
        collected outcomes stay available, but processing more packets
        raises :class:`~repro.engine.types.EngineClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        for sink in self.sinks:
            flush = getattr(sink, "flush", None)
            if callable(flush):
                flush()

    def _ensure_open(self) -> None:
        if self._closed:
            raise EngineClosedError(
                "engine is closed; build a new engine to process more packets"
            )

    def __enter__(self) -> "StagedEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- telemetry -----------------------------------------------------------

    def _bind_metrics(self, registry: "MetricsRegistry | None") -> None:
        """Create this engine's instruments (every stage binds too).

        The counts the engine keeps anyway (``stats``, payload bytes)
        are registered as readers, read at scrape time; the per-flow
        distributions are histograms observed once per drain.
        """
        if registry is None:
            self._m_delay = None
            self._m_classify = None
            self._m_finalize = None
            self._m_state_bytes = None
            return
        self.table.bind_metrics(registry)
        self.pipeline.bind_metrics(registry)
        self._m_delay = registry.histogram(
            "engine_classification_delay_seconds",
            buckets=DELAY_BUCKETS,
            help="Packet-clock delay from a flow's first payload byte to "
            "its label (the paper's Section 5 delay metric)",
        )
        self._m_classify = registry.histogram(
            "engine_classify_batch_seconds",
            help="Wall-clock seconds per micro-batched classify call",
        )
        self._m_finalize = registry.histogram(
            "extractor_finalize_seconds",
            help="Wall-clock seconds per batched extractor finalize "
            "(feature-matrix construction inside the classify call)",
            extractor=self.extractor.name,
        )
        self._m_state_bytes = registry.histogram(
            "engine_flow_state_bytes",
            buckets=STATE_BYTE_BUCKETS,
            help="Per-flow state at classification (window/counters + CDB "
            "record; the paper's ~200 B claim at b=32), every flow",
        )
        stats = self.stats
        for name, field, help_text in _STATS_COUNTERS:
            registry.counter(
                name, help=help_text, reader=partial(getattr, stats, field)
            )
        registry.counter(
            "engine_payload_bytes_total",
            help="Payload bytes ingested",
            reader=lambda: self._payload_bytes,
        )
        for nature in ALL_NATURES:
            registry.counter(
                "engine_classifications_total",
                help="Flows classified, by assigned nature",
                reader=partial(stats.per_class.__getitem__, nature),
                nature=str(nature),
            )

    # -- coordinator surface (called by SerialRuntime) -------------------------

    def classify_labels(self, batch):
        """Run the batched finalize + predict kernels over ready flows.

        Pure classification: the flow table is not touched. One
        ``finalize`` call gives the feature matrix and every flow's
        state bytes; the classify/finalize timers and the delay /
        state-bytes distributions are observed once per drain, from the
        ready flows' own fields alone.
        """
        payloads = [flow.window for flow in batch]
        if self._m_classify is None:
            return self.classifier.predict_vectors(
                self.extractor.finalize(payloads)[0]
            )
        with self._m_classify.time():
            with self._m_finalize.time():
                X, state_bytes = self.extractor.finalize(payloads)
            labels = self.classifier.predict_vectors(X)
        self._m_delay.observe_many(
            [flow.ready_at - flow.first_arrival for flow in batch]
        )
        self._m_state_bytes.observe_many(state_bytes)
        return labels

    def classify_apply(
        self, batch, flow_id: "bytes | None" = None
    ) -> "FlowNature | None":
        """Fold, classify and apply a drained batch inline (serial path).

        Returns the label ``flow_id``'s flow got, when the batch held it
        (the packet that drained the batch wants its own flow's label).
        Its wall time, sink fan-out included, sets the batcher's wait
        rule.
        """
        if not batch:
            return None
        start = batching.clock()
        pipeline = self.pipeline
        pipeline.fold_for(batch)
        labels = self.classify_labels(batch)
        outcomes, packets = pipeline.apply(batch, labels)
        for sink in self.sinks:
            on_flows = getattr(sink, "on_flows_classified", None)
            if on_flows is not None:
                on_flows(outcomes, packets)
            else:
                # A duck-typed sink with the per-flow method only.
                on_flow = sink.on_flow_classified
                for outcome, buffered in zip(outcomes, packets):
                    on_flow(outcome, buffered)
        own = None
        if flow_id is not None:
            # The drain's last flow of that ID is the one now pending.
            for index in range(len(batch) - 1, -1, -1):
                if batch[index].flow_id == flow_id:
                    own = labels[index]
                    break
        self.batcher.record_drain_cost(batching.clock() - start)
        return own

    # -- packet path ----------------------------------------------------------

    def process_packet(self, packet: Packet) -> "FlowNature | None":
        """Run one packet through the stages; returns its flow's label if known."""
        if self._closed:
            self._ensure_open()
        self._finished = False
        stats = self.stats
        stats.packets += 1
        payload = packet.payload
        if payload:
            stats.data_packets += 1
            self._payload_bytes += len(payload)
        return self.runtime.dispatch(
            packet, packet.flow_tuple, packet.timestamp, packet.is_close
        )

    def flush_timeouts(self, now: float) -> int:
        """Classify pending flows inactive beyond ``buffer_timeout``.

        Implements "when ... the buffer stops receiving packets for a
        certain period of time" (Section 4.4.1). The deadline wheel
        makes this O(expired), independent of how many flows are live.
        Returns how many flows were handled (classified or dropped).
        """
        self._ensure_open()
        return self.runtime.flush(now)

    def finish(self, now: float) -> None:
        """End of stream: drain the batcher and classify every pending flow.

        Raises :class:`~repro.engine.types.EngineClosedError` when called
        twice with no packets in between — the stream already drained,
        and a silent second drain would report an empty run.
        """
        self._ensure_open()
        if self._finished:
            raise EngineClosedError(
                "finish() called twice with no packets in between; the "
                "stream already drained (process more packets to resume, "
                "or build a new engine)"
            )
        self.runtime.finish(now)
        self._finished = True

    def process_source(
        self,
        source,
        sample_interval: float = 1.0,
        *,
        on_error=None,
    ) -> EngineStats:
        """Run any packet iterable through the engine in bounded memory.

        ``source`` is anything yielding :class:`Packet` in timestamp
        order — a list, a generator, or a packet source such as
        :class:`repro.PcapFileSource` (which never materializes the
        capture). Memory stays O(live flows), independent of stream
        length. Timeout flushes and the Figure-8 CDB size series tick on
        the packet clock every ``sample_interval`` seconds, and the
        stream is drained (:meth:`finish`) at the final packet's
        timestamp — packet for packet what :meth:`process_trace` does.

        ``on_error`` decides what a per-packet dispatch failure does:
        ``None`` (the default) raises it; a callable ``(packet, exc)``
        is handed the failing packet, the packet is counted in
        ``stats.dispatch_errors`` (``engine_dispatch_errors_total``)
        and the stream goes on — a no-op callable drops it, a spool
        dead-letters it. An exception from the callable propagates.
        Errors raised by the *source iterator* are never absorbed here
        (wrap the source in a :class:`repro.SupervisedSource`),
        and :class:`~repro.engine.types.EngineClosedError` is always
        fatal: it is a usage bug, not a stream fault.
        """
        if sample_interval <= 0:
            raise ValueError(f"sample_interval must be positive, got {sample_interval}")
        if on_error is not None and not callable(on_error):
            raise TypeError(
                "on_error must be None or a callable (packet, exc), got "
                f"{type(on_error).__name__}"
            )
        next_sample = None
        final = None
        series = self.stats.cdb_size_series
        process_packet = self.process_packet
        for packet in source:
            try:
                process_packet(packet)
            except EngineClosedError:
                raise
            except Exception as exc:
                if on_error is None:
                    raise
                on_error(packet, exc)
                self.stats.dispatch_errors += 1
            final = packet.timestamp
            if next_sample is None:
                next_sample = final + sample_interval
            elif final >= next_sample:
                # One flush covers every sample interval an idle gap
                # crossed: a second flush at the same ``final`` finds
                # nothing due, nothing expired and nothing queued.
                self.flush_timeouts(final)
                size = len(self.table)
                while final >= next_sample:
                    series.append((next_sample, size))
                    next_sample += sample_interval
        if final is not None:
            self.finish(final)
            if series and series[-1][0] == final:
                # The in-loop sampler already emitted a sample at exactly
                # the final timestamp; replace it (the drain above may have
                # changed the CDB size) instead of appending a duplicate.
                series[-1] = (final, len(self.table))
            else:
                series.append((final, len(self.table)))
        return self.stats

    def process_trace(
        self, trace: Trace, sample_interval: float = 1.0
    ) -> EngineStats:
        """Run a whole in-memory trace (see :meth:`process_source`).

        Samples the CDB size and triggers timeout flushes every
        ``sample_interval`` packet-clock seconds, and classifies any
        flows still pending at the end of the trace.
        """
        return self.process_source(trace.packets, sample_interval)

    # -- evaluation ------------------------------------------------------------

    def evaluate_against(self, trace: Trace) -> dict[str, float]:
        """Accuracy of this run's flow labels against trace ground truth.

        Reads outcomes from the attached :class:`StatsSink`; only flows
        that were classified and have ground truth count. Returns overall
        accuracy plus per-class recall.
        """
        if not trace.labels:
            raise ValueError("trace carries no ground-truth labels")
        if not any(isinstance(sink, StatsSink) for sink in self.sinks):
            raise ValueError(NO_STATS_SINK)
        total = 0
        correct = 0
        per_class_total = {nature: 0 for nature in ALL_NATURES}
        per_class_correct = {nature: 0 for nature in ALL_NATURES}
        for outcome in self.stats.classified:
            truth = trace.labels.get(outcome.key)
            if truth is None:
                continue
            total += 1
            per_class_total[truth] += 1
            if outcome.label == truth:
                correct += 1
                per_class_correct[truth] += 1
        if total == 0:
            raise ValueError("no classified flows matched ground truth")
        report = {"accuracy": correct / total}
        for nature in ALL_NATURES:
            denominator = per_class_total[nature]
            report[f"recall_{nature}"] = (
                per_class_correct[nature] / denominator if denominator else float("nan")
            )
        return report
