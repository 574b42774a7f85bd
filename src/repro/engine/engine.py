"""The staged online engine: Figure 1's loop in one object.

``StagedEngine`` runs the stages the paper's Figure 1 draws, each over
the one :class:`~repro.engine.flow_table.FlowTable`:

1. **key** — read the packet's packed 5-tuple, the flow ID every later
   stage is keyed by (:meth:`~StagedEngine.process_packet`);
2. **CDB lookup / buffer / ready** — :meth:`~StagedEngine.ingest`: a
   CDB hit forwards the packet on its label; otherwise the payload is
   buffered, and a full buffer, a FIN/RST or an expired
   :class:`~repro.engine.deadlines.DeadlineWheel` deadline makes the
   flow ready (:meth:`~StagedEngine.make_ready`), which queues it on
   the :class:`~repro.engine.batcher.MicroBatcher`;
3. **extract + classify** — a drained batch goes through one extractor
   ``finalize`` + vectorized predict call
   (:meth:`~StagedEngine.classify_labels`), and its labels go into the
   CDB in one loop (:meth:`~StagedEngine.apply`);
4. **forward** — each drain's outcomes fan out to the pluggable
   :class:`~repro.engine.sinks.ResultSink` list, one
   ``on_flows_classified`` call per sink
   (:meth:`~StagedEngine.classify_apply`).

It runs inline, in arrival order, and concludes what the executable
spec of Figure 1 does (``tests/spec.py``: labels, counters, outcomes,
the CDB and its size series, under any ``max_batch``).
"""

from __future__ import annotations

from functools import partial
from itertools import count
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cdb import DEFAULT_LAMBDA, CdbRecord
from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.extract import make_extractor
from repro.core.headers import skip_threshold, strip_app_header
from repro.core.labels import ALL_NATURES, FlowNature
from repro.engine import batcher as batching
from repro.engine.batcher import MicroBatcher
from repro.engine.deadlines import DeadlineWheel
from repro.engine.flow_table import FlowTable
from repro.engine.sinks import ResultSink, StatsSink
from repro.engine.types import (
    NO_STATS_SINK,
    ClassifiedFlow,
    EngineClosedError,
    EngineStats,
    PendingFlow,
)
from repro.net.flow import FlowKey
from repro.net.packet import Packet
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # in-memory traces are not on the classify path
    from repro.net.trace import Trace

__all__ = ["IngestResult", "StagedEngine", "WindowPolicy"]

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


class IngestResult:
    """What one packet did to the flow table.

    ``label`` is the flow's known label (CDB hit) or None; ``ready`` is
    whatever batch the packet drained (empty when nothing classifies
    yet). :meth:`StagedEngine.ingest` builds one only for a packet that
    drained a batch: hits and packets that leave their flow pending get
    shared instances, so treat a result as read-only.
    """

    __slots__ = ("label", "ready")

    def __init__(self, label=None, ready=()) -> None:
        self.label = label
        self.ready = ready


#: What :meth:`StagedEngine.ingest` returns for a packet that neither hit
#: the CDB nor drained a batch.
_NOTHING = IngestResult()


class WindowPolicy:
    """Freezes a pending flow's classification window.

    Pure classify-side configuration (header stripping/skipping, the
    random-skip defense, the usability bound). The random-skip draws
    come from the engine's one RNG in readiness order, which is what
    keeps the engine's draws aligned with the spec's (``tests/spec.py``).
    With no RNG given, one is created at the first draw, so an engine
    that never skips never imports ``numpy.random``.
    """

    __slots__ = ("config", "min_window", "rng")

    def __init__(self, config, min_window: int, rng) -> None:
        self.config = config
        self.min_window = min_window
        self.rng = rng

    def classification_window(self, raw: bytes) -> "tuple[bytes, str | None]":
        """Apply header stripping/skipping; returns (window, protocol)."""
        config = self.config
        protocol = None
        window = raw
        min_window = self.min_window
        if config.random_skip_max:
            # Section 4.6 defense: examine bytes at an unpredictable offset
            # so adversarial padding at the flow head is skipped over.
            if self.rng is None:
                self.rng = np.random.default_rng()
            skip = int(self.rng.integers(0, config.random_skip_max + 1))
            skipped = skip_threshold(raw, skip)
            if len(skipped) >= min_window:
                window = skipped
        if config.strip_known_headers:
            protocol, window = strip_app_header(window)
        if protocol is None and config.header_threshold:
            thresholded = skip_threshold(window, config.header_threshold)
            if len(thresholded) >= min_window:
                window = thresholded
            # else: short flow — skipping T would leave nothing usable;
            # keep the unskipped bytes rather than dropping the flow.
        return window[: config.buffer_size], protocol

    @property
    def target_bytes(self) -> int:
        """Raw payload bytes to buffer before classifying."""
        return (
            self.config.buffer_size
            + self.config.header_threshold
            + self.config.random_skip_max
        )


class StagedEngine:
    """Staged online flow-nature classifier engine.

    Configure with one frozen :class:`~repro.core.config.EngineConfig`
    (or a bare :class:`IustitiaConfig`, wrapped with engine defaults).
    Without one, the engine buffers the classifier's own ``buffer_size``
    bytes per flow.
    Staging knobs are ``EngineConfig`` fields, not constructor keywords
    — passing any raises ``TypeError``. Unless telemetry
    is disabled (``EngineConfig(telemetry=False)``), every stage
    registers instruments on ``self.metrics`` — a
    :class:`repro.MetricsRegistry`, shareable via the ``registry``
    argument — and a run yields live counters, gauges, and histograms
    for each paper claim (see DESIGN.md's metric map).

    With ``max_batch=1`` the engine is packet for packet what the spec
    concludes, because it keeps every ordering decision of the spec:

    * drained batches classify in push order — readiness order, never
      re-sorted — and a FIN/RST drains the queue into one classify call;
    * a CDB-hit payload packet goes to every sink's ``on_packet`` right
      after :meth:`ingest` returns its label (and after a FIN/RST hit
      has retired the record);
    * timeout expirations freeze in first-arrival (``seq``) order, the
      order the spec's flush walks its pending flows in (and what keeps
      random-skip draws aligned);
    * :meth:`classify_apply` folds each batch's buffered payload in a
      single call, then applies the drain's labels in one :meth:`apply`
      loop in readiness order, so the CDB purge trigger fires at the
      same insert index, and hands every sink the drain in one
      ``on_flows_classified`` call.

    With a larger ``max_batch`` the labels, counters and size series are
    still those of ``max_batch=1`` whenever the queue drains:
    :meth:`make_ready` stamps every flow at readiness. So the batcher's
    wait rule can run on the wall clock: before each packet, the queue
    drains once its oldest flow has waited
    :data:`~repro.engine.batcher.DRAIN_WAIT_COSTS` times the last
    :meth:`classify_apply`.

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
        if config is None:
            # No config: serve the window the model was trained on.
            config = IustitiaConfig(
                buffer_size=classifier.buffer_size,
                feature_set=classifier.feature_set,
            )
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
        self.config = config = engine_config.pipeline
        if config.buffer_size < classifier.feature_set.max_width:
            raise ValueError(
                "engine buffer_size cannot hold the classifier's widest feature"
            )
        # The window the model actually sees is truncated twice on the
        # batch path (engine window, then classifier); bind the extractor
        # to the smaller bound so the incremental path folds exactly the
        # bytes the batch path would classify.
        self.extractor = extractor = make_extractor(
            engine_config.extractor,
            feature_set=classifier.feature_set,
            buffer_size=min(config.buffer_size, classifier.buffer_size),
        )
        self._retains_payload = extractor.retains_payload
        if not self._retains_payload:
            needs_payload = [
                name
                for name, active in (
                    ("strip_known_headers", config.strip_known_headers),
                    ("header_threshold > 0", config.header_threshold > 0),
                    ("random_skip_max > 0", config.random_skip_max > 0),
                )
                if active
            ]
            if needs_payload:
                raise ValueError(
                    f"extractor {extractor.name!r} retains no payload, "
                    "so the engine cannot re-window flows at readiness; "
                    f"disable {', '.join(needs_payload)} or use the 'batch' "
                    "extractor"
                )
        self.table = FlowTable(
            purge_coefficient=config.purge_coefficient,
            purge_trigger_flows=config.purge_trigger_flows,
        )
        self.policy = WindowPolicy(
            config=config, min_window=classifier.feature_set.max_width, rng=rng
        )
        self.wheel = DeadlineWheel()
        self.batcher = MicroBatcher(max_batch=engine_config.max_batch)
        #: Live counters, written by the stages as they run.
        self.stats = EngineStats()
        # Constants of a run, read here once instead of per packet.
        self.buffer_timeout = config.buffer_timeout
        self.reclassify_interval = config.reclassify_interval
        self._target_bytes = self.policy.target_bytes
        self._window_cap = extractor.buffer_size
        self._hit = {nature: IngestResult(label=nature) for nature in ALL_NATURES}
        #: Mints ``PendingFlow.seq``, the first-arrival order of flows.
        self._next_seq = count().__next__
        self._payload_bytes = 0
        self._fold_seconds = 0.0
        self._fold_calls = 0
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
        self._bind_metrics(registry)

    @property
    def runtime(self) -> "StagedEngine":
        """This engine; kept only for bench/'s tracer until ROADMAP 1A."""
        return self

    @property
    def pipelines(self) -> "tuple[StagedEngine]":
        """``(self,)``; kept only for bench/'s tracer until ROADMAP 1A."""
        return (self,)

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

        The counts the engine keeps anyway (``stats``, payload bytes,
        fold time and chunks) are registered as readers, read at scrape
        time; the per-flow distributions are histograms observed once
        per drain.
        """
        self._m_fold_chunks = None
        if registry is None:
            self._m_delay = None
            self._m_classify = None
            self._m_finalize = None
            self._m_state_bytes = None
            return
        self.table.bind_metrics(registry)
        self.wheel.bind_metrics(registry)
        self.batcher.bind_metrics(registry)
        extractor = self.extractor.name
        registry.counter(
            "extractor_fold_seconds_total",
            help="Cumulative wall-clock seconds folding buffered payload "
            "into per-flow feature state",
            reader=lambda: self._fold_seconds,
            extractor=extractor,
        )
        registry.counter(
            "extractor_folds_total",
            help="Payload chunks of classified flows handed to the extractor",
            reader=lambda: self._fold_calls,
            extractor=extractor,
        )
        if not self._retains_payload:
            self._m_fold_chunks = registry.histogram(
                "fold_batch_chunks",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
                help="Payload chunks folded per vectorized fold_batch drain",
            )
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
            extractor=extractor,
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
        return self.dispatch(
            packet, packet.flow_tuple, packet.timestamp, packet.is_close
        )

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        """Apply the wait rule, ingest the packet, and act on the result.

        One of the three frames a packet that needs no classification
        enters (:meth:`process_packet` → ``dispatch`` → :meth:`ingest`),
        so it calls nothing else on that path: the wait rule is inlined
        and the sink loop is its own.
        """
        # The wait rule, before this packet is handled.
        drain_at = self.batcher.drain_at
        if drain_at is not None and batching.clock() > drain_at:
            self.classify_apply(self.batcher.drain(reason="wait"))

        result = self.ingest(packet, flow_id, now, is_close)
        label = result.label
        if label is not None:
            # CDB hit: the packet is forwarded on its flow's label.
            if packet.payload:
                for sink in self.sinks:
                    sink.on_packet(label, packet)
            return label
        if result.ready:
            return self.classify_apply(result.ready, flow_id)
        return None

    def ingest(
        self, packet, flow_id: bytes, now: float, is_close: bool
    ) -> IngestResult:
        """Run one packet through lookup/buffer/ready.

        A result with a ``label`` is a CDB hit: the caller forwards the
        packet to the sinks.
        """
        table = self.table
        record = table.record_of(flow_id)
        if record is not None:
            if (
                self.reclassify_interval
                and record.age(now) > self.reclassify_interval
            ):
                # Section 4.6 defense: long-lived flows are periodically
                # re-examined, so padding only defrauds the first interval.
                table.remove(flow_id, reason="reclassified")
                self.stats.reclassifications += 1
            else:
                self.stats.cdb_hits += 1
                record.touch(now)
                if is_close:
                    table.remove(flow_id, reason="fin")
                    self.stats.fin_removals += 1
                return self._hit[record.label]

        pending = table.pending.get(flow_id)
        if pending is not None and pending.queued:
            # Ready, stamped, its label waiting in the batcher: this is
            # the CDB hit it would be had the batch drained at readiness.
            record = pending.record
            reclassify = self.reclassify_interval
            if reclassify and record.age(now) > reclassify:
                # The defense expires the record before it lands: the
                # queued flow keeps its label, this packet starts over.
                pending.retire = "reclassified"
                self.stats.reclassifications += 1
                pending = None
            else:
                self.stats.cdb_hits += 1
                record.touch(now)
                if packet.payload:
                    pending.packets.append(packet)
                if is_close:
                    # Retired when its label lands; the close needs it now.
                    pending.retire = "fin"
                    return IngestResult(ready=self.batcher.drain(reason="close"))
                return _NOTHING
        created = pending is None
        if created:
            # ``flow_id`` is this packet's ``flow_tuple``: the 5-tuple
            # passed ``struct.pack``'s range check to become it.
            pending = PendingFlow(
                FlowKey.unchecked(*packet.five_tuple),
                self._next_seq(),
                now,
                flow_id,
            )
            table.pending[flow_id] = pending
        else:
            pending.last_arrival = now
        payload = packet.payload
        buffer = pending.buffer
        if payload:
            # Appended until the flow is ready, then never again: the
            # buffer holds at most one packet past the target.
            buffer.extend(payload)
            pending.chunks += 1
            pending.packets.append(packet)

        if len(buffer) >= self._target_bytes or is_close:
            # Buffer full — or the flow is over; classify whatever
            # arrived (or give up).
            if is_close:
                pending.retire = "fin"
            ready = self.make_ready(flow_id, pending, now, is_close, not created)
            return IngestResult(ready=ready) if ready else _NOTHING
        if created:
            # Armed once per flow, and only for a flow left pending (one
            # complete on arrival would cancel it within this same call);
            # later packets move ``last_arrival``, which
            # :meth:`pop_expired` checks when this deadline fires.
            self.wheel.schedule(flow_id, now + self.buffer_timeout)
        return _NOTHING

    # -- readiness -----------------------------------------------------------

    def make_ready(
        self,
        flow_id: bytes,
        pending: PendingFlow,
        now: float,
        force: bool,
        armed: bool = True,
    ) -> "list[PendingFlow]":
        """Freeze a flow's window, stamp it, and hand it to the batcher.

        Too-short windows are dropped as unclassifiable on the spot
        (the window cannot improve: readiness means the buffer is full,
        the flow closed, or its deadline expired). Everything a label
        is stamped with is fixed here, at ``now`` — the outcome's
        ``classified_at`` and the CDB record's first arrival, and so
        the time of the inactivity sweep its insert may fire — so no
        label or counter depends on when the batch drains. Returns
        whatever the push drained — non-empty when the size trigger
        fired, this flow's insert fires the sweep, or ``force`` flushed
        the queue (FIN/RST needs the label *now*). ``armed=False`` says
        the flow never got a buffer deadline (its first packet made it
        ready), so there is none to cancel.
        """
        if armed:
            self.wheel.cancel(flow_id)
        if self._retains_payload:
            window, protocol = self.policy.classification_window(
                bytes(pending.buffer)
            )
            usable = len(window)
        else:
            # A streaming state is its own window: the classify drain
            # folds the buffer into it, up to the cap.
            window, protocol = self.extractor.new_state(), None
            usable = min(len(pending.buffer), self._window_cap)
        if usable < self.policy.min_window:
            self.stats.unclassifiable += 1
            self.table.pending.pop(flow_id, None)
            return []
        pending.window = window
        pending.protocol = protocol
        pending.queued = True
        pending.ready_at = now
        pending.record = CdbRecord(None, now, DEFAULT_LAMBDA, now)
        table = self.table
        trigger = table.purge_trigger_flows
        batch = self.batcher.push(
            pending, trigger - table.inserts_since_purge if trigger else 0
        )
        if force and batch is None:
            batch = self.batcher.drain(reason="close")
        return batch if batch else []

    def pop_expired(self, now: float) -> "list[tuple[bytes, PendingFlow]]":
        """Pending flows silent for longer than ``buffer_timeout``.

        A flow's deadline is armed once, when :meth:`ingest` creates it;
        later packets only move ``last_arrival``. So a fired deadline is a
        cue to look: the flow expired iff ``last_arrival + buffer_timeout
        < now`` — the test an eagerly rescheduled deadline would make —
        and is otherwise re-armed at that true deadline. On a
        nondecreasing clock the armed deadline never lies after the true
        one, so no expiry is late.
        """
        pending_get = self.table.pending.get
        timeout = self.buffer_timeout
        expired = []
        for flow_id in self.wheel.pop_expired(now):
            pending = pending_get(flow_id)
            if pending is None:
                continue
            deadline = pending.last_arrival + timeout
            if deadline < now:
                expired.append((flow_id, pending))
            else:
                self.wheel.schedule(flow_id, deadline)
        return expired

    # -- classify drain -------------------------------------------------------

    def fold_for(self, batch: "list[PendingFlow]") -> None:
        """Hand a drain's buffered payload to the extractor.

        :meth:`classify_apply` calls this once per drain. A streaming
        extractor's states fill from their flows' buffers in one
        ``fold_batch`` call — one chunk per flow, whatever number of
        packets it arrived in; the batch extractor's windows were cut
        at readiness, so its drain only counts the chunks.
        """
        m_fold_chunks = self._m_fold_chunks
        if self.metrics is not None:
            chunks = sum([pending.chunks for pending in batch])
            self._fold_calls += chunks
        if self._retains_payload:
            return
        flows = [pending for pending in batch if pending.buffer]
        if not flows:
            return
        states = [pending.window for pending in flows]
        # A chunk list of one, not the bare buffer: whoever counts chunks
        # takes the length of ``payloads[i]``.
        chunk_lists = [(pending.buffer,) for pending in flows]
        if m_fold_chunks is not None:
            fold_start = perf_counter()
            self.extractor.fold_batch(states, chunk_lists)
            self._fold_seconds += perf_counter() - fold_start
            m_fold_chunks.observe(chunks)
        else:
            self.extractor.fold_batch(states, chunk_lists)

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

    def apply(
        self, batch: "list[PendingFlow]", labels
    ) -> "tuple[list[ClassifiedFlow], list[list]]":
        """Store a drain's labels; single writer of the table.

        One loop over the drain, in readiness order: each flow leaves the
        pending table, and its CDB record — stamped at readiness — is
        inserted, which fires the CDB's inactivity sweep every
        ``purge_trigger_flows`` inserts, at that flow's ``ready_at``; a
        flow with a ``retire`` reason is removed at once. Returns the
        outcomes (timed at readiness) and, beside them, each flow's
        buffered packets, for :meth:`classify_apply` to hand every sink
        in one call.
        """
        table = self.table
        pending = table.pending
        pending_get = pending.get
        # The CDB's own dict, written here as ``insert_record`` would:
        # the countdown reaches zero at the insert that fires the sweep.
        records = table._records
        trigger = table.purge_trigger_flows
        until_sweep = trigger - table.inserts_since_purge
        stats = self.stats
        per_class = stats.per_class
        new_outcome = tuple.__new__
        outcomes = []
        packets = []
        for flow, label in zip(batch, labels):
            flow_id = flow.flow_id
            if pending_get(flow_id) is flow:
                # Not so for a flow reclassified while queued: its
                # successor already buffers under the same ID.
                del pending[flow_id]
            record = flow.record
            record.label = label
            records[flow_id] = record
            until_sweep -= 1
            if until_sweep <= 0 and trigger:
                table.purge_inactive(record.classified_at)
                until_sweep = trigger
            per_class[label] += 1
            ready_at = flow.ready_at
            outcomes.append(new_outcome(ClassifiedFlow, (
                flow.key,
                label,
                ready_at,
                ready_at - flow.first_arrival,
                len(flow.buffer),
                flow.protocol,
            )))
            packets.append(flow.packets)
            retire = flow.retire
            if retire is not None:
                table.remove(flow_id, reason=retire)
                if retire == "fin":
                    stats.fin_removals += 1
        landed = len(outcomes)
        table.total_inserted += landed
        table.inserts_since_purge = trigger - until_sweep
        stats.classifications += landed
        return outcomes, packets

    def classify_apply(
        self, batch, flow_id: "bytes | None" = None
    ) -> "FlowNature | None":
        """Fold, classify and apply a drained batch inline.

        Returns the label ``flow_id``'s flow got, when the batch held it
        (the packet that drained the batch wants its own flow's label).
        Its wall time, sink fan-out included, sets the batcher's wait
        rule.
        """
        if not batch:
            return None
        start = batching.clock()
        self.fold_for(batch)
        labels = self.classify_labels(batch)
        outcomes, packets = self.apply(batch, labels)
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

    # -- stream control --------------------------------------------------------

    def flush_timeouts(self, now: float) -> int:
        """Classify pending flows inactive beyond ``buffer_timeout``.

        Implements "when ... the buffer stops receiving packets for a
        certain period of time" (Section 4.4.1). The deadline wheel
        makes this O(expired), independent of how many flows are live.
        Returns how many flows were handled (classified or dropped).
        The queue drains whole at the end, so the wait rule is not
        consulted here.
        """
        self._ensure_open()
        # The wheel pops in deadline order; freeze in first-arrival
        # order, as the spec's flush does (keeps any random-skip draws
        # aligned).
        expired = self.pop_expired(now)
        expired.sort(key=lambda item: item[1].seq)
        for flow_id, pending in expired:
            batch = self.make_ready(flow_id, pending, now, force=False)
            if batch:
                self.classify_apply(batch)
        self.classify_apply(self.batcher.drain(reason="timeout"))
        return len(expired)

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
        self.classify_apply(self.batcher.drain(reason="final"))
        for flow_id, pending in self.table.pending_items():
            if pending.queued:
                continue
            batch = self.make_ready(flow_id, pending, now, force=False)
            if batch:
                self.classify_apply(batch)
        self.classify_apply(self.batcher.drain(reason="final"))
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
