"""The per-packet pipeline: lookup, buffer, ready — and fold and label apply.

:class:`FlowPipeline` owns every stage between the flow key and the
classifier, all of it keyed by one
:class:`~repro.engine.flow_table.FlowTable`: the CDB lookup, the pending
buffers, the :class:`~repro.engine.deadlines.DeadlineWheel` of
buffer-timeout deadlines, the per-drain fold of streaming extractors, and
the :class:`~repro.engine.batcher.MicroBatcher` of ready flows — behind
a narrow surface (:meth:`ingest` / :meth:`pop_expired` / :meth:`drain` /
:meth:`apply`).

The split from the engine is along read/write sets:

* everything from CDB lookup through window freezing writes only the
  flow table, so it lives here;
* classification itself (extractor ``finalize`` + vectorized predict)
  reads only frozen windows, so the pipeline never classifies — it
  emits batches of ready :class:`~repro.engine.types.PendingFlow`\\ s
  and the runtime hands back labels through :meth:`apply`;
* sink fan-out is the engine's and the runtime's: :meth:`ingest`
  returns a known flow's label and the caller forwards the packet.

``stats`` fields written here: ``cdb_hits``, ``classifications``,
``unclassifiable``, ``fin_removals``, ``reclassifications``,
``per_class``. The packet counters are the engine's (it sees every
packet first).
"""

from __future__ import annotations

from itertools import count
from time import perf_counter

import numpy as np

from repro.core.cdb import DEFAULT_LAMBDA, CdbRecord
from repro.core.headers import skip_threshold, strip_app_header
from repro.core.labels import ALL_NATURES
from repro.engine.batcher import MicroBatcher
from repro.engine.deadlines import DeadlineWheel
from repro.engine.flow_table import FlowTable
from repro.engine.types import ClassifiedFlow, EngineStats, PendingFlow
from repro.net.flow import FlowKey

__all__ = ["FlowPipeline", "IngestResult", "WindowPolicy"]


class IngestResult:
    """What one packet did to the flow table.

    ``label`` is the flow's known label (CDB hit) or None; ``ready`` is
    whatever batch the packet drained (empty when nothing classifies
    yet). :meth:`FlowPipeline.ingest` builds one only for a packet that
    drained a batch: hits and packets that leave their flow pending get
    shared instances, so treat a result as read-only.
    """

    __slots__ = ("label", "ready")

    def __init__(self, label=None, ready=()) -> None:
        self.label = label
        self.ready = ready


#: What :meth:`FlowPipeline.ingest` returns for a packet that neither hit
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


class FlowPipeline:
    """The ingest→buffer→ready pipeline over one flow table.

    Owns the deadline wheel and the micro-batcher; reads and writes the
    table's pending dict and CDB. Never classifies: ready flows leave
    through the return values of :meth:`ingest` / :meth:`make_ready` /
    :meth:`drain`, and labels come back through :meth:`apply`.
    """

    def __init__(
        self,
        table: FlowTable,
        *,
        extractor,
        policy: WindowPolicy,
        max_batch: int,
        buffer_timeout: float,
        reclassify_interval: float,
    ) -> None:
        self.table = table
        self.extractor = extractor
        self.policy = policy
        self.buffer_timeout = buffer_timeout
        self.reclassify_interval = reclassify_interval
        # Constants of a run, read here once instead of per packet.
        self._target_bytes = policy.target_bytes
        self._window_cap = extractor.buffer_size
        self._hit = {nature: IngestResult(label=nature) for nature in ALL_NATURES}
        #: Mints ``PendingFlow.seq``, the first-arrival order of flows.
        self._next_seq = count().__next__
        self.wheel = DeadlineWheel()
        self.batcher = MicroBatcher(max_batch=max_batch)
        self._retains_payload = extractor.retains_payload
        self.stats = EngineStats()
        self._time_folds = False
        self._m_fold_chunks = None
        self._fold_seconds = 0.0
        self._fold_calls = 0

    # -- telemetry -----------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Bind the wheel's, the batcher's and the fold stage's instruments.

        Fold time and chunks stay plain numbers here, read by their
        counters at scrape time (the engine registers :attr:`stats`).
        """
        self.wheel.bind_metrics(registry)
        self.batcher.bind_metrics(registry)
        registry.counter(
            "extractor_fold_seconds_total",
            help="Cumulative wall-clock seconds folding buffered payload "
            "into per-flow feature state",
            reader=lambda: self._fold_seconds,
            extractor=self.extractor.name,
        )
        registry.counter(
            "extractor_folds_total",
            help="Payload chunks of classified flows handed to the extractor",
            reader=lambda: self._fold_calls,
            extractor=self.extractor.name,
        )
        if not self._retains_payload:
            self._m_fold_chunks = registry.histogram(
                "fold_batch_chunks",
                buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
                help="Payload chunks folded per vectorized fold_batch drain",
            )
        self._time_folds = True

    # -- fold stage ----------------------------------------------------------

    def fold_for(self, batch: "list[PendingFlow]") -> None:
        """Hand a drain's buffered payload to the extractor.

        The engine calls this once per classify drain. A streaming
        extractor's states fill from their flows' buffers in one
        ``fold_batch`` call — one chunk per flow, whatever number of
        packets it arrived in; the batch extractor's windows were cut
        at readiness, so its drain only counts the chunks.
        """
        time_folds = self._time_folds
        if time_folds:
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
        if time_folds:
            fold_start = perf_counter()
            self.extractor.fold_batch(states, chunk_lists)
            self._fold_seconds += perf_counter() - fold_start
            self._m_fold_chunks.observe(chunks)
        else:
            self.extractor.fold_batch(states, chunk_lists)

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

    def drain(self, reason: str = "manual") -> "list[PendingFlow]":
        """Flush the micro-batch."""
        return self.batcher.drain(reason=reason)

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

    # -- packet path ---------------------------------------------------------

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
                    return IngestResult(ready=self.drain(reason="close"))
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

    # -- label application ---------------------------------------------------

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
        buffered packets, for the engine to hand every sink in one call.
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
