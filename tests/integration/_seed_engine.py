"""Reference oracle: the seed monolithic engine, frozen for equivalence tests.

This is a verbatim-behaviour copy of the original ``core/pipeline.py``
engine as it stood before the staged-engine refactor (commit c09b7ef):
one flat class with an unsharded CDB, O(pending) timeout scans,
immediate per-flow classification on the fill path, and hard-coded
output queues.

It exists ONLY so ``test_staged_equivalence`` can prove that
``StagedEngine(max_batch=1)`` reproduces the seed's labels, counters,
and CDB size series packet for packet. Do not use it outside the tests;
do not "fix" it: its behaviour is the specification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cdb import ClassificationDatabase
from repro.core.config import IustitiaConfig
from repro.core.headers import skip_threshold, strip_app_header
from repro.core.labels import ALL_NATURES
from repro.net.flow import FlowKey
from repro.net.hashing import flow_hash


@dataclass
class _PendingFlow:
    key: FlowKey
    buffer: bytearray = field(default_factory=bytearray)
    packets: list = field(default_factory=list)
    first_arrival: float = 0.0
    last_arrival: float = 0.0


@dataclass(frozen=True)
class SeedClassifiedFlow:
    key: FlowKey
    label: object
    classified_at: float
    buffering_delay: float
    buffered_bytes: int
    stripped_protocol: "str | None"


@dataclass
class SeedStats:
    packets: int = 0
    data_packets: int = 0
    cdb_hits: int = 0
    classifications: int = 0
    unclassifiable: int = 0
    fin_removals: int = 0
    reclassifications: int = 0
    per_class: dict = field(
        default_factory=lambda: {nature: 0 for nature in ALL_NATURES}
    )
    cdb_size_series: list = field(default_factory=list)
    classified: list = field(default_factory=list)


class SeedEngine:
    """The pre-refactor monolithic engine (see module docstring)."""

    def __init__(self, classifier, config=None, rng=None):
        self.classifier = classifier
        self.config = config if config is not None else IustitiaConfig()
        self.cdb = ClassificationDatabase(
            purge_coefficient=self.config.purge_coefficient,
            purge_trigger_flows=self.config.purge_trigger_flows,
        )
        self.stats = SeedStats()
        self.output_queues = {nature: [] for nature in ALL_NATURES}
        self._pending: dict[bytes, _PendingFlow] = {}
        self._rng = rng if rng is not None else np.random.default_rng()

    @property
    def _target_bytes(self):
        return (
            self.config.buffer_size
            + self.config.header_threshold
            + self.config.random_skip_max
        )

    def _classification_window(self, raw):
        protocol = None
        window = raw
        min_window = self.classifier.feature_set.max_width
        if self.config.random_skip_max:
            skip = int(self._rng.integers(0, self.config.random_skip_max + 1))
            skipped = skip_threshold(raw, skip)
            if len(skipped) >= min_window:
                window = skipped
        if self.config.strip_known_headers:
            protocol, window = strip_app_header(window)
        if protocol is None and self.config.header_threshold:
            thresholded = skip_threshold(window, self.config.header_threshold)
            if len(thresholded) >= min_window:
                window = thresholded
        return window[: self.config.buffer_size], protocol

    def _classify_pending_batch(self, items, now):
        min_window = self.classifier.feature_set.max_width
        usable, windows, protocols = [], [], []
        results = [None] * len(items)
        for i, (flow_id, pending) in enumerate(items):
            window, protocol = self._classification_window(bytes(pending.buffer))
            if len(window) < min_window:
                self.stats.unclassifiable += 1
                del self._pending[flow_id]
            else:
                usable.append(i)
                windows.append(window)
                protocols.append(protocol)
        labels = self.classifier.classify_buffers(windows)
        for i, label, protocol in zip(usable, labels, protocols):
            flow_id, pending = items[i]
            self.cdb.insert(flow_id, label, now)
            self.stats.classifications += 1
            self.stats.per_class[label] += 1
            self.stats.classified.append(
                SeedClassifiedFlow(
                    key=pending.key,
                    label=label,
                    classified_at=now,
                    buffering_delay=now - pending.first_arrival,
                    buffered_bytes=len(pending.buffer),
                    stripped_protocol=protocol,
                )
            )
            for buffered in pending.packets:
                self.output_queues[label].append(buffered)
            del self._pending[flow_id]
            results[i] = label
        return results

    def _classify_pending(self, flow_id, pending, now):
        return self._classify_pending_batch([(flow_id, pending)], now)[0]

    def process_packet(self, packet):
        self.stats.packets += 1
        key = FlowKey.of_packet(packet)
        flow_id = flow_hash(key)
        now = packet.timestamp
        is_close = packet.is_tcp and (packet.transport.fin or packet.transport.rst)

        record = self.cdb.record_of(flow_id)
        if record is not None and (
            self.config.reclassify_interval
            and record.age(now) > self.config.reclassify_interval
        ):
            self.cdb.remove(flow_id, reason="reclassified")
            self.stats.reclassifications += 1
            record = None
        if record is not None:
            label = record.label
            self.stats.cdb_hits += 1
            self.cdb.touch(flow_id, now)
            if packet.payload:
                self.stats.data_packets += 1
                self.output_queues[label].append(packet)
            if is_close:
                self.cdb.remove(flow_id)
                self.stats.fin_removals += 1
            return label

        pending = self._pending.get(flow_id)
        if pending is None:
            pending = _PendingFlow(key=key, first_arrival=now, last_arrival=now)
            self._pending[flow_id] = pending
        pending.last_arrival = now
        if packet.payload:
            self.stats.data_packets += 1
            pending.buffer.extend(packet.payload)
            pending.packets.append(packet)

        if len(pending.buffer) >= self._target_bytes:
            result = self._classify_pending(flow_id, pending, now)
        elif is_close:
            result = self._classify_pending(flow_id, pending, now)
        else:
            result = None
        if is_close and result is not None:
            self.cdb.remove(flow_id)
            self.stats.fin_removals += 1
        return result

    def flush_timeouts(self, now):
        expired = [
            (flow_id, pending)
            for flow_id, pending in list(self._pending.items())
            if now - pending.last_arrival > self.config.buffer_timeout
        ]
        self._classify_pending_batch(expired, now)
        return len(expired)

    def process_trace(self, trace, sample_interval=1.0):
        next_sample = None
        for packet in trace.packets:
            self.process_packet(packet)
            if next_sample is None:
                next_sample = packet.timestamp + sample_interval
            while packet.timestamp >= next_sample:
                self.flush_timeouts(packet.timestamp)
                self.stats.cdb_size_series.append((next_sample, len(self.cdb)))
                next_sample += sample_interval
        if trace.packets:
            final = trace.packets[-1].timestamp
            self._classify_pending_batch(list(self._pending.items()), final)
            series = self.stats.cdb_size_series
            if series and series[-1][0] == final:
                series[-1] = (final, len(self.cdb))
            else:
                series.append((final, len(self.cdb)))
        return self.stats
