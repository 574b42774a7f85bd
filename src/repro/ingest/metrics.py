"""Ingest-side telemetry: the instruments packet sources share.

One :class:`IngestMetrics` bundle per source, landing in a
caller-supplied :class:`repro.obs.MetricsRegistry` so ingest counters
scrape alongside the engine's own instruments:

* ``ingest_packets_total`` / ``ingest_bytes_total`` — packets yielded
  and capture bytes consumed, labeled by source;
* ``ingest_truncated_records_total`` — snaplen-truncated pcap records
  skipped instead of misparsed;
* ``ingest_skipped_frames_total`` — non-IPv4 Ethernet frames dropped;
* ``ingest_decode_errors_total`` — records that failed to parse as
  IPv4/TCP/UDP.

The supervision layer (:mod:`repro.ingest.supervise`) adds a second
bundle, :class:`SupervisionMetrics`, covering the fault paths:

* ``ingest_restarts_total`` — inner-source restarts performed by a
  :class:`~repro.ingest.supervise.SupervisedSource`;
* ``ingest_retry_backoff_seconds`` — the backoff scheduled before each
  restart (histogram over :data:`repro.obs.DEFAULT_BACKOFF_BUCKETS`);
* ``ingest_consecutive_failures`` — current consecutive-failure streak
  (gauge; resets to 0 on the first successful delivery);
* ``ingest_dispatch_errors_total`` — per-packet dispatch errors absorbed
  by a degrade/dead-letter :class:`~repro.ingest.supervise.ErrorPolicy`;
* ``ingest_dead_letters_total`` — packets handed to a dead-letter
  callback instead of the engine.

File-backed sources level their counters from decode stats inside the
iteration loop (plain int adds).
"""

from __future__ import annotations

from repro.obs import DEFAULT_BACKOFF_BUCKETS

__all__ = ["IngestMetrics", "SupervisionMetrics"]


class IngestMetrics:
    """Ingest instruments for one source, bound to a shared registry."""

    __slots__ = (
        "packets",
        "bytes",
        "truncated_records",
        "skipped_frames",
        "decode_errors",
    )

    def __init__(self, registry, source: str) -> None:
        self.packets = registry.counter(
            "ingest_packets_total",
            help="Packets yielded by ingest sources",
            source=source,
        )
        self.bytes = registry.counter(
            "ingest_bytes_total",
            help="Capture bytes consumed by ingest sources",
            source=source,
        )
        self.truncated_records = registry.counter(
            "ingest_truncated_records_total",
            help="Snaplen-truncated pcap records skipped (captured < "
            "original) instead of misparsed",
            source=source,
        )
        self.skipped_frames = registry.counter(
            "ingest_skipped_frames_total",
            help="Non-IPv4 link-layer frames skipped during decode",
            source=source,
        )
        self.decode_errors = registry.counter(
            "ingest_decode_errors_total",
            help="Records that failed IPv4/TCP/UDP decode",
            source=source,
        )

    def observe_decode(self, stats, synced: dict) -> None:
        """Level counters up to a :class:`PcapDecodeStats` snapshot.

        ``synced`` carries the last values pushed, per metrics bundle,
        so multiple passes over one source (or several sources sharing
        a label) keep the counters monotonic and exact.
        """
        for attribute, counter in (
            ("packets", self.packets),
            ("bytes", self.bytes),
            ("truncated_records", self.truncated_records),
            ("skipped_frames", self.skipped_frames),
            ("decode_errors", self.decode_errors),
        ):
            current = getattr(stats, attribute)
            counter.inc(current - synced.get(attribute, 0))
            synced[attribute] = current


class SupervisionMetrics:
    """Fault-path instruments for one supervised source or engine run."""

    __slots__ = (
        "restarts",
        "backoff",
        "consecutive_failures",
        "dispatch_errors",
        "dead_letters",
    )

    def __init__(self, registry, source: str) -> None:
        self.restarts = registry.counter(
            "ingest_restarts_total",
            help="Inner-source restarts performed by the supervisor after "
            "a retryable failure",
            source=source,
        )
        self.backoff = registry.histogram(
            "ingest_retry_backoff_seconds",
            buckets=DEFAULT_BACKOFF_BUCKETS,
            help="Backoff delay scheduled before each supervised restart",
            source=source,
        )
        self.consecutive_failures = registry.gauge(
            "ingest_consecutive_failures",
            help="Current consecutive-failure streak of the supervised "
            "source (0 after a successful delivery)",
            source=source,
        )
        self.dispatch_errors = registry.counter(
            "ingest_dispatch_errors_total",
            help="Per-packet dispatch errors absorbed by a degrade or "
            "dead-letter error policy",
            source=source,
        )
        self.dead_letters = registry.counter(
            "ingest_dead_letters_total",
            help="Packets handed to a dead-letter callback instead of "
            "the engine",
            source=source,
        )
