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

A :class:`~repro.ingest.supervise.SupervisedSource` given a registry
adds its own two: ``ingest_restarts_total`` and the
``ingest_consecutive_failures`` gauge.

File-backed sources level their counters from decode stats inside the
iteration loop (plain int adds).
"""

from __future__ import annotations

__all__ = ["IngestMetrics"]


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

