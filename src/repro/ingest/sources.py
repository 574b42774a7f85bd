"""Packet sources: bounded-memory inputs to the streaming engine.

The :class:`PacketSource` protocol is the ingest layer's one contract —
*an iterable of timestamped packets that can be closed* — and it is the
written form of what :meth:`repro.StagedEngine.process_source`
and :class:`~repro.ingest.supervise.SupervisedSource` accept. Packets
that already live in memory need no adapter (``trace.packets``, a list,
a generator all qualify as the iterable); the one concrete source is
the one that hides a format:

* :class:`PcapFileSource` — incremental capture-file decode (one read
  chunk and one record in memory at a time, riding
  :func:`repro.net.pcap.iter_pcap`).

It is a context manager; iterating it after ``close()`` stops cleanly.
Metrics are opt-in: pass a :class:`repro.MetricsRegistry` and the
source registers readers of its decode counts on the ``ingest_*``
counters, labeled ``source="pcap:<file name>"``.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro.net.packet import Packet
from repro.net.pcap import PcapDecodeStats, iter_pcap

__all__ = ["PacketSource", "PcapFileSource"]

#: ``PcapDecodeStats`` field -> the counter that reads it, and its help.
_COUNTERS = {
    "packets": ("ingest_packets_total", "Packets yielded by ingest sources"),
    "bytes": ("ingest_bytes_total", "Capture bytes consumed by ingest sources"),
    "truncated_records": (
        "ingest_truncated_records_total",
        "Snaplen-truncated pcap records skipped (captured < original) "
        "instead of misparsed",
    ),
    "skipped_frames": (
        "ingest_skipped_frames_total",
        "Non-IPv4 link-layer frames skipped during decode",
    ),
    "decode_errors": (
        "ingest_decode_errors_total",
        "Records that failed IPv4/TCP/UDP decode",
    ),
}


@runtime_checkable
class PacketSource(Protocol):
    """An iterable of :class:`Packet` that can be closed.

    Anything with ``__iter__`` and ``close`` qualifies — including
    plain generators.
    """

    def __iter__(self) -> Iterator[Packet]: ...

    def close(self) -> None: ...


class PcapFileSource:
    """Incremental packet source over a classic pcap file.

    Decodes one record at a time out of fixed-size read chunks — memory
    stays O(chunk + one record), not O(capture). Each record is read in
    place in its chunk and its packet keeps owned bytes (header and
    payload), so a packet held past the pass pins no chunk. Exposes decode
    accounting on :attr:`stats` (truncated records, skipped non-IPv4
    frames, bytes consumed). Each ``iter()`` returns a fresh
    :func:`~repro.net.pcap.iter_pcap` generator over the file — the pass
    itself, no wrapper — with fresh per-pass :attr:`stats` (multi-pass
    reads never mix passes). With a ``registry``, five ``ingest_*``
    counters read the finished passes' totals plus the live
    :attr:`stats`, so they stay cumulative across passes, sum over
    sources sharing a label (a supervisor's re-opens), and are exact
    mid-pass. :meth:`close` is **terminal**: it ends the active pass and
    every later pass yields nothing — build a new source to re-read a
    closed file. Yields exactly the packets ``read_pcap`` would return,
    in the same order.
    """

    def __init__(self, path: "str | Path", *, registry=None) -> None:
        self.path = Path(path)
        self.stats = PcapDecodeStats()
        #: The finished passes' counts, by ``_COUNTERS`` field.
        self._earlier = dict.fromkeys(_COUNTERS, 0)
        self._active: "Iterator[Packet] | None" = None
        self._closed = False
        if registry is not None:
            for field, (name, help_text) in _COUNTERS.items():
                registry.counter(
                    name,
                    help=help_text,
                    reader=partial(self._total, field),
                    source=f"pcap:{self.path.name}",
                )

    def _total(self, field: str) -> int:
        return self._earlier[field] + getattr(self.stats, field)

    def __enter__(self) -> "PcapFileSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __iter__(self) -> Iterator[Packet]:
        if self._closed:
            return iter(())
        # Fresh per-pass accounting: `stats` always describes the pass
        # being (or last) iterated; the pass before joins the totals.
        for field in self._earlier:
            self._earlier[field] += getattr(self.stats, field)
        self.stats = PcapDecodeStats()
        self._active = iter_pcap(self.path, stats=self.stats)
        return self._active

    def close(self) -> None:
        """Stop the active pass (the underlying file handle closes too)."""
        self._closed = True
        active, self._active = self._active, None
        if active is not None:
            active.close()
