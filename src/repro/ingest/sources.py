"""Packet sources: bounded-memory inputs to the streaming engine.

The :class:`PacketSource` protocol is the ingest layer's one contract —
*an iterable of timestamped packets that can be closed* — and it is the
written form of what :meth:`repro.engine.StagedEngine.process_source`
and :class:`~repro.ingest.supervise.SupervisedSource` accept. Packets
that already live in memory need no adapter (``trace.packets``, a list,
a generator all qualify as the iterable); the one concrete source is
the one that hides a format:

* :class:`PcapFileSource` — incremental capture-file decode (one read
  chunk and one record in memory at a time, riding
  :func:`repro.net.pcap.iter_pcap`).

It is a context manager; iterating it after ``close()`` stops cleanly.
Metrics are opt-in: pass a :class:`repro.obs.MetricsRegistry` and the
source fills the shared ingest instruments
(:mod:`repro.ingest.metrics`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Protocol, runtime_checkable

from repro.ingest.metrics import IngestMetrics
from repro.net.packet import Packet
from repro.net.pcap import PcapDecodeStats, iter_pcap

__all__ = ["PacketSource", "PcapFileSource"]

#: Level ingest counters from decode stats every this many packets (and
#: once more when iteration ends), keeping the per-packet path free of
#: metric calls without letting scrapes drift far behind.
_METRICS_EVERY = 256


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
    frames, bytes consumed). Each ``iter()`` starts a fresh pass over
    the file with fresh per-pass :attr:`stats` (multi-pass reads never
    mix passes; the registry counters stay cumulative across passes).
    :meth:`close` is **terminal**: it ends the active pass and every
    later pass yields nothing — build a new source to re-read a closed
    file. Yields exactly the packets ``read_pcap`` would return, in the
    same order.
    """

    def __init__(self, path: "str | Path", *, registry=None) -> None:
        self.path = Path(path)
        self.stats = PcapDecodeStats()
        self._metrics = (
            IngestMetrics(registry, source=f"pcap:{self.path.name}")
            if registry is not None
            else None
        )
        self._synced: dict = {}
        self._active: "Iterator[Packet] | None" = None
        self._closed = False

    def __enter__(self) -> "PcapFileSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __iter__(self) -> Iterator[Packet]:
        if self._closed:
            return
        # Fresh per-pass accounting: `stats` always describes the pass
        # being (or last) iterated. The metrics sync map resets with it,
        # so the registry counters keep accumulating monotonically.
        self.stats = PcapDecodeStats()
        self._synced = {}
        records = iter_pcap(self.path, stats=self.stats)
        self._active = records
        try:
            countdown = _METRICS_EVERY
            for packet in records:
                yield packet
                countdown -= 1
                if countdown <= 0:
                    countdown = _METRICS_EVERY
                    self._level_metrics()
        finally:
            self._level_metrics()
            if self._active is records:
                self._active = None

    def _level_metrics(self) -> None:
        if self._metrics is not None:
            self._metrics.observe_decode(self.stats, self._synced)

    def close(self) -> None:
        """Stop the active pass (the underlying file handle closes too)."""
        self._closed = True
        active, self._active = self._active, None
        if active is not None:
            active.close()
