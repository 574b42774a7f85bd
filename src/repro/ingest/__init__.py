"""Streaming ingest layer: the packet source and its supervision.

Everything upstream of ``StagedEngine.process_source`` lives here — the
:class:`PacketSource` protocol (a closable iterable of packets — what
``process_source`` consumes), :class:`PcapFileSource` (incremental
capture-file decode), :class:`SupervisedSource` (re-reads a capture
from a factory through transient ``OSError`` faults, exactly once). Given
a :class:`repro.obs.MetricsRegistry`, both register readers of the
counts they keep (decode stats, restarts), so a scrape reads them live
and nothing is pushed per packet. Per-packet dispatch faults are
the engine's ``process_source(on_error=...)``, not this package's. The
package imports nothing from :mod:`repro.engine`: it sits strictly
below the engine. See DESIGN.md's "Ingest layer" and "Ingest
supervision" sections for the memory, equivalence, and fault contracts.
"""

from repro._lazy import lazy_exports
from repro.ingest.sources import PacketSource, PcapFileSource

# Supervision wraps a source only when asked to.
__getattr__, __dir__ = lazy_exports(globals(), {
    "SupervisedSource": "repro.ingest.supervise",
})

__all__ = [
    "PacketSource",
    "PcapFileSource",
    "SupervisedSource",
]
