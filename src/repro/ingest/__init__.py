"""Streaming ingest layer: the packet source and its supervision.

Everything upstream of ``StagedEngine.process_source`` lives here — the
:class:`~repro.ingest.sources.PacketSource` protocol (a closable
iterable of packets — what ``process_source`` consumes),
:class:`~repro.ingest.sources.PcapFileSource` (incremental capture-file
decode), :class:`~repro.ingest.supervise.SupervisedSource` (re-reads a
capture from a factory through transient ``OSError`` faults, exactly
once). Given a :class:`repro.MetricsRegistry`, both register readers of the
counts they keep (decode stats, restarts), so a scrape reads them live
and nothing is pushed per packet. Per-packet dispatch faults are
the engine's ``process_source(on_error=...)``, not this package's. The
package imports nothing from :mod:`repro.engine`: it sits strictly
below the engine. See DESIGN.md's "Ingest layer" and "Ingest
supervision" sections for the memory, equivalence, and fault contracts.
"""
