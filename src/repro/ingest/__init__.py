"""Streaming ingest layer: the packet source and its supervision.

Everything upstream of ``StagedEngine.process_source`` lives here — the
:class:`PacketSource` protocol (a closable iterable of packets — what
``process_source`` consumes and supervision wraps),
:class:`PcapFileSource` (incremental capture-file decode), the
supervision layer (:class:`SupervisedSource`
restarts a failing source under a :class:`RetryPolicy`; an
:class:`ErrorPolicy` decides whether per-packet dispatch errors fail
fast, degrade, or dead-letter), and the shared ingest metrics
instruments. The package imports nothing from :mod:`repro.engine`: it
sits strictly below the engine, whose ``process_source`` is the only
loop that feeds packets in. See DESIGN.md's "Ingest layer" and "Ingest
supervision" sections for the memory, equivalence, and fault contracts.
"""

from repro.ingest.metrics import IngestMetrics, SupervisionMetrics
from repro.ingest.sources import PacketSource, PcapFileSource
from repro.ingest.supervise import ErrorPolicy, RetryPolicy, SupervisedSource

__all__ = [
    "ErrorPolicy",
    "IngestMetrics",
    "PacketSource",
    "PcapFileSource",
    "RetryPolicy",
    "SupervisedSource",
    "SupervisionMetrics",
]
