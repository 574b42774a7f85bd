"""The engine's flow table: pending buffers plus the CDB, one of each.

Section 4.5 gives every flow an ID (here the packed 13-byte 5-tuple, in
the paper its 160-bit SHA-1); Figure 1 keys two structures by it — the
buffers of flows still filling their classification window, and the
Classification Database of flows already labelled. :class:`FlowTable`
is both: it *is* the engine's
:class:`~repro.core.cdb.ClassificationDatabase` (``len``, ``lookup``,
``insert``, the ``total_*`` counters and the paper's inactivity sweep,
fired by the CDB's own ``purge_trigger_flows`` insert count) and it
holds the ``pending`` dict beside it, so code that held ``engine.cdb``
keeps working against ``engine.table``.
"""

from __future__ import annotations

from repro.core.cdb import RECORD_BYTES, ClassificationDatabase
from repro.engine.types import PendingFlow

__all__ = ["FlowTable"]


class FlowTable(ClassificationDatabase):
    """One CDB plus the pending-flow buffers, keyed by flow ID."""

    def __init__(
        self, purge_coefficient: float = 4.0, purge_trigger_flows: int = 5000
    ) -> None:
        super().__init__(
            purge_coefficient=purge_coefficient,
            purge_trigger_flows=purge_trigger_flows,
        )
        #: Flows still buffering toward classification, by flow ID.
        self.pending: dict[bytes, PendingFlow] = {}

    def bind_metrics(self, registry) -> None:
        """Register this table's occupancy on a ``MetricsRegistry``.

        Pending flows, and the CDB's occupancy in flows and in 194-bit
        record bytes (the paper's Figure 8 size series, live), are gauges
        that read the sizes when scraped, so the packet path pays nothing.
        """
        registry.gauge(
            "engine_pending_flows",
            help="Flows currently buffering toward classification",
            reader=self.pending.__len__,
        )
        registry.gauge(
            "cdb_flows",
            help="Classified flows resident in the CDB",
            reader=self.__len__,
        )
        registry.gauge(
            "cdb_record_bytes",
            help="CDB storage under the paper's 194-bit record model",
            reader=lambda: len(self) * RECORD_BYTES,
        )

    @property
    def pending_count(self) -> int:
        """Number of flows currently buffering."""
        return len(self.pending)

    def pending_items(self) -> "list[tuple[bytes, PendingFlow]]":
        """A snapshot of all pending flows, in first-arrival order.

        A flow enters ``pending`` at its first packet and dicts keep
        insertion order, so no sort is needed; the copy lets the caller
        classify (and so pop) flows while it walks the list.
        """
        return list(self.pending.items())
