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
        self._m_pending = None
        self._m_cdb_flows = None
        self._m_cdb_bytes = None

    def bind_metrics(self, registry) -> None:
        """Register this table's instruments on a ``MetricsRegistry``.

        Exposes pending-flow occupancy and the CDB's occupancy in flows
        and 194-bit-record bytes (the paper's Figure 8 size series,
        live). All three are pull-based gauges: a registry collector
        reads the sizes at scrape time, so the packet path pays nothing.
        """
        self._m_pending = registry.gauge(
            "engine_pending_flows",
            help="Flows currently buffering toward classification",
        )
        self._m_cdb_flows = registry.gauge(
            "cdb_flows",
            help="Classified flows resident in the CDB",
        )
        self._m_cdb_bytes = registry.gauge(
            "cdb_record_bytes",
            help="CDB storage under the paper's 194-bit record model",
        )
        registry.add_collector(self._collect)

    def _collect(self) -> None:
        """Refresh the occupancy gauges (scrape-time only)."""
        self._m_pending.set(len(self.pending))
        occupancy = len(self)
        self._m_cdb_flows.set(occupancy)
        self._m_cdb_bytes.set(occupancy * RECORD_BYTES)

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
