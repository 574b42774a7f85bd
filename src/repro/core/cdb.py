"""Classification Database (CDB) with purging (Sections 1.2 and 4.5).

The CDB maps flow IDs to class labels so that every packet after a
flow's classification is forwarded without re-classification. A flow ID
is an opaque non-empty ``bytes`` key: the engine uses the packed 13-byte
5-tuple (exact, and free to compute per packet), the paper a 160-bit
SHA-1 of it. Each record is 194 bits in the paper's accounting — 160
(hash) + 32 (last inter-arrival time) + 2 (label) — which is the storage
*model* ``RECORD_BITS`` / ``size_bits`` report whatever the key's length.

Records leave the CDB three ways:

* a TCP FIN or RST is seen for the flow (clean close — the paper measured
  up to 46% of flows closing this way);
* inactivity: ``t_now - t_last > n * lambda_flow`` where ``lambda_flow`` is
  the flow's last observed packet inter-arrival time (``0.5 s`` default
  before two packets have been seen) and ``n`` is a tunable coefficient
  (paper's optimum: ``n = 4``);
* forced reclassification (the Section-4.6 defense deletes aged records
  so long-lived flows are re-examined).

Each exit path has its own lifetime counter so Figure-8 style reports can
attribute removals correctly; :meth:`ClassificationDatabase.remove` takes
the removal ``reason``.

Inactivity purging runs when the flow count has grown by
``purge_trigger_flows`` (paper: 5,000) since the last purge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import FlowNature

__all__ = [
    "CdbRecord",
    "ClassificationDatabase",
    "RECORD_BITS",
    "RECORD_BYTES",
    "REMOVAL_REASONS",
]

#: Bits per CDB record: 160 hash + 32 inter-arrival + 2 label.
RECORD_BITS = 194

#: Bytes per CDB record under the same model (what telemetry charges a
#: classified flow on top of its buffering-time state).
RECORD_BYTES = RECORD_BITS / 8.0

#: Default inter-arrival estimate before a flow has two packets (paper: 0.5 s).
DEFAULT_LAMBDA = 0.5

#: Valid ``reason`` values for :meth:`ClassificationDatabase.remove`.
REMOVAL_REASONS = ("fin", "reclassified")


@dataclass(slots=True)
class CdbRecord:
    """One CDB entry.

    ``classified_at`` supports the Section-4.6 reclassification defense
    (periodically re-examining long-lived flows); it is not part of the
    194-bit baseline accounting, which models the paper's minimal record.
    Slotted: a gateway holds one per labelled flow.
    """

    label: FlowNature
    last_arrival: float
    last_inter_arrival: float = DEFAULT_LAMBDA
    classified_at: float = 0.0

    def is_obsolete(self, now: float, n: float) -> bool:
        """The paper's staleness test: ``now - t_last > n * lambda``."""
        return (now - self.last_arrival) > n * self.last_inter_arrival

    def age(self, now: float) -> float:
        """Seconds since this flow was (re)classified."""
        return now - self.classified_at

    def touch(self, now: float) -> None:
        """Record a packet arrival: lambda becomes the gap since the last.

        A zero or negative gap (same-tick or out-of-order packet) keeps
        the previous lambda; ``last_arrival`` moves to ``now`` regardless.
        """
        gap = now - self.last_arrival
        if gap > 0:
            self.last_inter_arrival = gap
        self.last_arrival = now


@dataclass
class ClassificationDatabase:
    """Flow-ID -> label store with FIN/RST and inactivity purging.

    ``purge_coefficient`` is the paper's ``n``; ``purge_trigger_flows`` is
    how many inserts elapse between inactivity sweeps (0 disables automatic
    sweeps; :meth:`purge_inactive` can still be called manually).
    """

    purge_coefficient: float = 4.0
    purge_trigger_flows: int = 5000
    _records: dict[bytes, CdbRecord] = field(default_factory=dict)
    #: Inserts since the last sweep; the engine reads it to know which
    #: ready flow's insert fires the next one.
    inserts_since_purge: int = 0
    #: Lifetime counters for reporting (Figure 8).
    total_inserted: int = 0
    total_removed_fin: int = 0
    total_removed_inactive: int = 0
    total_removed_reclassified: int = 0

    def __post_init__(self) -> None:
        if self.purge_coefficient <= 0:
            raise ValueError(
                f"purge_coefficient must be positive, got {self.purge_coefficient}"
            )
        if self.purge_trigger_flows < 0:
            raise ValueError(
                f"purge_trigger_flows must be >= 0, got {self.purge_trigger_flows}"
            )
        #: ``record_of(flow_id)``: the full record of a flow, or None when
        #: unknown. It is the record dict's own bound ``get`` — every
        #: insert, removal and purge mutates that one dict in place — so
        #: the engine's per-packet probe costs no Python frame.
        self.record_of = self._records.get

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, flow_id: bytes) -> bool:
        return flow_id in self._records

    @property
    def size_bits(self) -> int:
        """Total storage in bits under the paper's 194-bit record model."""
        return len(self._records) * RECORD_BITS

    @property
    def size_bytes(self) -> float:
        """Total storage in bytes under the 194-bit record model."""
        return self.size_bits / 8.0

    def lookup(self, flow_id: bytes) -> "FlowNature | None":
        """Label of a flow, or None when unknown."""
        record = self._records.get(flow_id)
        return record.label if record is not None else None

    def insert(self, flow_id: bytes, label: FlowNature, now: float) -> None:
        """Store a freshly classified flow; may trigger an inactivity sweep."""
        self.insert_record(
            flow_id, CdbRecord(label=label, last_arrival=now, classified_at=now)
        )

    def insert_record(self, flow_id: bytes, record: CdbRecord) -> None:
        """Store a classified flow's record as it was stamped.

        The record's ``classified_at`` is the packet clock of the insert:
        when it is the ``purge_trigger_flows``-th since the last sweep,
        the inactivity sweep runs at that time.
        """
        if not isinstance(flow_id, bytes) or not flow_id:
            raise ValueError(f"flow_id must be non-empty bytes, got {flow_id!r}")
        self._records[flow_id] = record
        self.total_inserted += 1
        self.inserts_since_purge += 1
        if (
            self.purge_trigger_flows
            and self.inserts_since_purge >= self.purge_trigger_flows
        ):
            self.purge_inactive(record.classified_at)

    def touch(self, flow_id: bytes, now: float) -> None:
        """Record a packet arrival for a known flow (updates lambda)."""
        record = self._records.get(flow_id)
        if record is None:
            raise KeyError(f"flow {flow_id.hex()} not in CDB")
        record.touch(now)

    def remove(self, flow_id: bytes, reason: str = "fin") -> bool:
        """Remove a flow; returns whether it was present.

        ``reason`` attributes the removal for Figure-8 reporting:
        ``"fin"`` for FIN/RST closes, ``"reclassified"`` for Section-4.6
        forced reclassification. Inactivity removals go through
        :meth:`purge_inactive` and are counted there.
        """
        if reason not in REMOVAL_REASONS:
            raise ValueError(
                f"unknown removal reason {reason!r}; expected one of "
                f"{', '.join(REMOVAL_REASONS)}"
            )
        if self._records.pop(flow_id, None) is not None:
            if reason == "fin":
                self.total_removed_fin += 1
            else:
                self.total_removed_reclassified += 1
            return True
        return False

    @property
    def removal_counts(self) -> dict[str, int]:
        """Lifetime removals keyed by exit path (fin / inactive / reclassified)."""
        return {
            "fin": self.total_removed_fin,
            "inactive": self.total_removed_inactive,
            "reclassified": self.total_removed_reclassified,
        }

    def purge_inactive(self, now: float) -> int:
        """Drop all flows failing the staleness test; returns the count."""
        stale = [
            flow_id
            for flow_id, record in self._records.items()
            if record.is_obsolete(now, self.purge_coefficient)
        ]
        for flow_id in stale:
            del self._records[flow_id]
        self.total_removed_inactive += len(stale)
        self.inserts_since_purge = 0
        return len(stale)
