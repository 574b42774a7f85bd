"""Shared datatypes of the staged engine.

The common vocabulary of the engine stages (flow table, deadline wheel,
micro-batcher, sinks). A flow costs four small records on its way to a
label: its :class:`~repro.net.flow.FlowKey`, one :class:`PendingFlow`
that every stage up to the label passes along, the CDB's
:class:`~repro.core.cdb.CdbRecord`, and the :class:`ClassifiedFlow`
handed to the sinks. None of them has an instance ``__dict__`` (40 B
or more per object; DESIGN.md, "New-flow path"): the key and the CDB
record are slotted dataclasses, :class:`PendingFlow` a slotted class and
:class:`ClassifiedFlow` a tuple. None is built by a frozen dataclass's
``__init__`` (an ``object.__setattr__`` call per field), and the engine
builds each with one positional call (DESIGN.md, "Apply per drain").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.labels import ALL_NATURES, FlowNature
from repro.net.flow import FlowKey

__all__ = ["ClassifiedFlow", "EngineClosedError", "EngineStats", "PendingFlow"]

#: Why an engine without a ``StatsSink`` has no outcomes to read.
NO_STATS_SINK = (
    "no StatsSink keeps this engine's outcomes, so there is nothing to "
    "evaluate; attach one (open_engine does)"
)


class EngineClosedError(RuntimeError):
    """The engine's lifecycle no longer permits the attempted call.

    Raised by :class:`~repro.engine.engine.StagedEngine` when packets
    are processed after :meth:`~repro.engine.engine.StagedEngine.close`
    (the sinks have been flushed) or when ``finish()`` is called
    twice with no intervening packets (the stream already drained —
    a double drain would re-run end-of-stream work against an empty
    engine and silently report nothing).
    """


class PendingFlow:
    """A flow from its first packet to its label: the engine's one record.

    The same object sits in the flow table while the window fills, in
    the micro-batcher once the window is frozen, and in the batch that
    ``classify_labels`` / ``fold_for`` / ``apply`` receive — nothing is
    copied into a second record on the way.

    ``flow_id`` is the packed 5-tuple the table, wheel and batcher key
    by; ``key`` the same identity as a :class:`FlowKey`, minted once.

    ``buffer`` holds every payload byte that arrives while the flow is
    pending, on either extractor: each payload packet's bytes are copied
    onto its end, with no extractor call and no payload object kept
    alive for it. Its length is the buffer-full trigger and the
    ``buffered_bytes`` the flow reports at classification; ``chunks``
    counts the packets that contributed (the ``extractor_folds_total``
    telemetry).

    ``last_arrival`` is the packet clock of the flow's latest packet: the
    buffer-timeout test (``last_arrival + buffer_timeout < now``) reads it
    when the flow's armed deadline fires.

    ``seq`` is a global first-packet arrival index: drains iterate pending
    flows in ``seq`` order so the engine classifies (and draws any
    random-skip offsets) in exactly the order the spec does.

    ``window`` / ``protocol`` are set when the flow becomes ready (buffer
    full, FIN, or timeout) and ``queued`` marks that hand-over to the
    micro-batcher. ``window`` is whatever the extractor's
    :meth:`~repro.core.extract.FeatureExtractor.finalize` takes: the
    payload window (``bytes``) cut from ``buffer`` for payload-retaining
    extractors — exactly the bytes the spec (``tests/spec.py``) would
    classify at that moment — or, for a streaming extractor, a state
    it mints then, which the classify drain fills from ``buffer``.
    ``protocol`` is the application header stripped from it, if any.
    The window is fixed at readiness, so batching changes *when* the
    model runs, never *what* it sees.

    ``ready_at`` is the packet clock at readiness, and ``record`` the
    flow's :class:`~repro.core.cdb.CdbRecord`, stamped then and
    inserted, label filled in, when the batch drains. A packet that
    arrives while the flow is queued is the CDB hit it would be had the
    flow drained at readiness: it touches ``record`` (lambda) and
    appends to ``packets``, forwarded with the flow's outcome, but
    adds nothing to ``buffer``.

    ``retire`` is the CDB removal reason (``"fin"`` / ``"reclassified"``)
    of a flow whose record is gone before its label lands: its FIN/RST
    arrived, or the reclassification defense expired it while queued.
    The classify stage inserts the label and immediately removes the
    record (the spec's remove-after-classify close path).

    Built by one positional call, ``PendingFlow(key, seq, arrival,
    flow_id)``, once per new flow: a hand-written slotted
    ``__init__`` parses no keywords and calls no per-field default
    factory, at half a slotted dataclass's cost (DESIGN.md, "Apply per
    drain"). Every other field starts empty.
    """

    __slots__ = (
        "key", "seq", "packets", "first_arrival",
        "last_arrival", "queued", "retire", "buffer", "chunks",
        "flow_id", "window", "protocol", "ready_at", "record",
    )

    def __init__(
        self,
        key: FlowKey,
        seq: int = 0,
        arrival: float = 0.0,
        flow_id: bytes = b"",
    ) -> None:
        self.key = key
        self.seq = seq
        self.packets = []
        self.first_arrival = arrival
        self.last_arrival = arrival
        self.queued = False
        self.retire = None
        self.buffer = bytearray()
        self.chunks = 0
        self.flow_id = flow_id
        self.window = None
        self.protocol = None
        self.ready_at = 0.0
        self.record = None


class ClassifiedFlow(NamedTuple):
    """Outcome of one flow classification (immutable, compared by value).

    ``classified_at`` is the packet clock at which the flow became ready
    (and ``buffering_delay`` runs from its first packet to then), not
    when its batch drained.

    A tuple subclass, not a frozen dataclass: one is built per flow and
    the default ``StatsSink`` keeps every one, and a frozen dataclass
    pays an ``object.__setattr__`` per field to build and a ``__dict__``
    to hold. The engine builds it with ``tuple.__new__(ClassifiedFlow,
    fields)``, which enters no Python frame; the generated ``__new__``
    costs three times as much (DESIGN.md, "Apply per drain").
    """

    key: FlowKey
    label: FlowNature
    classified_at: float
    buffering_delay: float
    buffered_bytes: int
    stripped_protocol: "str | None"


@dataclass
class EngineStats:
    """Counters and series collected while processing packets.

    ``classified`` is bound to the engine's :class:`~repro.engine.sinks.
    StatsSink` when one is attached (the default), so the list fills as
    flows classify; with a custom sink set lacking a ``StatsSink`` it
    stays empty and only the counters are maintained.
    """

    packets: int = 0
    data_packets: int = 0
    cdb_hits: int = 0
    classifications: int = 0
    unclassifiable: int = 0
    fin_removals: int = 0
    reclassifications: int = 0
    #: Packets whose dispatch raised and ``process_source``'s
    #: ``on_error`` callable absorbed (counted in ``packets`` too).
    dispatch_errors: int = 0
    per_class: dict[FlowNature, int] = field(
        default_factory=lambda: {nature: 0 for nature in ALL_NATURES}
    )
    #: (timestamp, CDB size) sampled every ``sample_interval`` of the
    #: packet clock by ``process_source``, plus the final timestamp.
    cdb_size_series: list[tuple[float, int]] = field(default_factory=list)
    #: Completed classifications, in order, as the engine's ``StatsSink``
    #: keeps them (see class docstring). Without one it stays empty while
    #: ``classifications`` counts on, and :meth:`buffering_delays` raises.
    classified: list[ClassifiedFlow] = field(default_factory=list)

    def buffering_delays(self) -> list[float]:
        """Buffer-fill delays of all classified flows.

        Raises ``ValueError`` once flows have classified if no
        ``StatsSink`` kept their outcomes: an empty list would read as
        "no flow classified".
        """
        if self.classifications and not self.classified:
            raise ValueError(NO_STATS_SINK)
        return [c.buffering_delay for c in self.classified]
