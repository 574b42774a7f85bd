"""Pluggable result sinks: where classified flows and their packets go.

The monolithic engine hard-coded two destinations — per-nature
``output_queues`` lists and a ``stats.classified`` list. The staged
engine instead fans every outcome out to a list of :class:`ResultSink`
subscribers:

* :class:`StatsSink`   — collects :class:`ClassifiedFlow` outcomes and
  per-class counts (what ``evaluate_against`` and the Figure benches
  read);
* :class:`QueueSink`   — per-nature packet queues (the paper's Figure-1
  "high/low priority queue" forwarding);
* :class:`CallbackSink` — invokes user callables, for wiring the engine
  into external systems (QoS markers, IDS hand-off, message buses);
* :class:`MetricsSink`  — routes outcomes into a
  :class:`repro.obs.MetricsRegistry` and (optionally) emits periodic
  snapshots, so telemetry rides the same plumbing as results.

Sinks see two events: ``on_flow_classified`` (once per flow, with the
packets buffered while it awaited classification) and ``on_packet``
(every later payload packet forwarded via a CDB hit).

The ``ResultSink`` protocol is public API: any object with these two
methods (both may be no-ops) can subscribe to an engine via
``repro.api.open_engine(..., sink=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import ALL_NATURES, FlowNature
from repro.engine.types import ClassifiedFlow
from repro.net.packet import Packet
from repro.obs import MetricsRegistry

__all__ = ["CallbackSink", "MetricsSink", "QueueSink", "ResultSink", "StatsSink"]


class ResultSink:
    """Subscriber interface for engine outcomes (default: ignore all).

    Subclasses override whichever events they care about; unimplemented
    events are no-ops, so sinks stay cheap to write.
    """

    def on_flow_classified(
        self, outcome: ClassifiedFlow, packets: "list[Packet]"
    ) -> None:
        """A flow got its label; ``packets`` were buffered awaiting it."""

    def on_packet(self, label: FlowNature, packet: Packet) -> None:
        """A payload packet of an already-classified flow was forwarded."""

    def flush(self) -> None:
        """The owning engine closed; flush any buffered output (no-op)."""


@dataclass
class StatsSink(ResultSink):
    """Collects classification outcomes for evaluation and reporting."""

    classified: list[ClassifiedFlow] = field(default_factory=list)
    per_class: dict[FlowNature, int] = field(
        default_factory=lambda: {nature: 0 for nature in ALL_NATURES}
    )

    def on_flow_classified(
        self, outcome: ClassifiedFlow, packets: "list[Packet]"
    ) -> None:
        self.classified.append(outcome)
        self.per_class[outcome.label] += 1

    def buffering_delays(self) -> list[float]:
        """Buffer-fill delays of all classified flows."""
        return [c.buffering_delay for c in self.classified]


class QueueSink(ResultSink):
    """Per-nature packet queues (the Figure-1 output stage)."""

    def __init__(self) -> None:
        self.queues: dict[FlowNature, list[Packet]] = {
            nature: [] for nature in ALL_NATURES
        }

    def on_flow_classified(
        self, outcome: ClassifiedFlow, packets: "list[Packet]"
    ) -> None:
        self.queues[outcome.label].extend(packets)

    def on_packet(self, label: FlowNature, packet: Packet) -> None:
        self.queues[label].append(packet)


class CallbackSink(ResultSink):
    """Adapts user callables to the sink interface.

    ``on_classified(outcome, packets)`` and/or ``on_packet(label,
    packet)`` may be None to ignore that event.
    """

    def __init__(self, on_classified=None, on_packet=None) -> None:
        self._on_classified = on_classified
        self._on_packet = on_packet

    def on_flow_classified(
        self, outcome: ClassifiedFlow, packets: "list[Packet]"
    ) -> None:
        if self._on_classified is not None:
            self._on_classified(outcome, packets)

    def on_packet(self, label: FlowNature, packet: Packet) -> None:
        if self._on_packet is not None:
            self._on_packet(label, packet)


#: Buckets for the sink's classification-delay histogram: from
#: sub-millisecond single-packet fills up to the 10 s buffer timeout.
DELAY_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0
)


class MetricsSink(ResultSink):
    """Routes engine outcomes into a metrics registry.

    Counts classified flows and forwarded packets per nature, observes
    each flow's classification delay (first payload byte to label, on
    the packet clock — the paper's Section 5 delay metric), and totals
    the bytes buffered awaiting labels.

    With ``emit_interval`` set, the sink also emits a full
    ``registry.snapshot()`` every that-many seconds of *packet-clock*
    time: to the ``emit`` callable when given (``emit(timestamp,
    snapshot)``), onto ``self.snapshots`` otherwise. An idle gap that
    crosses several intervals is scraped once and emits that one
    snapshot (the same dict) at each of them. The registry may be
    shared with an engine's own instruments, in which case the periodic
    snapshots cover the whole telemetry plane.
    """

    def __init__(
        self,
        registry: "MetricsRegistry | None" = None,
        emit_interval: "float | None" = None,
        emit=None,
    ) -> None:
        if emit_interval is not None and emit_interval <= 0:
            raise ValueError(
                f"emit_interval must be positive, got {emit_interval}"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.emit_interval = emit_interval
        self.snapshots: list[tuple[float, dict]] = []
        self._emit = emit
        self._next_emit: "float | None" = None
        self._classified = {
            nature: self.registry.counter(
                "sink_flows_classified_total",
                help="Flows classified, by assigned nature",
                nature=str(nature),
            )
            for nature in ALL_NATURES
        }
        self._forwarded = {
            nature: self.registry.counter(
                "sink_forwarded_packets_total",
                help="Payload packets forwarded on CDB hits, by nature",
                nature=str(nature),
            )
            for nature in ALL_NATURES
        }
        self._delay = self.registry.histogram(
            "sink_classification_delay_seconds",
            buckets=DELAY_BUCKETS,
            help="Packet-clock delay from first payload byte to label",
        )
        self._buffered_bytes = self.registry.counter(
            "sink_buffered_bytes_total",
            help="Payload bytes buffered while flows awaited classification",
        )

    def on_flow_classified(
        self, outcome: ClassifiedFlow, packets: "list[Packet]"
    ) -> None:
        self._classified[outcome.label].inc()
        self._delay.observe(outcome.buffering_delay)
        self._buffered_bytes.inc(outcome.buffered_bytes)
        self._tick(outcome.classified_at)

    def on_packet(self, label: FlowNature, packet: Packet) -> None:
        self._forwarded[label].inc()
        self._tick(packet.timestamp)

    def snapshot(self) -> dict:
        """The registry's current snapshot (see ``MetricsRegistry.snapshot``)."""
        return self.registry.snapshot()

    def _tick(self, now: float) -> None:
        if self.emit_interval is None:
            return
        if self._next_emit is None:
            self._next_emit = now + self.emit_interval
            return
        if now < self._next_emit:
            return
        # Nothing moves between the intervals an idle gap crossed: a
        # second run of the collectors would read the same values.
        snapshot = self.registry.snapshot()
        while now >= self._next_emit:
            if self._emit is not None:
                self._emit(self._next_emit, snapshot)
            else:
                self.snapshots.append((self._next_emit, snapshot))
            self._next_emit += self.emit_interval
