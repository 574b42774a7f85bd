"""Pluggable result sinks: where classified flows and their packets go.

The staged engine fans every outcome out to a list of
:class:`ResultSink` subscribers:

* :class:`StatsSink`   — collects :class:`ClassifiedFlow` outcomes and
  per-class counts (what ``evaluate_against`` and the Figure benches
  read);
* :class:`QueueSink`   — per-nature packet queues (the paper's Figure-1
  "high/low priority queue" forwarding);
* :class:`CallbackSink` — invokes user callables, for wiring the engine
  into external systems (QoS markers, IDS hand-off, message buses).

Telemetry is not a sink: the engine's own registry reads the outcome
counts it already keeps (``engine.metrics``).

Sinks see two events: the flows a classify drain labelled, and
``on_packet`` (every later payload packet forwarded via a CDB hit).
The engine makes one ``on_flows_classified(outcomes, packets)`` call
per sink per drain — ``outcomes`` the drain's
:class:`~repro.engine.types.ClassifiedFlow` tuples in readiness order,
``packets[i]`` the packets ``outcomes[i]``'s flow buffered while it
awaited its label. That method is optional: :class:`ResultSink`'s
default, and the engine's fallback for a sink without it, loops over
``on_flow_classified(outcome, packets)`` once per flow, looked up at
call time (so a wrapper set on the instance sees every flow).

The ``ResultSink`` protocol is public API: any object with
``on_flow_classified`` and ``on_packet`` (both may be no-ops), and
optionally ``on_flows_classified``, can subscribe to an engine via
``repro.api.open_engine(..., sink=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.labels import ALL_NATURES, FlowNature
from repro.engine.types import ClassifiedFlow
from repro.net.packet import Packet

__all__ = ["CallbackSink", "QueueSink", "ResultSink", "StatsSink"]


class ResultSink:
    """Subscriber interface for engine outcomes (default: ignore all).

    Subclasses override whichever events they care about; unimplemented
    events are no-ops, so sinks stay cheap to write.
    """

    def on_flows_classified(
        self,
        outcomes: "list[ClassifiedFlow]",
        packets: "list[list[Packet]]",
    ) -> None:
        """A drain labelled these flows, in readiness order.

        ``packets[i]`` were buffered awaiting ``outcomes[i]``'s label.
        The default calls :meth:`on_flow_classified` once per flow.
        """
        on_flow_classified = self.on_flow_classified
        for outcome, buffered in zip(outcomes, packets):
            on_flow_classified(outcome, buffered)

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

    def on_flows_classified(
        self,
        outcomes: "list[ClassifiedFlow]",
        packets: "list[list[Packet]]",
    ) -> None:
        self.classified.extend(outcomes)
        per_class = self.per_class
        for outcome in outcomes:
            per_class[outcome.label] += 1

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
