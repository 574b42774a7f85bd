"""The online Iustitia engine (Figure 1) — backward-compatible facade.

Packet path: hash the header to a flow ID; if the ID is in the CDB, look up
the label and forward the packet to the matching output queue. Otherwise
buffer the packet's payload; once the flow's buffer holds enough bytes
(``header_threshold + buffer_size``), strip/skip any application header,
extract the entropy vector (exact or estimated), classify, store the label
in the CDB, and flush the buffered packets to the output queue. TCP FIN/RST
removes the flow's CDB record; inactivity purging follows the CDB policy.

Flows whose buffers cannot fill (short flows) are classified from whatever
payload they have on timeout or FIN, provided it covers the widest feature.

The implementation lives in :mod:`repro.engine`: ``IustitiaEngine`` is a
thin facade over :class:`repro.engine.StagedEngine` pinned to
``max_batch=1`` (classify each flow the instant it is ready — the seed
monolith's synchronous behaviour), with a ``StatsSink`` + ``QueueSink``
pair standing in for the historical ``stats.classified`` and
``output_queues`` surfaces. New code that wants micro-batched
classification or custom sinks should use ``StagedEngine`` directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.labels import FlowNature
from repro.engine.engine import StagedEngine
from repro.engine.sinks import QueueSink, StatsSink
from repro.engine.types import ClassifiedFlow, EngineStats
from repro.net.packet import Packet
from repro.net.trace import Trace

__all__ = ["ClassifiedFlow", "IustitiaEngine", "PipelineStats"]

#: Back-compat alias: the stats container now lives with the staged engine.
PipelineStats = EngineStats


class IustitiaEngine:
    """Online flow-nature classifier engine (synchronous facade).

    Construction and the whole public surface (``stats``,
    ``output_queues``, ``cdb``, ``process_packet``, ``flush_timeouts``,
    ``process_trace``, ``evaluate_against``) match the original
    monolithic engine; work is delegated to a ``StagedEngine`` with
    ``max_batch=1``, so labels, counters, and the CDB size series are
    identical to the seed implementation.
    """

    def __init__(
        self,
        classifier: IustitiaClassifier,
        config: "IustitiaConfig | None" = None,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        self._queue_sink = QueueSink()
        self._engine = StagedEngine(
            classifier,
            EngineConfig(max_batch=1, max_delay=0.0, pipeline=config),
            rng=rng,
            sinks=[StatsSink(), self._queue_sink],
        )

    # -- delegated surface ----------------------------------------------------

    @property
    def classifier(self) -> IustitiaClassifier:
        return self._engine.classifier

    @property
    def config(self) -> IustitiaConfig:
        return self._engine.config

    @property
    def stats(self) -> PipelineStats:
        return self._engine.stats

    @property
    def metrics(self):
        """The staged engine's ``MetricsRegistry`` (None when telemetry off)."""
        return self._engine.metrics

    @property
    def cdb(self):
        """The engine's flow table, which is its ``ClassificationDatabase``."""
        return self._engine.table

    @property
    def output_queues(self) -> "dict[FlowNature, list[Packet]]":
        """Per-nature forwarded packets (the facade's QueueSink)."""
        return self._queue_sink.queues

    @property
    def _pending(self) -> dict:
        """Pending flows by ID, in first-arrival order (testing aid)."""
        return dict(self._engine.table.pending_items())

    def process_packet(self, packet: Packet) -> "FlowNature | None":
        """Run one packet through the engine; returns its flow's label if known."""
        return self._engine.process_packet(packet)

    def flush_timeouts(self, now: float) -> int:
        """Classify pending flows inactive beyond ``buffer_timeout``."""
        return self._engine.flush_timeouts(now)

    def process_trace(
        self, trace: Trace, sample_interval: float = 1.0
    ) -> PipelineStats:
        """Run a whole trace; samples the CDB size every ``sample_interval``."""
        return self._engine.process_trace(trace, sample_interval=sample_interval)

    def evaluate_against(self, trace: Trace) -> dict[str, float]:
        """Accuracy of this run's flow labels against trace ground truth."""
        return self._engine.evaluate_against(trace)
