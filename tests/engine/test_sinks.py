"""Tests for the pluggable result sinks."""

import pytest

from repro.api import open_engine
from repro.core.config import EngineConfig
from repro.core.labels import ALL_NATURES, BINARY, TEXT
from repro.engine.engine import StagedEngine
from repro.engine.sinks import CallbackSink, QueueSink, ResultSink, StatsSink
from repro.engine.types import ClassifiedFlow
from repro.net.flow import FlowKey
from repro.net.packet import Ipv4Header, Packet, UdpHeader


def _packet(payload=b"data", timestamp=0.0, sport=5555):
    return Packet(
        ip=Ipv4Header(src="10.1.1.1", dst="10.2.2.2", protocol=17),
        transport=UdpHeader(src_port=sport, dst_port=80),
        payload=payload,
        timestamp=timestamp,
    )


def _outcome(label=TEXT, sport=5555):
    return ClassifiedFlow(
        key=FlowKey(src="10.1.1.1", src_port=sport, dst="10.2.2.2",
                    dst_port=80, protocol=17),
        label=label,
        classified_at=1.0,
        buffering_delay=0.5,
        buffered_bytes=40,
        stripped_protocol=None,
    )


class TestStatsSink:
    def test_collects_outcomes_and_per_class(self):
        sink = StatsSink()
        sink.on_flow_classified(_outcome(TEXT), [_packet()])
        sink.on_flow_classified(_outcome(BINARY), [])
        sink.on_flow_classified(_outcome(TEXT), [])
        assert len(sink.classified) == 3
        assert sink.per_class[TEXT] == 2
        assert sink.per_class[BINARY] == 1
        assert sink.buffering_delays() == [0.5, 0.5, 0.5]

    def test_ignores_forwarded_packets(self):
        sink = StatsSink()
        sink.on_packet(TEXT, _packet())
        assert sink.classified == []


class TestQueueSink:
    def test_buffered_and_forwarded_packets_share_a_queue(self):
        sink = QueueSink()
        buffered = [_packet(timestamp=0.0), _packet(timestamp=0.1)]
        sink.on_flow_classified(_outcome(BINARY), buffered)
        late = _packet(timestamp=0.5)
        sink.on_packet(BINARY, late)
        assert sink.queues[BINARY] == buffered + [late]
        assert all(not sink.queues[n] for n in ALL_NATURES if n is not BINARY)


class TestCallbackSink:
    def test_invokes_both_callbacks(self):
        classified, forwarded = [], []
        sink = CallbackSink(
            on_classified=lambda outcome, packets: classified.append(
                (outcome.label, len(packets))
            ),
            on_packet=lambda label, packet: forwarded.append(label),
        )
        sink.on_flow_classified(_outcome(TEXT), [_packet()])
        sink.on_packet(BINARY, _packet())
        assert classified == [(TEXT, 1)]
        assert forwarded == [BINARY]

    def test_none_callbacks_are_noops(self):
        sink = CallbackSink()
        sink.on_flow_classified(_outcome(), [])
        sink.on_packet(TEXT, _packet())


class TestBaseSink:
    def test_base_class_ignores_everything(self):
        sink = ResultSink()
        sink.on_flow_classified(_outcome(), [_packet()])
        sink.on_packet(TEXT, _packet())


class TestPerDrainProtocol:
    """The engine makes one ``on_flows_classified`` call per sink per drain."""

    def _feed(self, engine):
        """Two size drains of three; returns the first drain's flows.

        ``e`` arrives first but fills its window after ``a``; ``a`` gets
        a second packet while queued. So the first drain, in readiness
        order, is ``a`` (two packets), ``e`` (two), ``b`` (one).
        """
        a1, a2 = _packet(bytes(48), 0.001, 1), _packet(bytes(20), 0.002, 1)
        e1, e2 = _packet(bytes(10), 0.000, 5), _packet(bytes(30), 0.003, 5)
        b1 = _packet(bytes(48), 0.004, 2)
        for packet in sorted([a1, a2, e1, e2, b1], key=lambda p: p.timestamp):
            engine.process_packet(packet)
        for sport in (3, 4, 6):
            engine.process_packet(_packet(bytes(48), 0.01 + sport * 1e-3, sport))
        return [(0.001, 1, [a1, a2]), (0.003, 5, [e1, e2]), (0.004, 2, [b1])]

    def test_overriding_sink_gets_one_call_per_drain(self, trained_svm, still_clock):
        class DrainSink(ResultSink):
            def __init__(self):
                self.calls = []

            def on_flows_classified(self, outcomes, packets):
                self.calls.append((list(outcomes), [list(p) for p in packets]))

            def on_flow_classified(self, outcome, packets):
                raise AssertionError("a per-drain sink got a per-flow call")

        sink = DrainSink()
        engine = open_engine(trained_svm, EngineConfig(max_batch=3), sink=sink)
        first = self._feed(engine)

        assert [len(outcomes) for outcomes, _ in sink.calls] == [3, 3]
        outcomes, packets = sink.calls[0]
        assert [(o.classified_at, o.key.src_port) for o in outcomes] == [
            (ready, sport) for ready, sport, _ in first
        ]
        assert packets == [buffered for _, _, buffered in first]
        assert [o for outcomes, _ in sink.calls for o in outcomes] == (
            engine.stats.classified
        )

    def test_per_flow_sinks_see_every_flow_in_order(self, trained_svm, still_clock):
        class DuckSink:
            """No base class and no ``on_flows_classified``."""

            def __init__(self):
                self.seen = []

            def on_flow_classified(self, outcome, packets):
                self.seen.append((outcome, list(packets)))

            def on_packet(self, label, packet):
                pass

        duck = DuckSink()
        wrapped = ResultSink()
        seen = []
        wrapped.on_flow_classified = lambda outcome, packets: seen.append(
            (outcome, list(packets))
        )
        engine = open_engine(
            trained_svm, EngineConfig(max_batch=3), sink=[duck, wrapped]
        )
        first = self._feed(engine)

        assert [outcome for outcome, _ in duck.seen] == engine.stats.classified
        assert len(engine.stats.classified) == 6
        assert seen == duck.seen
        assert [packets for _, packets in duck.seen[:3]] == [
            buffered for _, _, buffered in first
        ]


class TestProtocolCheck:
    """A sink missing a required event is refused when the engine is built,
    not at its first CDB hit mid-stream."""

    class OnlyFlows:
        def on_flow_classified(self, outcome, packets):
            pass

    class OnlyPackets:
        def on_packet(self, label, packet):
            pass

    @pytest.mark.parametrize(
        "sink, missing",
        [(OnlyFlows(), "on_packet"), (OnlyPackets(), "on_flow_classified")],
        ids=["only-flows", "only-packets"],
    )
    def test_open_engine_names_the_missing_method(self, trained_svm, sink, missing):
        with pytest.raises(TypeError, match=f"ResultSink protocol.*{missing}"):
            open_engine(trained_svm, EngineConfig(max_batch=1), sink=sink)

    def test_staged_engine_checks_its_sinks_too(self, trained_svm):
        with pytest.raises(TypeError, match="missing on_packet"):
            StagedEngine(trained_svm, sinks=[StatsSink(), self.OnlyFlows()])

    def test_non_callable_event_is_missing(self, trained_svm):
        sink = self.OnlyFlows()
        sink.on_packet = None
        with pytest.raises(TypeError, match="missing on_packet"):
            open_engine(trained_svm, sink=sink)
