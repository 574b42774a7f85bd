"""Tests for the staged engine's telemetry plane (repro.obs wiring)."""

import pytest

from repro.core.config import EngineConfig
from repro.engine import StagedEngine
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.obs import MetricsRegistry, render_text, validate_text


def _short_udp_flow(port: int, timestamp: float) -> Packet:
    """A one-packet flow too short to fill its window: it stays pending."""
    ip = Ipv4Header(src="10.9.0.1", dst="10.9.0.2", protocol=17)
    return Packet(ip, UdpHeader(src_port=port, dst_port=53), b"abc", timestamp)


def _run(trained_svm, trace, **kwargs):
    engine = StagedEngine(trained_svm, EngineConfig(**kwargs))
    engine.process_trace(trace)
    return engine


class TestEngineTelemetry:
    def test_snapshot_nonempty_after_trace(self, trained_svm, small_trace):
        engine = _run(trained_svm, small_trace, max_batch=8)
        snap = engine.metrics.snapshot()
        assert snap  # the acceptance smoke: metrics exist after a run

        # Classification-delay histogram covers every classified flow.
        delay = snap["engine_classification_delay_seconds"]
        assert delay["count"] == engine.stats.classifications > 0
        assert delay["sum"] >= 0

        # The ingest counters are plain numbers equal to the stats.
        assert snap["engine_packets_total"] == engine.stats.packets
        assert snap["engine_payload_bytes_total"] == sum(
            len(packet.payload) for packet in small_trace.packets
        )

        # Per-nature classification counters match the stats surface.
        classified = snap["engine_classifications_total"]
        total = sum(classified.values())
        assert total == engine.stats.classifications

        # Per-flow state-byte sampling observed at least the first flow.
        state = snap["engine_flow_state_bytes"]
        assert state["count"] >= 1
        assert state["mean"] > 0

        # Batch classify wall-clock was measured.
        assert snap["engine_classify_batch_seconds"]["count"] > 0

    def test_batcher_drain_reasons_recorded(self, trained_svm, small_trace):
        engine = _run(trained_svm, small_trace, max_batch=8)
        snap = engine.metrics.snapshot()
        drains = snap["batcher_drains_total"]
        assert sum(drains.values()) > 0
        sizes = snap["batcher_drain_flows"]
        assert sizes["count"] == sum(drains.values())

    def test_cdb_gauges_track_occupancy(self, trained_svm, small_trace):
        engine = _run(trained_svm, small_trace, max_batch=8)
        snap = engine.metrics.snapshot()
        assert snap["cdb_flows"] == len(engine.table)
        assert snap["cdb_record_bytes"] == pytest.approx(
            len(engine.table) * 194 / 8.0
        )
        assert snap["engine_pending_flows"] == engine.table.pending_count

    def test_counters_monotonic_under_flush_timeouts(
        self, trained_svm, small_trace
    ):
        engine = StagedEngine(trained_svm, EngineConfig(max_batch=8))
        expirations = engine.metrics.counter("wheel_expirations_total")
        last_exp = last_cls = 0.0
        classified = engine.metrics.snapshot().get(
            "engine_classifications_total", {}
        )
        for i, packet in enumerate(small_trace.packets):
            engine.process_packet(packet)
            if i % 50 == 0:
                # Repeated flushes far in the future expire aggressively;
                # counters must never move backwards.
                engine.flush_timeouts(packet.timestamp + 100.0)
                assert expirations.value >= last_exp
                last_exp = expirations.value
                snap = engine.metrics.snapshot()
                total = sum(
                    snap.get("engine_classifications_total", {}).values()
                )
                assert total >= last_cls
                last_cls = total

    def test_exposition_of_live_engine_validates(self, trained_svm, small_trace):
        engine = _run(trained_svm, small_trace, max_batch=8)
        text = render_text(engine.metrics)
        assert validate_text(text) > 0
        assert "engine_classification_delay_seconds_bucket" in text

    def test_telemetry_off_means_no_registry(self, trained_svm, small_trace):
        engine = StagedEngine(trained_svm, EngineConfig(telemetry=False))
        engine.process_trace(small_trace)
        assert engine.metrics is None
        assert engine.stats.classifications > 0  # behaviour unaffected

    def test_explicit_registry_shared(self, trained_svm, small_trace):
        registry = MetricsRegistry()
        engine = StagedEngine(
            trained_svm, EngineConfig(max_batch=8), registry=registry
        )
        engine.process_trace(small_trace)
        assert engine.metrics is registry
        assert registry.snapshot()["engine_classification_delay_seconds"][
            "count"
        ] > 0

    def test_shared_registry_aggregates_engines(
        self, trained_svm, small_trace
    ):
        """Two engines on one registry sum on every counter and gauge."""
        registry = MetricsRegistry()
        engines = [
            StagedEngine(
                trained_svm, EngineConfig(max_batch=8), registry=registry
            )
            for _ in range(2)
        ]
        # The second engine stops a third into the trace with five short
        # flows pending (deadlines armed), and its table differs in size.
        engines[0].process_trace(small_trace)
        registry.snapshot()  # interleaved scrapes must not double-count
        head = small_trace.packets[: len(small_trace.packets) // 3]
        for packet in head:
            engines[1].process_packet(packet)
        for port in range(5):
            engines[1].process_packet(
                _short_udp_flow(40000 + port, head[-1].timestamp)
            )
        snap = registry.snapshot()
        assert snap["engine_cdb_hits_total"] == sum(
            e.stats.cdb_hits for e in engines
        )
        assert snap["engine_classification_delay_seconds"]["count"] == sum(
            e.stats.classifications for e in engines
        )
        assert snap["engine_packets_total"] == sum(
            e.stats.packets for e in engines
        )
        assert snap["cdb_flows"] == sum(len(e.table) for e in engines)
        assert snap["engine_pending_flows"] == sum(
            e.table.pending_count for e in engines
        )
        assert snap["wheel_scheduled_flows"] == sum(
            len(e.wheel) for e in engines
        )
        assert len(engines[0].table) != len(engines[1].table)
        assert snap["engine_pending_flows"] >= 5
        assert snap["wheel_scheduled_flows"] >= 5

    def test_scrape_mid_pass_reads_live_state(self, trained_svm, small_trace):
        """Readers need no collector run: every read is the live count."""
        engine = StagedEngine(trained_svm, EngineConfig(max_batch=8))
        packets = engine.metrics.counter("engine_packets_total")
        cdb = engine.metrics.gauge("cdb_flows")
        for n, packet in enumerate(small_trace.packets[:500], start=1):
            engine.process_packet(packet)
            assert packets.value == n
        assert cdb.value == len(engine.table) > 0
