"""Tests for the staged engine's telemetry plane (repro.obs wiring)."""

import math

import pytest

from repro.core.config import EngineConfig
from repro.core.labels import TEXT
from repro.engine import ClassifiedFlow, MetricsSink, StagedEngine, StatsSink
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.obs import render_text, validate_text


def _udp_packet(timestamp: float) -> Packet:
    ip = Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=17)
    return Packet(ip, UdpHeader(src_port=4000, dst_port=53), b"payload", timestamp)


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
        from repro.obs import MetricsRegistry

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
        """Two engines on one registry sum, not fight, on shared counters."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        engines = [
            StagedEngine(
                trained_svm, EngineConfig(max_batch=8), registry=registry
            )
            for _ in range(2)
        ]
        for engine in engines:
            engine.process_trace(small_trace)
            registry.snapshot()  # interleaved scrapes must not double-count
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


class TestMetricsSink:
    def test_counts_match_stats_sink(self, trained_svm, small_trace):
        stats_sink = StatsSink()
        metrics_sink = MetricsSink()
        engine = StagedEngine(
            trained_svm,
            EngineConfig(max_batch=8),
            sinks=[stats_sink, metrics_sink],
        )
        engine.process_trace(small_trace)
        snap = metrics_sink.snapshot()
        per_class = {
            label.split('"')[1]: int(count)
            for label, count in snap["sink_flows_classified_total"].items()
        }
        expected = {
            str(nature): count
            for nature, count in stats_sink.per_class.items()
            if count
        }
        assert {k: v for k, v in per_class.items() if v} == expected

        delay = snap["sink_classification_delay_seconds"]
        assert delay["count"] == len(stats_sink.classified)
        assert delay["sum"] == pytest.approx(
            math.fsum(stats_sink.buffering_delays()), rel=1e-9
        )

    def test_engine_adopts_sink_registry(self, trained_svm, small_trace):
        sink = MetricsSink()
        engine = StagedEngine(
            trained_svm, EngineConfig(max_batch=8), sinks=[sink]
        )
        engine.process_trace(small_trace)
        assert engine.metrics is sink.registry
        # One registry carries both planes: engine stages and sink.
        snap = sink.snapshot()
        assert "engine_packets_total" in snap
        assert "sink_flows_classified_total" in snap

    def test_periodic_emission_on_packet_clock(self, trained_svm, small_trace):
        sink = MetricsSink(emit_interval=5.0)
        engine = StagedEngine(
            trained_svm, EngineConfig(max_batch=8), sinks=[sink]
        )
        engine.process_trace(small_trace)
        span = (
            small_trace.packets[-1].timestamp
            - small_trace.packets[0].timestamp
        )
        assert len(sink.snapshots) >= int(span / 5.0) - 1
        times = [t for t, _ in sink.snapshots]
        assert times == sorted(times)
        # Periodic snapshots carry the whole telemetry plane.
        assert "engine_packets_total" in sink.snapshots[-1][1]

    def test_idle_gap_is_scraped_once_and_emits_every_interval(self):
        """A one-hour silence at ``emit_interval=1``: 3,600 snapshots, one scrape."""

        class ScrapePerInterval(MetricsSink):
            """The former ``_tick``, as the oracle for the emitted series."""

            def _tick(self, now):
                if self._next_emit is None:
                    self._next_emit = now + self.emit_interval
                while now >= self._next_emit:
                    self.snapshots.append((self._next_emit, self.registry.snapshot()))
                    self._next_emit += self.emit_interval

        def collector_runs(sink):
            runs = []
            sink.registry.add_collector(lambda: runs.append(1))
            # A first flow: an empty delay histogram's mean is NaN != NaN.
            sink.on_flow_classified(ClassifiedFlow(None, TEXT, 0.0, 0.01, 32, None), [])
            for timestamp in (0.0, 0.5, 1.0, 3600.25, 3600.5, 3602.0):
                sink.on_packet(TEXT, _udp_packet(timestamp))
            return len(runs)

        sink = MetricsSink(emit_interval=1.0)
        reference = ScrapePerInterval(emit_interval=1.0)

        assert collector_runs(reference) == len(reference.snapshots) == 3602
        # One scrape per packet that crossed an interval: 1.0, 3600.25, 3602.0.
        assert collector_runs(sink) == 3
        assert sink.snapshots == reference.snapshots
        assert [t for t, _ in sink.snapshots] == [float(t) for t in range(1, 3603)]
        forwarded = [
            snap["sink_forwarded_packets_total"]['nature="text"']
            for _, snap in sink.snapshots
        ]
        assert forwarded == [3.0] + [4.0] * 3599 + [6.0] * 2

    def test_emit_callback_instead_of_list(self, trained_svm, small_trace):
        seen = []
        sink = MetricsSink(
            emit_interval=5.0, emit=lambda t, snap: seen.append(t)
        )
        engine = StagedEngine(
            trained_svm, EngineConfig(max_batch=8), sinks=[sink]
        )
        engine.process_trace(small_trace)
        assert seen
        assert not sink.snapshots
