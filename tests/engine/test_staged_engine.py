"""Behavioural tests for StagedEngine's micro-batched fill path."""

import pytest

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.labels import ALL_NATURES
from repro.engine import batcher as batching
from repro.engine import (
    CallbackSink,
    EngineClosedError,
    IngestResult,
    QueueSink,
    StagedEngine,
    StatsSink,
)
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)
from tests.engine.test_batcher import ManualClock


def _udp_packet(payload, timestamp, sport=5555):
    return Packet(
        ip=Ipv4Header(src="10.1.1.1", dst="10.2.2.2", protocol=17),
        transport=UdpHeader(src_port=sport, dst_port=80),
        payload=payload,
        timestamp=timestamp,
    )


def _tcp_packet(payload, timestamp, flags=FLAG_ACK, sport=6666):
    return Packet(
        ip=Ipv4Header(src="10.1.1.1", dst="10.2.2.2", protocol=6),
        transport=TcpHeader(src_port=sport, dst_port=80, flags=flags),
        payload=payload,
        timestamp=timestamp,
    )


def _engine(trained_svm, max_batch, **kwargs):
    return StagedEngine(
        trained_svm,
        EngineConfig(
            max_batch=max_batch,
            pipeline=IustitiaConfig(buffer_size=32),
        ),
        **kwargs,
    )


@pytest.mark.usefixtures("still_clock")
class TestBatchAccumulation:
    def test_full_buffers_wait_for_the_batch(self, trained_svm, sample_files):
        engine = _engine(trained_svm, max_batch=3)
        data = sample_files["text"]
        assert engine.process_packet(_udp_packet(data[:40], 0.0, sport=1001)) is None
        assert engine.process_packet(_udp_packet(data[:40], 0.1, sport=1002)) is None
        assert engine.stats.classifications == 0
        assert len(engine.batcher) == 2
        # The third ready flow trips the size trigger: all three classify.
        label = engine.process_packet(_udp_packet(data[:40], 0.2, sport=1003))
        assert label is not None
        assert engine.stats.classifications == 3
        assert len(engine.batcher) == 0

    def test_wall_clock_drains_overdue_batch(
        self, trained_svm, sample_files, monkeypatch
    ):
        wall = ManualClock()
        monkeypatch.setattr(batching, "clock", wall)
        engine = _engine(trained_svm, max_batch=100)
        engine.batcher.record_drain_cost(0.001)
        data = sample_files["binary"]
        engine.process_packet(_udp_packet(data[:40], 0.0, sport=1001))
        # An hour of packet clock drains nothing: the wait is wall time.
        engine.process_packet(_udp_packet(b"x", 3600.0, sport=2000))
        wall.now = batching.DRAIN_WAIT_COSTS * 0.001
        engine.process_packet(_udp_packet(b"x", 3600.1, sport=2000))
        assert engine.stats.classifications == 0
        # Past the wait: the next packet drains the queue first.
        wall.now += 1e-6
        engine.process_packet(_udp_packet(b"x", 3600.2, sport=2000))
        assert engine.stats.classifications == 1
        drains = engine.metrics.snapshot()["batcher_drains_total"]
        assert drains['reason="wait"'] == 1
        # Stamped at readiness, not at the drain's packet clock.
        assert engine.stats.classified[0].classified_at == 0.0

    def test_packet_of_a_queued_flow_is_a_cdb_hit(self, trained_svm, sample_files):
        data = sample_files["text"]
        packets = [
            _udp_packet(data[:40], 0.0, sport=1001),    # ready, queued
            _udp_packet(data[40:60], 0.1, sport=1001),  # a hit, had it drained
            _udp_packet(data[40:60], 0.3, sport=1001),
        ]
        runs = {}
        for max_batch in (1, 100):
            engine = _engine(trained_svm, max_batch=max_batch)
            for packet in packets:
                engine.process_packet(packet)
            engine.finish(now=0.3)
            record = engine.table.record_of(packets[0].flow_tuple)
            runs[max_batch] = (
                engine.stats.cdb_hits,
                engine.stats.classified,
                (record.last_arrival, record.last_inter_arrival, record.classified_at),
            )
        assert runs[100] == runs[1]
        assert runs[1][0] == 2
        # Buffered bytes are the window's, not what arrived while queued.
        assert runs[1][1][0].buffered_bytes == 40
        assert runs[1][2] == (0.3, pytest.approx(0.2), 0.0)

    def test_reclassified_while_queued_keeps_both_labels(
        self, trained_svm, sample_files
    ):
        data = sample_files["encrypted"]
        packets = [
            _udp_packet(data[:40], 0.0, sport=1001),    # ready at 0.0, queued
            _udp_packet(data[:40], 5.0, sport=1001),    # record older than 2 s
            _udp_packet(data[40:80], 6.0, sport=1001),  # a hit on the new label
        ]
        runs = {}
        for max_batch in (1, 100):
            engine = StagedEngine(
                trained_svm,
                EngineConfig(
                    max_batch=max_batch,
                    pipeline=IustitiaConfig(buffer_size=32, reclassify_interval=2.0),
                ),
            )
            for packet in packets:
                engine.process_packet(packet)
            engine.finish(now=6.0)
            stats = engine.stats
            runs[max_batch] = (
                stats.classified,
                (stats.reclassifications, stats.cdb_hits, stats.classifications),
                engine.table.removal_counts,
            )
        assert runs[100] == runs[1]
        assert runs[1][1] == (1, 1, 2)
        assert [outcome.classified_at for outcome in runs[1][0]] == [0.0, 5.0]

    def test_late_packets_of_queued_flow_are_forwarded(
        self, trained_svm, sample_files
    ):
        queue_sink = QueueSink()
        engine = _engine(
            trained_svm, max_batch=2, sinks=[StatsSink(), queue_sink]
        )
        data = sample_files["encrypted"]
        engine.process_packet(_udp_packet(data[:40], 0.0, sport=1001))
        # Queued, not yet classified: a late packet keeps accumulating.
        engine.process_packet(_udp_packet(data[40:60], 0.1, sport=1001))
        assert engine.stats.classifications == 0
        engine.process_packet(_udp_packet(data[:40], 0.2, sport=1002))  # trips batch
        assert engine.stats.classifications == 2
        label = engine.stats.classified[0].label
        # Both packets of the first flow reached its output queue.
        assert sum(1 for p in queue_sink.queues[label]
                   if p.transport.src_port == 1001) == 2

    def test_fin_forces_immediate_drain(self, trained_svm, sample_files):
        engine = _engine(trained_svm, max_batch=100)
        data = sample_files["text"]
        engine.process_packet(_udp_packet(data[:40], 0.0, sport=1001))
        engine.process_packet(_tcp_packet(data[:20], 0.1, sport=7001))
        assert engine.stats.classifications == 0
        # FIN needs its flow's label now: the whole batch drains.
        label = engine.process_packet(
            _tcp_packet(b"", 0.2, flags=FLAG_ACK | FLAG_FIN, sport=7001)
        )
        assert label is not None
        assert engine.stats.classifications == 2
        assert engine.stats.fin_removals == 1

    def test_ingest_result_carries_label_and_ready_only(self):
        # A close drains through ``ready``; there is no separate flag.
        assert IngestResult.__slots__ == ("label", "ready")

    def test_finish_drains_queued_and_pending(self, trained_svm, sample_files):
        engine = _engine(trained_svm, max_batch=100)
        data = sample_files["binary"]
        engine.process_packet(_udp_packet(data[:40], 0.0, sport=1001))  # queued
        engine.process_packet(_udp_packet(data[:10], 0.1, sport=1002))  # pending
        engine.finish(now=5.0)
        assert engine.stats.classifications == 2
        assert engine.table.pending_count == 0
        assert len(engine.batcher) == 0


class TestTimeoutPath:
    def test_flush_timeouts_is_wheel_driven(self, trained_svm, sample_files):
        engine = _engine(trained_svm, max_batch=1)
        engine.process_packet(_udp_packet(sample_files["text"][:20], 0.0))
        assert len(engine.wheel) == 1
        assert engine.flush_timeouts(now=100.0) == 1
        assert engine.stats.classifications == 1
        assert len(engine.wheel) == 0

    def test_boundary_inactivity_does_not_expire(self, trained_svm, sample_files):
        # Inactivity EXACTLY equal to buffer_timeout (10s default) must
        # not expire the flow — the paper's test is strictly greater.
        engine = _engine(trained_svm, max_batch=1)
        engine.process_packet(_udp_packet(sample_files["text"][:20], 0.0))
        assert engine.flush_timeouts(now=10.0) == 0
        assert engine.stats.classifications == 0
        assert engine.flush_timeouts(now=10.0001) == 1
        assert engine.stats.classifications == 1

    def test_queued_flows_are_off_the_wheel(self, trained_svm, sample_files):
        engine = _engine(trained_svm, max_batch=100)
        engine.process_packet(_udp_packet(sample_files["text"][:40], 0.0))
        # Ready and queued: its deadline is cancelled, so a late flush
        # cannot double-classify it...
        assert len(engine.wheel) == 0
        assert engine.flush_timeouts(now=100.0) == 0
        # ...and the flush drains the queue whole.
        assert engine.stats.classifications == 1


class TestOneProbeLiveView:
    def test_purge_between_two_packets_of_a_flow_unlabels_it(
        self, trained_svm, sample_files
    ):
        engine = _engine(trained_svm, max_batch=1)
        data = sample_files["text"]
        assert engine.process_packet(_udp_packet(data[:40], 0.0)) is not None
        assert engine.process_packet(_udp_packet(data[:10], 0.1)) is not None
        assert engine.stats.cdb_hits == 1
        assert engine.table.purge_inactive(now=100.0) == 1
        # Not a hit: the flow buffers again, as an unknown one.
        assert engine.process_packet(_udp_packet(data[:10], 100.1)) is None
        assert engine.stats.cdb_hits == 1
        assert engine.table.pending_count == 1

    def test_direct_insert_and_remove_are_seen_by_the_next_packet(
        self, trained_svm, sample_files
    ):
        engine = _engine(trained_svm, max_batch=1)
        packet = _udp_packet(sample_files["text"][:10], 0.0)
        engine.table.insert(packet.flow_tuple, ALL_NATURES[0], now=0.0)
        assert engine.process_packet(packet) is ALL_NATURES[0]
        for reason in ("fin", "reclassified"):
            engine.table.remove(packet.flow_tuple, reason=reason)
            assert engine.process_packet(packet) is None
            engine.table.insert(packet.flow_tuple, ALL_NATURES[0], now=0.0)
        assert engine.stats.cdb_hits == 1


class TestIdleGap:
    def test_one_flush_covers_every_sample_an_idle_gap_crosses(
        self, trained_svm, sample_files
    ):
        data = sample_files["binary"]
        packets = [
            _udp_packet(data[:40], 0.0, sport=1001),    # classified at once
            _udp_packet(data[:10], 0.5, sport=1002),    # pending, then silent
            _udp_packet(data[:40], 3600.25, sport=1003),  # an hour later
        ]
        engine = _engine(trained_svm, max_batch=1)
        flushes = []
        flush_timeouts = engine.flush_timeouts
        engine.flush_timeouts = lambda now: flushes.append(now) or flush_timeouts(now)

        stats = engine.process_source(packets, sample_interval=1.0)

        assert flushes == [3600.25]
        # What a flush per crossed interval recorded: the silent flow
        # expires in the first, the rest find nothing, every sample reads
        # the same size.
        assert stats.cdb_size_series == [
            (float(second), 3) for second in range(1, 3601)
        ] + [(3600.25, 3)]
        assert stats.classifications == 3


class TestSinkFanout:
    def test_all_sinks_see_every_outcome(self, trained_svm, sample_files):
        seen = []
        engine = _engine(
            trained_svm,
            max_batch=1,
            sinks=[
                StatsSink(),
                CallbackSink(on_classified=lambda o, p: seen.append(o.label)),
            ],
        )
        engine.process_packet(_udp_packet(sample_files["text"][:40], 0.0))
        assert seen == [engine.stats.classified[0].label]
        assert engine.stats.per_class[seen[0]] == 1

    def test_without_stats_sink_counters_still_work(
        self, trained_svm, sample_files
    ):
        engine = _engine(
            trained_svm, max_batch=1, sinks=[QueueSink()]
        )
        engine.process_packet(_udp_packet(sample_files["text"][:40], 0.0))
        assert engine.stats.classifications == 1
        assert engine.stats.classified == []  # no StatsSink attached

    def test_buffering_delays_without_stats_sink_say_so(
        self, trained_svm, sample_files
    ):
        """Not an empty list, which would read as "no flow classified"."""
        engine = _engine(trained_svm, max_batch=1, sinks=[QueueSink()])
        assert engine.stats.buffering_delays() == []  # nothing classified yet
        engine.process_packet(_udp_packet(sample_files["text"][:40], 0.0))
        with pytest.raises(ValueError, match="no StatsSink keeps"):
            engine.stats.buffering_delays()

    def test_cdb_hit_packets_reach_on_packet(self, trained_svm, sample_files):
        forwarded = []
        engine = _engine(
            trained_svm,
            max_batch=1,
            sinks=[CallbackSink(on_packet=lambda lbl, p: forwarded.append(lbl))],
        )
        data = sample_files["binary"]
        engine.process_packet(_udp_packet(data[:40], 0.0))
        engine.process_packet(_udp_packet(data[40:60], 0.1))
        assert engine.stats.cdb_hits == 1
        assert len(forwarded) == 1


class TestStridedPayload:
    @pytest.mark.parametrize("extractor", ["batch", "incremental"])
    def test_a_strided_memoryview_payload_is_buffered(
        self, trained_cart, sample_files, extractor
    ):
        """A non-contiguous view is copied once, when the packet is built."""
        data = sample_files["binary"][:96]
        engine = open_engine(
            trained_cart,
            EngineConfig(
                max_batch=1,
                extractor=extractor,
                pipeline=IustitiaConfig(buffer_size=32, strip_known_headers=False),
            ),
        )
        label = engine.process_packet(_udp_packet(memoryview(data)[::2], 0.0))
        assert label == trained_cart.classify_buffers([data[::2][:32]])[0]
        assert engine.stats.classified[0].buffered_bytes == 48


class TestTraceAccuracy:
    @pytest.mark.parametrize("max_batch", [1, 16])
    def test_batched_engine_accuracy_in_paper_band(
        self, trained_svm, small_trace, max_batch
    ):
        engine = StagedEngine(
            trained_svm,
            EngineConfig(
                max_batch=max_batch,
                pipeline=IustitiaConfig(buffer_size=32),
            ),
        )
        stats = engine.process_trace(small_trace)
        assert stats.packets == len(small_trace)
        assert sum(stats.per_class.values()) == stats.classifications
        assert engine.evaluate_against(small_trace)["accuracy"] > 0.75

    def test_evaluating_without_a_stats_sink_says_so(self, trained_svm, small_trace):
        """No sink keeps outcomes: not "nothing matched ground truth"."""
        engine = StagedEngine(trained_svm, sinks=[QueueSink()])
        stats = engine.process_trace(small_trace)
        assert stats.classifications > 0
        with pytest.raises(ValueError, match="no StatsSink keeps"):
            engine.evaluate_against(small_trace)

    def test_default_knobs_work(self, trained_svm, small_trace):
        engine = StagedEngine(trained_svm, IustitiaConfig(buffer_size=32))
        engine.process_trace(small_trace)
        assert engine.stats.classifications > 0
        assert all(nature in engine.stats.per_class for nature in ALL_NATURES)


class TestLifecycle:
    """close()/finish() session semantics on the serial runtime."""

    def test_close_is_idempotent_and_engine_becomes_readonly(
        self, trained_cart, small_trace
    ):
        engine = StagedEngine(trained_cart, IustitiaConfig(buffer_size=32))
        with engine:
            stats = engine.process_trace(small_trace)
        engine.close()  # second close: no-op
        assert stats.classifications > 0
        assert engine.stats.classifications == stats.classifications
        with pytest.raises(EngineClosedError, match="closed"):
            engine.process_packet(small_trace.packets[0])
        with pytest.raises(EngineClosedError):
            engine.flush_timeouts(0.0)

    def test_double_finish_raises(self, trained_cart, small_trace):
        with StagedEngine(
            trained_cart, IustitiaConfig(buffer_size=32)
        ) as engine:
            engine.process_trace(small_trace)  # ends with finish()
            with pytest.raises(EngineClosedError, match="finish"):
                engine.finish(small_trace.packets[-1].timestamp)
            # Processing another packet re-arms finish().
            engine.process_packet(small_trace.packets[0])
            engine.finish(small_trace.packets[-1].timestamp + 60.0)

    def test_close_flushes_sinks(self, trained_cart, small_trace):
        class FlushingSink:
            def __init__(self):
                self.flushed = 0

            def on_flow_classified(self, outcome, packets):
                pass

            def on_packet(self, label, packet):
                pass

            def flush(self):
                self.flushed += 1

        sink = FlushingSink()
        engine = StagedEngine(
            trained_cart, IustitiaConfig(buffer_size=32), sinks=[sink]
        )
        with engine:
            engine.process_trace(small_trace)
        assert sink.flushed == 1

    def test_metrics_readable_after_close(self, trained_cart, small_trace):
        engine = StagedEngine(trained_cart, IustitiaConfig(buffer_size=32))
        with engine:
            engine.process_trace(small_trace)
        snap = engine.metrics.snapshot()
        assert sum(snap["engine_classifications_total"].values()) > 0
        assert snap["engine_packets_total"] == len(small_trace.packets)
