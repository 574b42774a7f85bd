"""Tests for the online engine (Figure 1 path), classify-on-ready."""

import pytest

from repro.core.config import IustitiaConfig
from repro.core.labels import ALL_NATURES
from repro.engine import QueueSink
from repro.net.flow import FlowKey
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)
from tests.conftest import sync_engine


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


@pytest.fixture
def engine(trained_svm):
    return sync_engine(trained_svm, IustitiaConfig(buffer_size=32))


class TestPacketPath:
    def test_flow_classified_once_buffer_fills(self, engine, sample_files):
        payload = sample_files["encrypted"][:40]
        label = engine.process_packet(_udp_packet(payload, 0.0))
        assert label is not None
        assert engine.stats.classifications == 1
        assert len(engine.table) == 1

    def test_buffering_until_enough_bytes(self, engine, sample_files):
        data = sample_files["text"]
        assert engine.process_packet(_udp_packet(data[:10], 0.0)) is None
        assert engine.stats.classifications == 0
        label = engine.process_packet(_udp_packet(data[10:40], 0.1))
        assert label is not None
        assert engine.stats.classifications == 1

    def test_cdb_hit_skips_classification(self, engine, sample_files):
        data = sample_files["binary"]
        engine.process_packet(_udp_packet(data[:40], 0.0))
        label = engine.process_packet(_udp_packet(data[40:80], 0.1))
        assert label is not None
        assert engine.stats.cdb_hits == 1
        assert engine.stats.classifications == 1

    def test_buffered_packets_flushed_to_output_queue(
        self, trained_svm, sample_files
    ):
        forwarded = QueueSink()
        engine = sync_engine(
            trained_svm, IustitiaConfig(buffer_size=32), sink=forwarded
        )
        data = sample_files["encrypted"]
        engine.process_packet(_udp_packet(data[:16], 0.0))
        label = engine.process_packet(_udp_packet(data[16:48], 0.1))
        queue = forwarded.queues[label]
        assert len(queue) == 2  # both buffered packets delivered

    def test_distinct_flows_tracked_separately(self, engine, sample_files):
        engine.process_packet(_udp_packet(sample_files["text"][:40], 0.0, sport=1001))
        engine.process_packet(_udp_packet(sample_files["encrypted"][:40], 0.0, sport=1002))
        assert engine.stats.classifications == 2
        assert len(engine.table) == 2


class TestFinHandling:
    def test_fin_removes_cdb_record(self, engine, sample_files):
        data = sample_files["binary"]
        engine.process_packet(_tcp_packet(data[:40], 0.0))
        assert len(engine.table) == 1
        engine.process_packet(_tcp_packet(b"", 0.2, flags=FLAG_ACK | FLAG_FIN))
        assert len(engine.table) == 0
        assert engine.stats.fin_removals == 1

    def test_fin_on_pending_flow_classifies_partial_buffer(self, engine, sample_files):
        data = sample_files["encrypted"]
        engine.process_packet(_tcp_packet(data[:20], 0.0))
        # FIN arrives before 32 bytes buffered: classify from 20 bytes.
        engine.process_packet(_tcp_packet(b"", 0.1, flags=FLAG_ACK | FLAG_FIN))
        assert engine.stats.classifications == 1
        assert len(engine.table) == 0  # classified then removed on close

    def test_tiny_flow_on_fin_is_unclassifiable(self, engine):
        engine.process_packet(_tcp_packet(b"ab", 0.0))
        engine.process_packet(_tcp_packet(b"", 0.1, flags=FLAG_ACK | FLAG_FIN))
        assert engine.stats.unclassifiable == 1
        assert engine.stats.classifications == 0


class TestTimeouts:
    def test_flush_timeouts_classifies_stale_pending(self, engine, sample_files):
        engine.process_packet(_udp_packet(sample_files["text"][:20], 0.0))
        assert engine.stats.classifications == 0
        handled = engine.flush_timeouts(now=100.0)
        assert handled == 1
        assert engine.stats.classifications == 1

    def test_fresh_pending_not_flushed(self, engine, sample_files):
        engine.process_packet(_udp_packet(sample_files["text"][:20], 0.0))
        assert engine.flush_timeouts(now=1.0) == 0
        assert engine.stats.classifications == 0

    def test_inactivity_equal_to_timeout_does_not_expire(
        self, engine, sample_files
    ):
        # Section 4.4.1's condition is strict: a flow whose inactivity
        # EQUALS buffer_timeout has not yet "stopped receiving packets
        # for a certain period of time".
        engine.process_packet(_udp_packet(sample_files["text"][:20], 5.0))
        timeout = engine.config.buffer_timeout
        assert engine.flush_timeouts(now=5.0 + timeout) == 0
        assert engine.stats.classifications == 0
        assert engine.flush_timeouts(now=5.0 + timeout + 1e-6) == 1
        assert engine.stats.classifications == 1

    def test_later_packet_postpones_expiry(self, engine, sample_files):
        data = sample_files["text"]
        engine.process_packet(_udp_packet(data[:10], 0.0))
        engine.process_packet(_udp_packet(data[10:20], 8.0))
        timeout = engine.config.buffer_timeout
        # Measured from the LAST arrival, not the first.
        assert engine.flush_timeouts(now=timeout + 4.0) == 0
        assert engine.flush_timeouts(now=8.0 + timeout + 1e-6) == 1

    def test_batched_flush_matches_scalar_classification(
        self, engine, trained_svm, sample_files
    ):
        # Many stale pending flows drain through one classify_buffers call;
        # each must get the label the scalar per-buffer path would give it.
        payloads = {
            1001: sample_files["text"][:20],
            1002: sample_files["binary"][:20],
            1003: sample_files["encrypted"][:20],
            1004: sample_files["text"][40:60],
        }
        for sport, payload in payloads.items():
            engine.process_packet(_udp_packet(payload, 0.0, sport=sport))
        assert engine.flush_timeouts(now=100.0) == len(payloads)
        assert engine.stats.classifications == len(payloads)
        assert not engine.table.pending
        by_key = {c.key.src_port: c.label for c in engine.stats.classified}
        for sport, payload in payloads.items():
            assert by_key[sport] == trained_svm.classify_buffer(payload)

    def test_batched_flush_skips_tiny_flows(self, engine, sample_files):
        engine.process_packet(_udp_packet(b"abc", 0.0, sport=2001))
        engine.process_packet(
            _udp_packet(sample_files["encrypted"][:20], 0.0, sport=2002)
        )
        assert engine.flush_timeouts(now=100.0) == 2
        assert engine.stats.classifications == 1
        assert engine.stats.unclassifiable == 1
        assert not engine.table.pending


class TestCdbRemovalAttribution:
    """Each CDB exit path lands in its own lifetime counter (Figure 8)."""

    def test_fin_close_counts_as_fin(self, engine, sample_files):
        data = sample_files["binary"]
        engine.process_packet(_tcp_packet(data[:40], 0.0))
        engine.process_packet(_tcp_packet(b"", 0.2, flags=FLAG_ACK | FLAG_FIN))
        assert engine.table.total_removed_fin == 1
        assert engine.table.total_removed_reclassified == 0
        assert engine.table.total_removed_inactive == 0

    def test_reclassification_not_counted_as_fin(self, trained_svm, sample_files):
        config = IustitiaConfig(buffer_size=32, reclassify_interval=1.0)
        engine = sync_engine(trained_svm, config)
        data = sample_files["encrypted"]
        engine.process_packet(_udp_packet(data[:40], 0.0))
        # A CDB hit 2s later exceeds reclassify_interval: the record is
        # deleted (reason="reclassified") and the flow re-buffers.
        engine.process_packet(_udp_packet(data[40:80], 2.0))
        assert engine.stats.reclassifications == 1
        assert engine.table.total_removed_reclassified == 1
        assert engine.table.total_removed_fin == 0

    def test_inactivity_purge_counted_separately(self, trained_svm, sample_files):
        config = IustitiaConfig(buffer_size=32, purge_trigger_flows=2)
        engine = sync_engine(trained_svm, config)
        data = sample_files["text"]
        engine.process_packet(_udp_packet(data[:40], 0.0, sport=1001))
        # The second insert, far in the future, trips the sweep and
        # purges the first (stale) record.
        engine.process_packet(_udp_packet(data[:40], 500.0, sport=1002))
        assert engine.table.total_removed_inactive == 1
        assert engine.table.total_removed_fin == 0
        assert engine.table.removal_counts == {
            "fin": 0, "inactive": 1, "reclassified": 0
        }


class TestTraceProcessing:
    def test_full_trace_accuracy(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        stats = engine.process_trace(small_trace)
        assert stats.packets == len(small_trace)
        assert stats.classifications > 0
        report = engine.evaluate_against(small_trace)
        assert report["accuracy"] > 0.75  # paper headline band

    def test_cdb_size_series_recorded(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        stats = engine.process_trace(small_trace, sample_interval=2.0)
        assert stats.cdb_size_series
        times = [t for t, _ in stats.cdb_size_series]
        assert times == sorted(times)

    def test_cdb_size_series_no_duplicate_final_sample(self, trained_svm):
        from repro.net.trace import Trace

        # Regression: when the last packet lands exactly on a sample point,
        # the end-of-trace drain used to append a second sample at the same
        # timestamp. The final sample must instead replace it.
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        data = bytes(range(64))
        trace = Trace(
            packets=[
                _udp_packet(data[:40], 0.0, sport=3001),
                _udp_packet(data[:40], 1.0, sport=3002),
            ]
        )
        stats = engine.process_trace(trace, sample_interval=1.0)
        times = [t for t, _ in stats.cdb_size_series]
        assert times == sorted(set(times))  # strictly increasing, no dupes
        assert times[-1] == 1.0
        # The replaced sample reflects the post-drain CDB size.
        assert stats.cdb_size_series[-1][1] == len(engine.table)

    def test_cdb_size_series_strictly_increasing(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        stats = engine.process_trace(small_trace, sample_interval=0.5)
        times = [t for t, _ in stats.cdb_size_series]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_per_class_counts_sum_to_classifications(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        stats = engine.process_trace(small_trace)
        assert sum(stats.per_class.values()) == stats.classifications

    def test_output_queues_partition_data_packets(self, trained_svm, small_trace):
        forwarded = QueueSink()
        engine = sync_engine(
            trained_svm, IustitiaConfig(buffer_size=32), sink=forwarded
        )
        stats = engine.process_trace(small_trace)
        queued = sum(len(q) for q in forwarded.queues.values())
        # Every data packet of a classified flow ends up in exactly one queue.
        assert queued <= stats.data_packets
        assert queued > 0

    def test_invalid_sample_interval(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm)
        with pytest.raises(ValueError, match="sample_interval"):
            engine.process_trace(small_trace, sample_interval=0.0)

    def test_evaluate_requires_ground_truth(self, trained_svm, small_trace):
        from repro.net.trace import Trace

        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        unlabeled = Trace(packets=list(small_trace.packets))
        engine.process_trace(unlabeled)
        with pytest.raises(ValueError, match="ground-truth"):
            engine.evaluate_against(unlabeled)


class TestHeaderAwareEngine:
    def test_known_headers_stripped_when_buffer_allows(
        self, small_corpus, header_trace
    ):
        from repro.core.classifier import IustitiaClassifier

        clf = IustitiaClassifier(model="svm", buffer_size=512).fit_corpus(
            small_corpus
        )
        engine = sync_engine(
            clf, IustitiaConfig(buffer_size=512, strip_known_headers=True)
        )
        engine.process_trace(header_trace)
        stripped = [
            c for c in engine.stats.classified if c.stripped_protocol is not None
        ]
        # Every flow in this trace starts with a known app header.
        assert len(stripped) > 0.9 * len(engine.stats.classified)
