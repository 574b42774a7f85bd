"""Tests for the PacketSource implementations."""

import socket
import struct
import threading

import pytest

from repro.ingest import (
    INGEST_LAG_BUCKETS,
    PacketSource,
    PcapFileSource,
    ReplaySource,
    SocketSource,
    TraceSource,
)
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.net.pcap import read_pcap, write_pcap
from repro.obs import MetricsRegistry


def _packet(i: int, payload: bytes = b"abcdefgh") -> Packet:
    return Packet(
        ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=17),
        transport=UdpHeader(src_port=1000 + i, dst_port=53),
        payload=payload,
        timestamp=float(i),
    )


class TestProtocol:
    def test_concrete_sources_satisfy_protocol(self, tmp_path, small_trace):
        path = tmp_path / "p.pcap"
        write_pcap(path, [])
        assert isinstance(PcapFileSource(path), PacketSource)
        assert isinstance(TraceSource(small_trace), PacketSource)
        assert isinstance(ReplaySource(TraceSource(small_trace)), PacketSource)


class TestPcapFileSource:
    def test_matches_read_pcap_packet_for_packet(self, tmp_path, small_trace):
        path = tmp_path / "trace.pcap"
        write_pcap(path, small_trace.packets)
        materialized = read_pcap(path)
        with PcapFileSource(path) as source:
            streamed = list(source)
        assert len(streamed) == len(materialized)
        for a, b in zip(streamed, materialized):
            assert a.five_tuple == b.five_tuple
            assert a.timestamp == b.timestamp
            assert bytes(a.payload) == bytes(b.payload)

    def test_stats_filled(self, tmp_path):
        path = tmp_path / "s.pcap"
        write_pcap(path, [_packet(i) for i in range(5)])
        source = PcapFileSource(path)
        list(source)
        assert source.stats.records == 5
        assert source.stats.packets == 5
        assert source.stats.bytes > 0

    def test_close_stops_iteration(self, tmp_path):
        path = tmp_path / "c.pcap"
        write_pcap(path, [_packet(i) for i in range(10)])
        source = PcapFileSource(path)
        iterator = iter(source)
        next(iterator)
        source.close()
        assert list(iterator) == []
        # A fresh pass over a closed source yields nothing.
        assert list(source) == []
        source.close()  # idempotent

    def test_metrics_leveled(self, tmp_path):
        path = tmp_path / "m.pcap"
        write_pcap(path, [_packet(i) for i in range(7)])
        icmp = bytearray(_packet(7).to_bytes())
        icmp[9] = 1  # IPv4 protocol field: not TCP/UDP, so undecodable
        with open(path, "ab") as handle:
            handle.write(struct.pack("!IIII", 9, 0, len(icmp), len(icmp)) + icmp)
        registry = MetricsRegistry()
        with PcapFileSource(path, registry=registry) as source:
            count = sum(1 for _ in source)
        assert count == 7
        label = f"pcap:{path.name}"
        counter = registry.counter("ingest_packets_total", source=label)
        assert counter.value == 7
        errors = registry.counter("ingest_decode_errors_total", source=label)
        assert errors.value == 1


class TestTraceSource:
    def test_yields_trace_packets_and_labels(self, small_trace):
        source = TraceSource(small_trace)
        assert list(source) == list(small_trace.packets)
        assert source.labels == small_trace.labels


class TestReplaySource:
    def test_rejects_bad_speed(self, small_trace):
        with pytest.raises(ValueError, match="speed must be positive"):
            ReplaySource(TraceSource(small_trace), speed=0)

    def test_paces_on_injected_clock(self):
        packets = [_packet(i) for i in range(4)]  # timestamps 0..3
        clock_now = [100.0]
        sleeps: list[float] = []

        def clock() -> float:
            return clock_now[0]

        def sleep(seconds: float) -> None:
            sleeps.append(seconds)
            clock_now[0] += seconds

        source = ReplaySource(packets, speed=2.0, clock=clock, sleep=sleep)
        assert list(source) == packets
        # 1s of packet time at 2x replay = 0.5s of wall time per gap.
        assert sleeps == pytest.approx([0.5, 0.5, 0.5])
        assert source.max_lag_s == 0.0

    def test_records_lag_when_consumer_is_slow(self):
        packets = [_packet(i) for i in range(3)]
        clock_now = [0.0]

        def clock() -> float:
            # Advance 2s per reading: the consumer is always late for
            # 1s-apart packets, so no sleeps happen and lag accrues.
            clock_now[0] += 2.0
            return clock_now[0]

        registry = MetricsRegistry()
        source = ReplaySource(
            packets, clock=clock, sleep=lambda s: None, registry=registry
        )
        assert len(list(source)) == 3
        assert source.max_lag_s > 0
        histogram = registry.histogram(
            "ingest_lag_seconds", buckets=INGEST_LAG_BUCKETS, source="replay"
        )
        assert histogram.count >= 1

    def test_close_closes_inner_source(self, tmp_path):
        path = tmp_path / "r.pcap"
        write_pcap(path, [_packet(0)])
        inner = PcapFileSource(path)
        ReplaySource(inner).close()
        assert list(inner) == []


class TestSocketSource:
    def test_receives_datagrams_until_idle_timeout(self):
        source = SocketSource.bind_udp(
            "127.0.0.1", 0, idle_timeout=0.5, timestamp=lambda: 42.0
        )
        host, port = source.address
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        expected = [_packet(i) for i in range(3)]
        with source:
            for packet in expected:
                sender.sendto(packet.to_bytes(), (host, port))
            sender.sendto(b"\x00\x01garbage", (host, port))
            received = list(source)
        sender.close()
        assert [p.five_tuple for p in received] == [
            p.five_tuple for p in expected
        ]
        assert all(p.timestamp == 42.0 for p in received)
        assert source.stats.packets == 3
        assert source.stats.decode_errors == 1

    def test_close_from_other_thread_unblocks_recv(self):
        source = SocketSource.bind_udp("127.0.0.1", 0)
        results: list[Packet] = []

        def consume() -> None:
            results.extend(source)

        thread = threading.Thread(target=consume)
        thread.start()
        timer = threading.Timer(0.2, source.close)
        timer.start()
        thread.join(timeout=5.0)
        timer.cancel()
        assert not thread.is_alive()
        assert results == []
        source.close()  # idempotent

    def test_rejects_bad_idle_timeout(self):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            with pytest.raises(ValueError, match="idle_timeout"):
                SocketSource(sock, idle_timeout=0)
        finally:
            sock.close()


# -- per-pass state and socket ownership (issue regressions) ------------------

from tests.ingest.faults import FlakySocket


class TestMultiPassState:
    def test_pcap_stats_are_per_pass_counters_cumulative(self, tmp_path):
        path = tmp_path / "multi.pcap"
        write_pcap(path, [_packet(i) for i in range(5)])
        registry = MetricsRegistry()
        source = PcapFileSource(path, registry=registry)
        assert len(list(source)) == 5
        assert source.stats.packets == 5
        # A second pass gets fresh per-pass stats (not 10 = both passes
        # mixed), while the registry counter stays cumulative.
        assert len(list(source)) == 5
        assert source.stats.packets == 5
        assert source.stats.records == 5
        counter = registry.counter(
            "ingest_packets_total", source=f"pcap:{path.name}"
        )
        assert counter.value == 10

    def test_replay_max_lag_resets_per_pass(self):
        packets = [_packet(i) for i in range(3)]
        state = {"now": 0.0, "step": 2.0}

        def clock() -> float:
            state["now"] += state["step"]
            return state["now"]

        def sleep(seconds: float) -> None:
            state["now"] += seconds

        source = ReplaySource(packets, clock=clock, sleep=sleep)
        # Pass 1: the clock jumps 2s per reading, so every 1s-apart
        # packet is late and lag accrues.
        assert list(source) == packets
        assert source.max_lag_s > 0
        # Pass 2: the clock only advances through sleep, so delivery is
        # exactly on schedule — and the stale pass-1 lag must not leak.
        state["step"] = 0.0
        assert list(source) == packets
        assert source.max_lag_s == 0.0


class TestSocketOwnership:
    def test_borrowed_socket_timeout_restored_on_close(self):
        sock = FlakySocket([], timeout=7.5)
        source = SocketSource(sock, own_socket=False)
        # While iterating, the source retunes the timeout to its poll
        # interval so a cross-thread close() is noticed.
        assert sock.gettimeout() == SocketSource.POLL_INTERVAL
        assert list(source) == []  # scripted datagrams exhausted: clean end
        source.close()
        assert not sock.closed
        assert sock.gettimeout() == 7.5
        assert sock.timeouts == [SocketSource.POLL_INTERVAL, 7.5]

    def test_owned_socket_closed_on_close(self):
        sock = FlakySocket([], timeout=7.5)
        SocketSource(sock).close()
        assert sock.closed

    def test_scripted_socket_drives_decode_accounting(self):
        good = [_packet(0), _packet(1)]
        sock = FlakySocket(
            [good[0].to_bytes(), b"\x00\x01garbage", good[1].to_bytes()]
        )
        source = SocketSource(sock, timestamp=lambda: 3.25)
        received = list(source)
        assert [p.five_tuple for p in received] == [
            p.five_tuple for p in good
        ]
        assert all(p.timestamp == 3.25 for p in received)
        assert source.stats.packets == 2
        assert source.stats.decode_errors == 1
