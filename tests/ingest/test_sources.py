"""Tests for the PacketSource protocol and the pcap file source."""

import struct

from repro.ingest import PacketSource, PcapFileSource, SupervisedSource
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
        assert isinstance(
            SupervisedSource(lambda: PcapFileSource(path)), PacketSource
        )
        # A plain generator qualifies: __iter__ and close() are the contract.
        assert isinstance((p for p in small_trace.packets), PacketSource)


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

    def test_counters_read_live_and_sum_over_reopens(self, tmp_path):
        path = tmp_path / "reopen.pcap"
        write_pcap(path, [_packet(i) for i in range(6)])
        registry = MetricsRegistry()
        counter = registry.counter(
            "ingest_packets_total", source=f"pcap:{path.name}"
        )
        first = PcapFileSource(path, registry=registry)
        iterator = iter(first)
        for n in range(1, 4):
            next(iterator)
            assert counter.value == n  # exact mid-pass, nothing pushed
        first.close()
        # A re-open under the same label (what a supervisor's factory
        # does) adds its own reader to the same counter.
        with PcapFileSource(path, registry=registry) as second:
            assert len(list(second)) == 6
        assert counter.value == 3 + 6
