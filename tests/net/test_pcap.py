"""Tests for the pcap reader/writer."""

import struct
import tracemalloc

import pytest

from repro.net.ethernet import EthernetHeader
from repro.net.packet import Ipv4Header, Packet, TcpHeader, UdpHeader
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PcapDecodeStats,
    PcapError,
    iter_pcap,
    read_pcap,
    write_pcap,
)


def _packets():
    return [
        Packet(
            ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=6),
            transport=TcpHeader(src_port=80, dst_port=5000, seq=1),
            payload=b"GET / HTTP/1.1\r\n\r\n",
            timestamp=1.000001,
        ),
        Packet(
            ip=Ipv4Header(src="10.0.0.3", dst="10.0.0.4", protocol=17),
            transport=UdpHeader(src_port=53, dst_port=3333),
            payload=b"\x01\x02\x03",
            timestamp=2.5,
        ),
    ]


class TestRoundTrip:
    def test_packets_survive(self, tmp_path):
        path = tmp_path / "test.pcap"
        write_pcap(path, _packets())
        loaded = read_pcap(path)
        assert len(loaded) == 2
        for original, parsed in zip(_packets(), loaded):
            assert parsed.five_tuple == original.five_tuple
            assert parsed.payload == original.payload
            assert parsed.timestamp == pytest.approx(original.timestamp, abs=1e-6)

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        assert read_pcap(path) == []

    def test_global_header_fields(self, tmp_path):
        path = tmp_path / "hdr.pcap"
        write_pcap(path, [])
        raw = path.read_bytes()
        magic, vmaj, vmin = struct.unpack("!IHH", raw[:8])
        linktype = struct.unpack("!I", raw[20:24])[0]
        assert magic == 0xA1B2C3D4
        assert (vmaj, vmin) == (2, 4)
        assert linktype == LINKTYPE_RAW

    def test_microsecond_rollover(self, tmp_path):
        path = tmp_path / "roll.pcap"
        packet = _packets()[0]
        packet.timestamp = 0.9999996  # rounds to 1_000_000 us
        write_pcap(path, [packet])
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(1.0)


class TestErrorHandling:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)  # pcapng magic
        with pytest.raises(ValueError, match="unrecognized pcap magic"):
            read_pcap(path)

    def test_truncated_global_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\xa1\xb2\xc3\xd4\x00")
        with pytest.raises(ValueError, match="truncated pcap global"):
            read_pcap(path)

    def test_truncated_record_body(self, tmp_path):
        path = tmp_path / "trunc.pcap"
        write_pcap(path, _packets()[:1])
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(ValueError, match="truncated pcap record body"):
            read_pcap(path)

    def test_wrong_linktype_rejected(self, tmp_path):
        path = tmp_path / "sll.pcap"
        header = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 113)
        path.write_bytes(header)
        with pytest.raises(ValueError, match="link type 113"):
            read_pcap(path)

    def test_swapped_byte_order_accepted(self, tmp_path):
        path = tmp_path / "swap.pcap"
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        body = _packets()[0].to_bytes()
        record = struct.pack("<IIII", 3, 500, len(body), len(body))
        path.write_bytes(header + record + body)
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(3.0005)

    def test_truncated_record_header_mid_file(self, tmp_path):
        path = tmp_path / "midtail.pcap"
        write_pcap(path, _packets())
        raw = path.read_bytes()
        # Keep the first full record and 7 bytes of the second record
        # header: iteration must yield packet one, then raise.
        first_len = len(_packets()[0].to_bytes())
        cut = 24 + 16 + first_len + 7
        path.write_bytes(raw[:cut])
        records = iter_pcap(path)
        assert next(records).payload == _packets()[0].payload
        with pytest.raises(ValueError, match="truncated pcap record header"):
            next(records)

    def test_hostile_captured_length_rejected_before_read(self, tmp_path):
        # 48 bytes: a record header claiming a 2 GiB body. The bound is
        # checked before the read, so nothing near that is allocated.
        path = tmp_path / "hostile.pcap"
        header = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("!IIII", 1, 0, 0x7FFFFFFF, 0x7FFFFFFF)
        path.write_bytes(header + record + b"\x00" * 8)
        assert path.stat().st_size == 48
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the snaplen bound"):
                read_pcap(path)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_unparseable_record_counted_and_skipped(self, tmp_path):
        # TCP, ICMP, TCP: the ICMP record's body is intact but is not a
        # TCP/UDP packet; it must cost one record, not the capture.
        path = tmp_path / "icmp.pcap"
        tcp = _packets()[0].to_bytes()
        icmp = bytearray(tcp)
        icmp[9] = 1  # IPv4 protocol field
        header = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        parts = [header]
        for body in (tcp, bytes(icmp), tcp):
            parts.append(struct.pack("!IIII", 1, 0, len(body), len(body)))
            parts.append(body)
        path.write_bytes(b"".join(parts))
        stats = PcapDecodeStats()
        loaded = list(iter_pcap(path, stats=stats))
        assert [p.payload for p in loaded] == [_packets()[0].payload] * 2
        assert stats.records == 3
        assert stats.decode_errors == 1
        assert stats.packets == 2

    def test_record_above_declared_snaplen_tolerated_up_to_floor(self, tmp_path):
        # Writers that understate snaplen are common; the bound is
        # max(snaplen, 262144), not the declared snaplen alone.
        path = tmp_path / "understated.pcap"
        body = _packets()[0].to_bytes()
        header = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 16, 101)
        record = struct.pack("!IIII", 1, 0, len(body), len(body))
        path.write_bytes(header + record + body)
        assert read_pcap(path)[0].payload == _packets()[0].payload


_RAW_HEADER = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)


@pytest.mark.parametrize(
    "blob, message",
    [
        (_RAW_HEADER[:6], "truncated pcap global header"),
        (b"not a pcap, just twenty-four+ bytes", "unrecognized pcap magic"),
        (_RAW_HEADER[:20] + struct.pack("!I", 113), "link type 113"),
        (_RAW_HEADER + b"\x00" * 7, "truncated pcap record header"),
        (
            _RAW_HEADER + struct.pack("!IIII", 1, 0, 1 << 30, 1 << 30),
            "exceeds the snaplen bound",
        ),
        (
            _RAW_HEADER + struct.pack("!IIII", 1, 0, 40, 40) + b"\x00" * 10,
            "truncated pcap record body",
        ),
    ],
)
def test_file_structure_damage_raises_pcap_error(tmp_path, blob, message):
    """Six sites, one type; a bad record *body* is counted, not raised
    (``test_unparseable_record_counted_and_skipped``)."""
    path = tmp_path / "damaged.pcap"
    path.write_bytes(blob)
    with pytest.raises(PcapError, match=message) as caught:
        list(iter_pcap(path))
    assert isinstance(caught.value, ValueError)


def test_decode_peak_does_not_scale_with_capture(tmp_path):
    """``iter_pcap`` is O(chunk + record): twice the capture, the same peak."""

    def peak_bytes(n_packets):
        path = tmp_path / f"{n_packets}.pcap"
        template = _packets()[0]
        write_pcap(
            path,
            (
                Packet(
                    ip=template.ip,
                    transport=template.transport,
                    payload=bytes(200),
                    timestamp=float(i),
                )
                for i in range(n_packets)
            ),
        )
        tracemalloc.start()
        try:
            decoded = sum(1 for _ in iter_pcap(path))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert decoded == n_packets
        return peak

    assert peak_bytes(4000) < 1.5 * peak_bytes(2000)


def _write_nano_pcap(path, order, seconds, nanos, body):
    magic = 0xA1B23C4D
    header = struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 101)
    record = struct.pack(order + "IIII", seconds, nanos, len(body), len(body))
    path.write_bytes(header + record + body)


class TestNanosecondMagic:
    def test_nanosecond_timestamps_normalized(self, tmp_path):
        path = tmp_path / "nano.pcap"
        _write_nano_pcap(path, "!", 7, 123_456_789, _packets()[0].to_bytes())
        loaded = read_pcap(path)
        assert len(loaded) == 1
        assert loaded[0].timestamp == pytest.approx(7.123456789)

    def test_byte_swapped_nanosecond_magic(self, tmp_path):
        path = tmp_path / "nanoswap.pcap"
        _write_nano_pcap(path, "<", 3, 500_000_000, _packets()[0].to_bytes())
        loaded = read_pcap(path)
        assert loaded[0].timestamp == pytest.approx(3.5)

    def test_pcapng_still_rejected(self, tmp_path):
        path = tmp_path / "ng.pcap"
        path.write_bytes(b"\x0a\x0d\x0d\x0a" + b"\x00" * 20)
        with pytest.raises(ValueError, match="pcapng is not supported"):
            read_pcap(path)


class TestEthernetFrames:
    def test_non_ipv4_frames_skipped_and_counted(self, tmp_path):
        path = tmp_path / "mixed.pcap"
        header = struct.pack(
            "!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET
        )
        ipv4 = EthernetHeader().to_bytes() + _packets()[0].to_bytes()
        arp = EthernetHeader(ethertype=0x0806).to_bytes() + b"\x00" * 28
        parts = [header]
        for body in (arp, ipv4, arp):
            parts.append(struct.pack("!IIII", 1, 0, len(body), len(body)))
            parts.append(body)
        path.write_bytes(b"".join(parts))
        stats = PcapDecodeStats()
        loaded = list(iter_pcap(path, stats=stats))
        assert len(loaded) == 1
        assert loaded[0].payload == _packets()[0].payload
        assert stats.records == 3
        assert stats.skipped_frames == 2
        assert stats.packets == 1


class TestSnaplenTruncation:
    def test_truncated_records_counted_and_skipped(self, tmp_path):
        path = tmp_path / "snap.pcap"
        header = struct.pack(
            "!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 64, LINKTYPE_RAW
        )
        whole = _packets()[0].to_bytes()
        stub = _packets()[1].to_bytes()[:10]  # captured 10 of a longer packet
        parts = [header]
        parts.append(struct.pack("!IIII", 1, 0, len(whole), len(whole)))
        parts.append(whole)
        parts.append(struct.pack("!IIII", 2, 0, len(stub), len(stub) + 30))
        parts.append(stub)
        path.write_bytes(b"".join(parts))
        stats = PcapDecodeStats()
        loaded = list(iter_pcap(path, stats=stats))
        assert [p.payload for p in loaded] == [_packets()[0].payload]
        assert stats.truncated_records == 1
        assert stats.records == 2
        assert stats.packets == 1


class TestStreamingWrite:
    def test_write_accepts_generator_and_returns_count(self, tmp_path):
        path = tmp_path / "gen.pcap"
        written = write_pcap(path, (p for p in _packets()))
        assert written == 2
        assert len(read_pcap(path)) == 2

    @pytest.mark.parametrize("timestamp", [-0.5, 2**32 + 0.1])
    def test_timestamp_out_of_range_names_the_record(self, tmp_path, timestamp):
        bad = _packets()[1]
        bad.timestamp = timestamp
        self._assert_rejected_whole(tmp_path, bad, "timestamp .* outside the pcap range")

    def test_oversize_packet_names_the_record(self, tmp_path):
        template = _packets()[1]
        bad = Packet(template.ip, template.transport, bytes(70_000), 2.0)
        self._assert_rejected_whole(tmp_path, bad, "IPv4 packet of 70028 bytes exceeds")

    def _assert_rejected_whole(self, tmp_path, bad, message):
        """A ``ValueError`` for record 1, and not one byte of it written."""
        path = tmp_path / "bad.pcap"
        good = tmp_path / "good.pcap"
        with pytest.raises(ValueError, match=f"^record 1: {message}"):
            write_pcap(path, [_packets()[0], bad, _packets()[0]])
        write_pcap(good, [_packets()[0]])
        assert path.read_bytes() == good.read_bytes()

    def test_iter_to_write_round_trip(self, tmp_path):
        src = tmp_path / "src.pcap"
        dst = tmp_path / "dst.pcap"
        write_pcap(src, _packets())
        # iter_pcap | write_pcap: re-encode without materializing.
        assert write_pcap(dst, iter_pcap(src)) == 2
        assert [p.payload for p in read_pcap(dst)] == [
            p.payload for p in _packets()
        ]
