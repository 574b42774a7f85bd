"""Tests for packet headers: wire-format round trips, checksums, pickles."""

import pickle

import pytest

from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_RST,
    FLAG_SYN,
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
    internet_checksum,
)


class TestChecksum:
    def test_known_rfc1071_example(self):
        # Classic example: 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 -> 0x220d.
        data = bytes.fromhex("0001f203f4f5f6f7")
        assert internet_checksum(data) == 0x220D

    def test_odd_length_padded(self):
        assert internet_checksum(b"\xff") == internet_checksum(b"\xff\x00")

    def test_header_with_checksum_sums_to_zero(self):
        header = Ipv4Header(src="1.2.3.4", dst="5.6.7.8", protocol=6,
                            total_length=40).to_bytes()
        assert internet_checksum(header) == 0


class TestIpv4Header:
    def test_round_trip(self):
        original = Ipv4Header(
            src="192.168.1.10", dst="10.0.0.1", protocol=17,
            total_length=128, identification=42, ttl=63,
        )
        parsed = Ipv4Header.from_bytes(original.to_bytes())
        assert parsed == original

    def test_invalid_address_rejected(self):
        with pytest.raises(ValueError, match="invalid IPv4"):
            Ipv4Header(src="1.2.3", dst="5.6.7.8", protocol=6).to_bytes()
        with pytest.raises(ValueError, match="invalid IPv4"):
            Ipv4Header(src="1.2.3.999", dst="5.6.7.8", protocol=6).to_bytes()

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="20 bytes"):
            Ipv4Header.from_bytes(b"\x45" * 10)

    def test_non_ipv4_rejected(self):
        data = bytearray(Ipv4Header(src="1.1.1.1", dst="2.2.2.2",
                                    protocol=6).to_bytes())
        data[0] = (6 << 4) | 5  # version 6
        with pytest.raises(ValueError, match="not an IPv4"):
            Ipv4Header.from_bytes(bytes(data))


class TestTcpHeader:
    def test_round_trip(self):
        original = TcpHeader(src_port=443, dst_port=51515, seq=123456,
                             ack=654321, flags=FLAG_ACK | FLAG_FIN, window=1024)
        parsed = TcpHeader.from_bytes(original.to_bytes())
        assert parsed == original

    def test_flag_properties(self):
        assert TcpHeader(1, 2, flags=FLAG_FIN).fin
        assert TcpHeader(1, 2, flags=FLAG_RST).rst
        assert TcpHeader(1, 2, flags=FLAG_SYN).syn
        assert not TcpHeader(1, 2, flags=FLAG_ACK).fin

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="20 bytes"):
            TcpHeader.from_bytes(b"\x00" * 8)


class TestUdpHeader:
    def test_round_trip(self):
        original = UdpHeader(src_port=53, dst_port=33333, length=100)
        assert UdpHeader.from_bytes(original.to_bytes()) == original

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="8 bytes"):
            UdpHeader.from_bytes(b"\x00" * 4)


class TestPacket:
    def test_tcp_round_trip(self):
        packet = Packet(
            ip=Ipv4Header(src="10.1.2.3", dst="10.4.5.6", protocol=PROTO_TCP),
            transport=TcpHeader(src_port=80, dst_port=40000, seq=7),
            payload=b"hello world payload",
            timestamp=12.5,
        )
        parsed = Packet.from_bytes(packet.to_bytes(), timestamp=12.5)
        assert parsed.five_tuple == packet.five_tuple
        assert parsed.payload == packet.payload
        assert parsed.timestamp == 12.5
        assert parsed.is_tcp

    def test_udp_round_trip_fixes_length(self):
        packet = Packet(
            ip=Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=PROTO_UDP),
            transport=UdpHeader(src_port=1000, dst_port=2000),
            payload=b"x" * 50,
        )
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.payload == packet.payload
        assert parsed.transport.length == UdpHeader.HEADER_LEN + 50

    def test_total_length_set_on_serialize(self):
        packet = Packet(
            ip=Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=PROTO_TCP),
            transport=TcpHeader(src_port=1, dst_port=2),
            payload=b"abc",
        )
        parsed = Ipv4Header.from_bytes(packet.to_bytes())
        assert parsed.total_length == 20 + 20 + 3

    def test_protocol_transport_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Packet(
                ip=Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=PROTO_UDP),
                transport=TcpHeader(src_port=1, dst_port=2),
            )

    def test_unsupported_protocol_rejected(self):
        raw = bytearray(
            Packet(
                ip=Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=PROTO_TCP),
                transport=TcpHeader(src_port=1, dst_port=2),
            ).to_bytes()
        )
        raw[9] = 47  # GRE
        with pytest.raises(ValueError, match="unsupported IP protocol"):
            Packet.from_bytes(bytes(raw))

    def test_five_tuple_contents(self):
        packet = Packet(
            ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP),
            transport=UdpHeader(src_port=5353, dst_port=53),
        )
        assert packet.five_tuple == ("10.0.0.1", 5353, "10.0.0.2", 53, PROTO_UDP)


class TestTcpOptions:
    def test_options_round_trip(self):
        # MSS option: kind 2, len 4, value 1460.
        mss = b"\x02\x04\x05\xb4"
        header = TcpHeader(src_port=80, dst_port=5000, options=mss)
        parsed = TcpHeader.from_bytes(header.to_bytes())
        assert parsed.options == mss
        assert parsed.data_offset_bytes() == 24

    def test_options_padded_to_word_boundary(self):
        header = TcpHeader(src_port=1, dst_port=2, options=b"\x01\x01\x01")  # NOPs
        raw = header.to_bytes()
        assert len(raw) == 24
        parsed = TcpHeader.from_bytes(raw)
        assert parsed.options == b"\x01\x01\x01\x00"

    def test_packet_payload_boundary_respects_offset(self):
        packet = Packet(
            ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_TCP),
            transport=TcpHeader(src_port=1, dst_port=2,
                                options=b"\x02\x04\x05\xb4"),
            payload=b"payload after options",
        )
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.payload == b"payload after options"

    def test_oversized_options_rejected(self):
        header = TcpHeader(src_port=1, dst_port=2, options=b"\x00" * 44)
        with pytest.raises(ValueError, match="options"):
            header.to_bytes()

    def test_bad_data_offset_rejected(self):
        raw = bytearray(TcpHeader(src_port=1, dst_port=2).to_bytes())
        raw[12] = 2 << 4  # offset 8 bytes < 20
        with pytest.raises(ValueError, match="data offset"):
            TcpHeader.from_bytes(bytes(raw))

    def test_truncated_options_rejected(self):
        raw = TcpHeader(src_port=1, dst_port=2,
                        options=b"\x02\x04\x05\xb4").to_bytes()
        with pytest.raises(ValueError, match="claims"):
            TcpHeader.from_bytes(raw[:22])


class TestIpv4Options:
    """Parsing must honour IHL > 5 (real captures carry IP options)."""

    def _packet_with_ip_options(self):
        base = Packet(
            ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP),
            transport=UdpHeader(src_port=1, dst_port=2),
            payload=b"after options",
        ).to_bytes()
        # Inject 4 bytes of NOP options after the standard 20-byte header.
        raw = bytearray(base)
        raw[0] = (4 << 4) | 6  # IHL = 6 words = 24 bytes
        total = len(base) + 4
        raw[2:4] = total.to_bytes(2, "big")
        with_options = bytes(raw[:20]) + b"\x01\x01\x01\x00" + bytes(raw[20:])
        return with_options

    def test_options_skipped_on_parse(self):
        parsed = Packet.from_bytes(self._packet_with_ip_options())
        assert parsed.payload == b"after options"
        assert parsed.ip.ihl_bytes == 24

    def test_bad_ihl_rejected(self):
        raw = bytearray(
            Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=6,
                       total_length=40).to_bytes()
        )
        raw[0] = (4 << 4) | 3  # IHL below minimum
        with pytest.raises(ValueError, match="IHL"):
            Ipv4Header.from_bytes(bytes(raw))

    def test_truncated_options_rejected(self):
        raw = bytearray(
            Ipv4Header(src="1.1.1.1", dst="2.2.2.2", protocol=6,
                       total_length=40).to_bytes()
        )
        raw[0] = (4 << 4) | 8  # claims 32 bytes, only 20 present
        with pytest.raises(ValueError, match="claims"):
            Ipv4Header.from_bytes(bytes(raw))


#: ``pickle.dumps(header, protocol=4)`` of the headers below, as commit
#: ``95fbbf4`` (each header with an instance ``__dict__``) wrote them.
PARENT_COMMIT_PICKLES = {
    "ipv4": (
        b"\x80\x04\x95\x94\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.net.packet\x94\x8c"
        b"\nIpv4Header\x94\x93\x94)\x81\x94}\x94(\x8c\x03src\x94\x8c\x0810.0.0.1\x94"
        b"\x8c\x03dst\x94\x8c\x0810.0.0.2\x94\x8c\x08protocol\x94K\x11\x8c\x0ctotal_le"
        b"ngth\x94K<\x8c\x0eidentification\x94K\x07\x8c\x03ttl\x94K?\x8c\tihl_bytes"
        b"\x94K\x14ub."
    ),
    "tcp": (
        b"\x80\x04\x95|\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.net.packet\x94\x8c\tT"
        b"cpHeader\x94\x93\x94)\x81\x94}\x94(\x8c\x08src_port\x94KP\x8c\x08dst_port"
        b"\x94M\x88\x13\x8c\x03seq\x94K\x01\x8c\x03ack\x94K\x02\x8c\x05flags\x94K\x18"
        b"\x8c\x06window\x94M\x00\x04\x8c\x07options\x94C\x04\x01\x01\x08\n\x94ub."
    ),
    "udp": (
        b"\x80\x04\x95P\x00\x00\x00\x00\x00\x00\x00\x8c\x10repro.net.packet\x94\x8c\tU"
        b"dpHeader\x94\x93\x94)\x81\x94}\x94(\x8c\x08src_port\x94M\xa0\x0f\x8c\x08dst_"
        b"port\x94K5\x8c\x06length\x94K\x0cub."
    ),
}

PINNED_HEADERS = {
    "ipv4": Ipv4Header("10.0.0.1", "10.0.0.2", PROTO_UDP, 60, 7, 63),
    "tcp": TcpHeader(80, 5000, 1, 2, 0x18, 1024, b"\x01\x01\x08\x0a"),
    "udp": UdpHeader(4000, 53, 12),
}


class TestPickledForm:
    """Slotted headers pickle as the field dict their unslotted form did."""

    @pytest.mark.parametrize("name", sorted(PINNED_HEADERS))
    def test_pickle_written_before_slots_loads_and_is_rewritten(self, name):
        header = PINNED_HEADERS[name]
        pinned = PARENT_COMMIT_PICKLES[name]
        assert pickle.loads(pinned) == header
        assert pickle.dumps(header, protocol=4) == pinned
