"""Differential and fuzz tests for ``decode_packet`` / ``Packet.from_bytes``.

The decoder reads the fields the packet path needs in one unpack and
leaves the header objects unparsed. The reference here is the composed
decode it replaced — ``Ipv4Header.from_bytes`` then ``TcpHeader`` /
``UdpHeader.from_bytes`` on the same bytes — which must agree with it
field for field, and error message for error message, on any input.
Decoding a record in place, at an offset inside a larger buffer, must
give what decoding a copy of the record gives, whatever surrounds it.
"""

import hashlib
import pickle
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.flow import FlowKey
from repro.net.hashing import packet_flow_hash
from repro.net.packet import (
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
    decode_packet,
    pack_five_tuple,
)


def reference_decode(data: bytes):
    """Header objects first, payload sliced by what they say."""
    view = memoryview(data)
    ip = Ipv4Header.from_bytes(view)
    body = view[ip.ihl_bytes : ip.total_length or len(view)]
    if ip.protocol == PROTO_TCP:
        transport = TcpHeader.from_bytes(body)
        payload = body[transport.data_offset_bytes() :]
    elif ip.protocol == PROTO_UDP:
        transport = UdpHeader.from_bytes(body)
        payload = body[UdpHeader.HEADER_LEN :]
    else:
        raise ValueError(f"unsupported IP protocol {ip.protocol}")
    return ip, transport, bytes(payload)


def assert_decodes_like_reference(data: bytes) -> None:
    """Same fields or the same ``ValueError``; anything else propagates."""
    try:
        ip, transport, payload = reference_decode(data)
    except ValueError as expected:
        try:
            Packet.from_bytes(data)
        except ValueError as raised:
            assert str(raised) == str(expected)
        else:
            raise AssertionError(f"decoded what the reference rejects: {expected}")
        return
    packet = Packet.from_bytes(data, timestamp=3.5)
    # What the engine reads, checked before any header object exists.
    assert packet.flow_tuple == FlowKey(
        ip.src, transport.src_port, ip.dst, transport.dst_port, ip.protocol
    ).to_bytes()
    is_tcp = ip.protocol == PROTO_TCP
    assert packet.is_tcp is is_tcp
    assert packet.is_close is (is_tcp and (transport.fin or transport.rst))
    assert packet.five_tuple == (
        ip.src, transport.src_port, ip.dst, transport.dst_port, ip.protocol
    )
    assert bytes(packet.payload) == payload
    assert packet.timestamp == 3.5
    assert_identity_holds(packet)
    # ... and what is parsed on demand.
    assert packet.ip == ip
    assert packet.transport == transport
    assert packet.is_close is (is_tcp and (transport.fin or transport.rst))


def assert_identity_holds(packet: Packet) -> None:
    """The packed tuple, the ``FlowKey`` and the SHA-1 flow ID all agree."""
    assert len(packet.flow_tuple) == 13
    assert packet.flow_tuple == FlowKey.of_packet(packet).to_bytes()
    assert hashlib.sha1(packet.flow_tuple).digest() == packet_flow_hash(packet)


addresses = st.binary(min_size=4, max_size=4)
ports = st.integers(0, 65535)


@st.composite
def wire_packets(draw) -> bytes:
    """IPv4 TCP/UDP bytes with options and every kind of ``total_length``."""
    ihl = draw(st.integers(5, 15))
    ip_options = draw(st.binary(min_size=ihl * 4 - 20, max_size=ihl * 4 - 20))
    payload = draw(st.binary(max_size=48))
    src_port, dst_port = draw(ports), draw(ports)
    if draw(st.booleans()):
        protocol = PROTO_TCP
        offset = draw(st.integers(5, 15))
        transport = struct.pack(
            "!HHIIBBHHH", src_port, dst_port, draw(st.integers(0, 2**32 - 1)), 0,
            offset << 4, draw(st.integers(0, 255)), 65535, 0, 0,
        ) + draw(st.binary(min_size=offset * 4 - 20, max_size=offset * 4 - 20))
    else:
        protocol = PROTO_UDP
        transport = struct.pack("!HHHH", src_port, dst_port, 8 + len(payload), 0)
    size = ihl * 4 + len(transport) + len(payload)
    total_length, padding = draw(
        st.sampled_from(
            [
                (size, 0),  # exact
                (0, 0),  # unset (segmentation offload): the record ends it
                (draw(st.integers(1, ihl * 4 - 1)), 0),  # inside the IP header
                (draw(st.integers(ihl * 4, size)), 0),  # cuts the packet short
                (size, draw(st.integers(1, 18))),  # Ethernet padding follows
                (size + draw(st.integers(1, 64)), 0),  # beyond the record
            ]
        )
    )
    header = struct.pack(
        "!BBHHHBBH4s4s", (4 << 4) | ihl, 0, total_length, draw(ports), 0, 64,
        protocol, 0, draw(addresses), draw(addresses),
    )
    return header + ip_options + transport + payload + bytes(padding)


@st.composite
def built_packets(draw) -> Packet:
    """``Packet(ip, transport, payload, timestamp)``, as a generator makes them."""
    src = ".".join(map(str, draw(addresses)))
    dst = ".".join(map(str, draw(addresses)))
    payload = draw(st.binary(max_size=48))
    if draw(st.booleans()):
        options = draw(st.binary(max_size=40))
        transport = TcpHeader(
            draw(ports), draw(ports), seq=draw(st.integers(0, 2**32 - 1)),
            flags=draw(st.integers(0, 255)),
            options=options + bytes(-len(options) % 4),
        )
        ip = Ipv4Header(src, dst, PROTO_TCP)
    else:
        transport = UdpHeader(draw(ports), draw(ports), 8 + len(payload))
        ip = Ipv4Header(src, dst, PROTO_UDP)
    return Packet(ip, transport, payload, draw(st.floats(0, 1e6)))


class TestAgainstHeaderParsers:
    @given(data=wire_packets())
    def test_well_formed_packets(self, data):
        assert_decodes_like_reference(data)

    @given(data=wire_packets(), cut=st.integers(0, 120))
    def test_every_truncation(self, data, cut):
        assert_decodes_like_reference(data[:cut])

    @given(data=st.binary(max_size=96))
    def test_arbitrary_bytes(self, data):
        assert_decodes_like_reference(data)

    @given(
        data=wire_packets(),
        flips=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 7)), max_size=4),
    )
    def test_bit_flipped_headers(self, data, flips):
        damaged = bytearray(data)
        for index, bit in flips:
            if index < len(damaged):
                damaged[index] ^= 1 << bit
        assert_decodes_like_reference(bytes(damaged))

    @given(data=wire_packets())
    def test_views_and_bytes_decode_alike(self, data):
        framed = b"\xff" * 14 + data
        try:
            expected = Packet.from_bytes(data)
        except ValueError:
            return
        assert Packet.from_bytes(memoryview(framed)[14:]) == expected
        assert Packet.from_bytes(bytearray(data)) == expected


def decoded_fields(decode):
    """Everything a decoded packet answers, or the ``ValueError`` message."""
    try:
        packet = decode()
    except ValueError as exc:
        return str(exc)
    return (
        packet.flow_tuple, packet.is_close, type(packet.payload),
        bytes(packet.payload), packet.timestamp, packet.ip, packet.transport,
    )


def flipped(data: bytes) -> bytes:
    return bytes(byte ^ 0xFF for byte in data)


class TestDecodeInPlace:
    """``decode_packet(buf, start, end, ts)`` reads ``buf[start:end]`` only."""

    @given(
        record=st.one_of(
            wire_packets(),
            wire_packets().flatmap(
                lambda data: st.integers(0, len(data)).map(lambda cut: data[:cut])
            ),
            st.binary(max_size=96),
        ),
        prefix=st.binary(max_size=40),
        suffix=st.binary(max_size=40),
    )
    def test_offset_decode_equals_decoding_a_copy(self, record, prefix, suffix):
        start, end = len(prefix), len(prefix) + len(record)
        expected = decoded_fields(lambda: Packet.from_bytes(bytes(record), 2.25))
        # Every byte outside the record differs between the two buffers,
        # so a read before ``start`` or past ``end`` changes the result.
        for buf in (prefix + record + suffix, flipped(prefix) + record + flipped(suffix)):
            assert decoded_fields(lambda: decode_packet(buf, start, end, 2.25)) == expected

    @given(record=wire_packets(), prefix=st.binary(max_size=40), suffix=st.binary(max_size=40))
    def test_bytes_give_owned_slices_and_views_give_views(self, record, prefix, suffix):
        buf = prefix + record + suffix
        start, end = len(prefix), len(prefix) + len(record)
        try:
            owned = decode_packet(buf, start, end)
        except ValueError:
            return
        viewed = decode_packet(memoryview(buf), start, end)
        assert type(owned.payload) is bytes
        assert type(viewed.payload) is memoryview
        assert viewed == owned


class TestBothConstructions:
    @given(packet=built_packets())
    def test_built_packet_identity(self, packet):
        assert_identity_holds(packet)
        transport = packet.transport
        assert packet.is_close is (packet.is_tcp and (transport.fin or transport.rst))

    @given(packet=built_packets())
    def test_built_packet_survives_the_wire(self, packet):
        decoded = Packet.from_bytes(packet.to_bytes(), packet.timestamp)
        assert decoded.flow_tuple == packet.flow_tuple
        assert decoded.is_close is packet.is_close
        assert decoded.is_tcp is packet.is_tcp
        assert decoded.five_tuple == packet.five_tuple
        assert decoded.payload == packet.payload
        assert decoded.transport == packet.transport
        # The wire form is a fixed point: decode -> encode -> decode.
        assert Packet.from_bytes(decoded.to_bytes(), packet.timestamp) == decoded

    @given(packet=built_packets())
    def test_pickle_round_trip(self, packet):
        for original in (packet, Packet.from_bytes(packet.to_bytes(), 7.25)):
            loaded = pickle.loads(pickle.dumps(original, pickle.HIGHEST_PROTOCOL))
            assert loaded == original
            assert loaded.flow_tuple == original.flow_tuple
            assert loaded.is_close is original.is_close
            assert isinstance(loaded.payload, bytes)

    def test_dataclass_era_pickle_still_loads(self):
        """A pool cached by an older checkout holds ``__dict__``-state packets."""
        loaded = pickle.loads(DATACLASS_ERA_PICKLE)
        assert loaded == Packet(
            Ipv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP),
            TcpHeader(80, 5000, flags=0x11),
            b"payload",
            1.5,
        )
        assert loaded.is_close
        assert_identity_holds(loaded)


class TestConstructedPacketKey:
    """``flow_tuple`` / ``is_close`` of a packet built from header objects.

    Both are derived at read — the headers are mutable dataclasses and
    nothing packed is stored on the packet — with the errors
    ``pack_five_tuple`` raises.
    """

    def build(self, **tcp) -> Packet:
        return Packet(
            Ipv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP), TcpHeader(80, 5000, **tcp)
        )

    def test_reads_follow_header_mutation(self):
        packet = self.build()
        assert packet.is_close is False
        before = packet.flow_tuple
        packet.transport.flags |= 0x04  # RST
        packet.transport.src_port = 81
        packet.ip.dst = "10.0.0.3"
        assert packet.is_close is True
        assert packet.flow_tuple == FlowKey.of_packet(packet).to_bytes() != before
        assert packet._flow_tuple is None and packet._is_close is None

    def test_bad_address_or_port_raises_value_error(self):
        for spoil in (
            lambda p: setattr(p.ip, "src", "10.0.0.300"),
            lambda p: setattr(p.ip, "dst", "not an address"),
            lambda p: setattr(p.transport, "dst_port", 70000),
            lambda p: setattr(p.transport, "src_port", -1),
        ):
            packet = self.build()
            spoil(packet)
            with pytest.raises(ValueError, match="invalid address, port or protocol"):
                packet.flow_tuple
            with pytest.raises(ValueError, match="invalid address, port or protocol"):
                pack_five_tuple(*packet.five_tuple)


#: ``pickle.dumps`` of the packet above, written by the commit before
#: ``Packet`` became a ``__slots__`` class (protocol 5).
DATACLASS_ERA_PICKLE = (
    b"\x80\x05\x95I\x01\x00\x00\x00\x00\x00\x00\x8c\x10repro.net.packet\x94\x8c\x06"
    b"Packet\x94\x93\x94)\x81\x94}\x94(\x8c\x02ip\x94h\x00\x8c\nIpv4Header\x94\x93\x94)"
    b"\x81\x94}\x94(\x8c\x03src\x94\x8c\x0810.0.0.1\x94\x8c\x03dst\x94\x8c\x0810.0.0.2"
    b"\x94\x8c\x08protocol\x94K\x06\x8c\x0ctotal_length\x94K\x00\x8c\x0eidentification"
    b"\x94K\x00\x8c\x03ttl\x94K@\x8c\tihl_bytes\x94K\x14ub\x8c\ttransport\x94h\x00\x8c\t"
    b"TcpHeader\x94\x93\x94)\x81\x94}\x94(\x8c\x08src_port\x94KP\x8c\x08dst_port\x94M"
    b"\x88\x13\x8c\x03seq\x94K\x00\x8c\x03ack\x94K\x00\x8c\x05flags\x94K\x11\x8c\x06window"
    b"\x94M\xff\xff\x8c\x07options\x94C\x00\x94ub\x8c\x07payload\x94C\x07payload\x94\x8c\t"
    b"timestamp\x94G?\xf8\x00\x00\x00\x00\x00\x00ub."
)
