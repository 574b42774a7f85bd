"""Fuzz: the header parsers reject any bytes with ``ValueError`` alone.

Every parser a capture's bytes reach — the IPv4 / TCP / UDP header
classes, the one packet decoder on any span of a buffer, and the
application-header sniff / strip / skip that windows a payload — either
returns or raises ``ValueError``. A ``struct.error`` or ``IndexError``
escaping one of them would bypass every caller that handles a malformed
record (the pcap reader's counted skip, ``process_source``'s
``on_error``), so anything other than ``ValueError`` fails here.

Inputs mix arbitrary bytes with damaged real headers (a valid IPv4
TCP/UDP packet, bit-flipped and cut), each as ``bytes``, ``bytearray``
and ``memoryview``.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.headers import detect_app_protocol, skip_threshold, strip_app_header
from repro.net.appproto import PROTOCOL_SIGNATURES
from repro.net.packet import Ipv4Header, Packet, TcpHeader, UdpHeader, decode_packet
from tests.net.test_packet_decode import wire_packets


@st.composite
def damaged_packets(draw) -> bytes:
    """A well-formed packet with a few bits flipped, maybe cut short."""
    data = bytearray(draw(wire_packets()))
    for _ in range(draw(st.integers(0, 4))):
        index = draw(st.integers(0, len(data) - 1))
        data[index] ^= 1 << draw(st.integers(0, 7))
    return bytes(data[: draw(st.integers(0, len(data)))])


@st.composite
def app_payloads(draw) -> bytes:
    """A known protocol's prefix (or none) before arbitrary bytes."""
    prefixes = [p for ps in PROTOCOL_SIGNATURES.values() for p in ps]
    head = draw(st.sampled_from([b""] + prefixes))
    body = draw(st.binary(max_size=64))
    if draw(st.booleans()):
        body += b"\r\n\r\n" + draw(st.binary(max_size=16))
    return head + body


raw = st.one_of(st.binary(max_size=96), damaged_packets())
buffers = st.tuples(raw, st.sampled_from([bytes, bytearray, memoryview])).map(
    lambda pair: pair[1](pair[0])
)


def only_value_error(parse, *args):
    """``parse(*args)``'s result, or None when it raised ``ValueError``."""
    try:
        return parse(*args)
    except ValueError:
        return None


@given(data=buffers)
def test_header_classes(data):
    for header in (Ipv4Header, TcpHeader, UdpHeader):
        parsed = only_value_error(header.from_bytes, data)
        assert parsed is None or isinstance(parsed, header)


@given(data=buffers)
def test_packet_from_bytes(data):
    packet = only_value_error(Packet.from_bytes, data, 1.5)
    if packet is not None:
        assert len(packet.flow_tuple) == 13
        assert len(packet.payload) <= len(data)


@given(data=buffers, start=st.integers(0, 200), end=st.integers(0, 200))
def test_decode_packet_on_any_span(data, start, end):
    """``start`` / ``end`` anywhere in the buffer, in either order."""
    start, end = min(start, len(data)), min(end, len(data))
    packet = only_value_error(decode_packet, data, start, end, 2.0)
    if packet is not None:
        assert len(packet.flow_tuple) == 13
        assert len(packet.payload) <= end - start
        # The parse on demand reads only the bytes the decode kept.
        assert packet.ip is not None and packet.transport is not None


@given(
    data=st.one_of(buffers, app_payloads()),
    kind=st.sampled_from([bytes, bytearray, memoryview]),
    threshold=st.integers(-4, 128),
)
def test_app_header_sniff_strip_and_skip(data, kind, threshold):
    data = kind(bytes(data))
    protocol = only_value_error(detect_app_protocol, data)
    assert protocol is None or protocol in PROTOCOL_SIGNATURES
    stripped = only_value_error(strip_app_header, data)
    assert stripped is not None
    found, rest = stripped
    assert found == protocol
    assert bytes(data).endswith(bytes(rest))
    skipped = only_value_error(skip_threshold, data, threshold)
    if threshold < 0:
        assert skipped is None
    else:
        assert bytes(skipped) == bytes(data)[threshold:]
