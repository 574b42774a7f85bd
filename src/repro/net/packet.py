"""IPv4 / TCP / UDP packet model with wire-format serialization.

Implements the header fields Iustitia consumes — the 5-tuple, TCP flags
(FIN/RST drive CDB purging), lengths — plus enough of the rest (checksums,
TTL, sequence numbers) that serialized packets survive a round-trip through
the pcap reader/writer and external tools would parse them.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

__all__ = [
    "Ipv4Header",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "TcpHeader",
    "UdpHeader",
    "decode_packet",
    "internet_checksum",
    "pack_five_tuple",
]

PROTO_TCP = 6
PROTO_UDP = 17

# TCP flag bits.
FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10
#: Either bit ends the flow (FIN: clean close, RST: abort).
_CLOSE_FLAGS = FLAG_FIN | FLAG_RST

#: The IPv4 total-length field is 16 bits wide.
_MAX_TOTAL_LENGTH = 0xFFFF


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over ``data`` (odd lengths padded)."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack("!H", data):
        total += word
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _ip_to_int(address: str) -> int:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


def _int_to_ip(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass
class Ipv4Header:
    """IPv4 header.

    Serialization always emits the 20-byte optionless form; parsing
    accepts headers with options (IHL > 5) and records the real header
    length in ``ihl_bytes`` so callers slice the payload correctly.
    """

    src: str
    dst: str
    protocol: int
    total_length: int = 0
    identification: int = 0
    ttl: int = 64
    ihl_bytes: int = 20

    HEADER_LEN = 20

    def to_bytes(self) -> bytes:
        """Serialize with a correct header checksum."""
        version_ihl = (4 << 4) | 5
        head = struct.pack(
            "!BBHHHBBH4s4s",
            version_ihl,
            0,
            self.total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            _ip_to_int(self.src).to_bytes(4, "big"),
            _ip_to_int(self.dst).to_bytes(4, "big"),
        )
        checksum = internet_checksum(head)
        return head[:10] + struct.pack("!H", checksum) + head[12:]

    @classmethod
    def from_bytes(cls, data: bytes) -> "Ipv4Header":
        """Parse the first 20 bytes of ``data`` as an IPv4 header."""
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"IPv4 header needs 20 bytes, got {len(data)}")
        (
            version_ihl,
            _tos,
            total_length,
            identification,
            _frag,
            ttl,
            protocol,
            _checksum,
            src_raw,
            dst_raw,
        ) = struct.unpack("!BBHHHBBH4s4s", data[: cls.HEADER_LEN])
        if version_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 packet (version {version_ihl >> 4})")
        ihl_bytes = (version_ihl & 0x0F) * 4
        if ihl_bytes < cls.HEADER_LEN:
            raise ValueError(f"invalid IPv4 IHL {ihl_bytes}")
        if len(data) < ihl_bytes:
            raise ValueError(
                f"IPv4 header claims {ihl_bytes} bytes, got {len(data)}"
            )
        return cls(
            src=_int_to_ip(int.from_bytes(src_raw, "big")),
            dst=_int_to_ip(int.from_bytes(dst_raw, "big")),
            protocol=protocol,
            total_length=total_length,
            identification=identification,
            ttl=ttl,
            ihl_bytes=ihl_bytes,
        )


@dataclass
class TcpHeader:
    """TCP header.

    Options are preserved as raw bytes: real captures carry MSS/SACK/
    timestamp options, and the payload boundary depends on the data
    offset. Serialization pads options to a 4-byte multiple.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = FLAG_ACK
    window: int = 65535
    options: bytes = b""

    HEADER_LEN = 20
    MAX_OPTIONS = 40

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    def to_bytes(self) -> bytes:
        """Serialize (checksum left zero; Iustitia never verifies it)."""
        if len(self.options) > self.MAX_OPTIONS:
            raise ValueError(
                f"TCP options limited to {self.MAX_OPTIONS} bytes, "
                f"got {len(self.options)}"
            )
        padding = (-len(self.options)) % 4
        options = self.options + b"\x00" * padding
        data_offset = ((self.HEADER_LEN + len(options)) // 4) << 4
        return struct.pack(
            "!HHIIBBHHH",
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            data_offset,
            self.flags,
            self.window,
            0,
            0,
        ) + options

    @classmethod
    def from_bytes(cls, data: bytes) -> "TcpHeader":
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"TCP header needs 20 bytes, got {len(data)}")
        src_port, dst_port, seq, ack, offset_byte, flags, window, _cs, _urg = (
            struct.unpack("!HHIIBBHHH", data[: cls.HEADER_LEN])
        )
        offset_bytes = (offset_byte >> 4) * 4
        if offset_bytes < cls.HEADER_LEN:
            raise ValueError(f"invalid TCP data offset {offset_bytes}")
        if len(data) < offset_bytes:
            raise ValueError(
                f"TCP header claims {offset_bytes} bytes, got {len(data)}"
            )
        return cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            options=bytes(data[cls.HEADER_LEN : offset_bytes]),
        )

    def data_offset_bytes(self) -> int:
        """Header length in bytes, options (padded) included."""
        return self.HEADER_LEN + len(self.options) + (-len(self.options)) % 4


@dataclass
class UdpHeader:
    """UDP header."""

    src_port: int
    dst_port: int
    length: int = 8

    HEADER_LEN = 8

    def to_bytes(self) -> bytes:
        return struct.pack("!HHHH", self.src_port, self.dst_port, self.length, 0)

    @classmethod
    def from_bytes(cls, data: bytes) -> "UdpHeader":
        if len(data) < cls.HEADER_LEN:
            raise ValueError(f"UDP header needs 8 bytes, got {len(data)}")
        src_port, dst_port, length, _cs = struct.unpack("!HHHH", data[: cls.HEADER_LEN])
        return cls(src_port=src_port, dst_port=dst_port, length=length)


#: Fields one decode reads, one struct per IPv4 header length (IHL 5-15):
#: total length, protocol and addresses, then — past any IP options — the
#: ports and, meaningful for TCP only, the data-offset and flags bytes.
_WIRE_FIELDS = {
    ihl_bytes: struct.Struct(f"!2xH5xB2x4s4s{ihl_bytes - 20}xHH8xBB")
    for ihl_bytes in range(20, 64, 4)
}

#: The common case, read before any field-by-field check: an optionless
#: header (version 4, IHL 5) on a record that holds all 34 bytes.
_UNPACK_IHL5 = _WIRE_FIELDS[20].unpack_from
_IHL5_SIZE = _WIRE_FIELDS[20].size

#: The packed 5-tuple: ``src4 sport2 dst4 dport2 proto1``.
_FIVE_TUPLE = struct.Struct("!4sH4sHB")
_PACK_FIVE_TUPLE = _FIVE_TUPLE.pack


def _bad_five_tuple(*five_tuple) -> ValueError:
    return ValueError(
        f"invalid address, port or protocol in 5-tuple {five_tuple}"
    )


def pack_five_tuple(
    src: str, src_port: int, dst: str, dst_port: int, protocol: int
) -> bytes:
    """The canonical 13-byte encoding of a 5-tuple (the engine's flow key)."""
    try:
        return _FIVE_TUPLE.pack(
            socket.inet_aton(src), src_port, socket.inet_aton(dst), dst_port,
            protocol,
        )
    except (OSError, struct.error):
        raise _bad_five_tuple(src, src_port, dst, dst_port, protocol) from None


class Packet:
    """A full IP packet: IPv4 header, TCP or UDP header, payload, timestamp.

    Built one of two ways. ``Packet(ip, transport, payload, timestamp)``
    holds the header objects a generator or a test made. A packet decoded
    by :func:`decode_packet` (or :meth:`from_bytes`) holds what the
    engine reads on every packet — the packed 5-tuple
    (:attr:`flow_tuple`), the FIN/RST bit (:attr:`is_close`), the payload
    and the timestamp — plus its IP and TCP/UDP header bytes, from which
    :attr:`ip` / :attr:`transport` are parsed the first time they are
    asked for. Both kinds answer every attribute alike, compare equal
    when headers, payload and timestamp agree, and pickle as the four
    constructor fields.

    ``payload`` is ``bytes`` for a packet decoded from ``bytes`` — the
    pcap reader's case: owned bytes, so a retained packet keeps its own
    payload alive, never the capture chunk it was read from. A caller
    that decodes a ``memoryview`` gets views, which compare equal to
    equivalent ``bytes`` and serialize identically.
    """

    __slots__ = (
        "_ip", "_transport", "payload", "timestamp",
        "_wire", "_flow_tuple", "_is_close",
    )

    def __init__(
        self,
        ip: Ipv4Header,
        transport: "TcpHeader | UdpHeader",
        payload: "bytes | memoryview" = b"",
        timestamp: float = 0.0,
    ) -> None:
        expected = PROTO_TCP if isinstance(transport, TcpHeader) else PROTO_UDP
        if ip.protocol != expected:
            raise ValueError(
                f"IP protocol {ip.protocol} does not match transport "
                f"{type(transport).__name__}"
            )
        if isinstance(payload, memoryview) and not payload.contiguous:
            # The engine appends payloads to a ``bytearray``, which takes
            # contiguous buffers only: copy a strided view once, here.
            payload = payload.tobytes()
        self._ip = ip
        self._transport = transport
        self.payload = payload
        self.timestamp = timestamp
        # Derived from the headers on access, never stored: a generated
        # trace holds its packets in memory by the hundred thousand.
        self._wire = self._flow_tuple = self._is_close = None

    @classmethod
    def from_bytes(
        cls, data: "bytes | memoryview", timestamp: float = 0.0
    ) -> "Packet":
        """Parse a serialized IPv4 packet (TCP or UDP); IP options skipped.

        ``decode_packet(data, 0, len(data), timestamp)``: the payload is
        owned ``bytes`` when ``data`` is ``bytes``, a view of it when
        ``data`` is a ``memoryview``.
        """
        return decode_packet(data, 0, len(data), timestamp)

    @property
    def ip(self) -> Ipv4Header:
        ip = self._ip
        if ip is None:
            ip = self._ip = Ipv4Header.from_bytes(self._wire)
        return ip

    @property
    def transport(self) -> "TcpHeader | UdpHeader":
        transport = self._transport
        if transport is None:
            ip = self.ip
            # A decoded packet's header bytes end where its payload starts.
            parse = TcpHeader if ip.protocol == PROTO_TCP else UdpHeader
            transport = self._transport = parse.from_bytes(
                self._wire[ip.ihl_bytes :]
            )
        return transport

    @property
    def flow_tuple(self) -> bytes:
        """The packed 13-byte 5-tuple, ``FlowKey.of_packet(p).to_bytes()``.

        The engine reads this on every packet, so both kinds answer in
        this one frame: a decoded packet returns the bytes ``from_bytes``
        packed, a constructed one packs its headers' current fields here
        (:func:`pack_five_tuple`, inlined) and stores nothing.
        """
        packed = self._flow_tuple
        if packed is not None:
            return packed
        ip = self._ip
        transport = self._transport
        try:
            return _FIVE_TUPLE.pack(
                socket.inet_aton(ip.src), transport.src_port,
                socket.inet_aton(ip.dst), transport.dst_port, ip.protocol,
            )
        except (OSError, struct.error):
            raise _bad_five_tuple(
                ip.src, transport.src_port, ip.dst, transport.dst_port,
                ip.protocol,
            ) from None

    @property
    def is_close(self) -> bool:
        """Whether this is a TCP segment carrying FIN or RST.

        Snapshotted at decode on a packet from :meth:`from_bytes`; read
        from the header's *current* ``flags`` on a constructed packet
        (headers are mutable), in this one frame either way.
        """
        close = self._is_close
        if close is not None:
            return close
        transport = self._transport
        return (
            isinstance(transport, TcpHeader)
            and transport.flags & _CLOSE_FLAGS != 0
        )

    @property
    def is_tcp(self) -> bool:
        if self._transport is None:
            return self._flow_tuple[-1] == PROTO_TCP
        return isinstance(self._transport, TcpHeader)

    @property
    def five_tuple(self) -> tuple[str, int, str, int, int]:
        """(src ip, src port, dst ip, dst port, protocol)."""
        ip = self._ip
        if ip is None:
            src_raw, src_port, dst_raw, dst_port, protocol = _FIVE_TUPLE.unpack(
                self._flow_tuple
            )
            return (
                socket.inet_ntoa(src_raw), src_port,
                socket.inet_ntoa(dst_raw), dst_port, protocol,
            )
        transport = self.transport
        return (ip.src, transport.src_port, ip.dst, transport.dst_port, ip.protocol)

    def to_bytes(self) -> bytes:
        """Serialize the whole packet (IP total length fixed up)."""
        transport_bytes = self.transport.to_bytes()
        total = Ipv4Header.HEADER_LEN + len(transport_bytes) + len(self.payload)
        if total > _MAX_TOTAL_LENGTH:
            raise ValueError(
                f"IPv4 packet of {total} bytes exceeds the "
                f"{_MAX_TOTAL_LENGTH}-byte total length"
            )
        header = Ipv4Header(
            src=self.ip.src,
            dst=self.ip.dst,
            protocol=self.ip.protocol,
            total_length=total,
            identification=self.ip.identification,
            ttl=self.ip.ttl,
        )
        if isinstance(self.transport, UdpHeader):
            transport_bytes = UdpHeader(
                src_port=self.transport.src_port,
                dst_port=self.transport.dst_port,
                length=UdpHeader.HEADER_LEN + len(self.payload),
            ).to_bytes()
        return header.to_bytes() + transport_bytes + bytes(self.payload)

    def __getstate__(self) -> dict:
        # The constructor's four fields — also the ``__dict__`` a cached
        # pickle of the former dataclass carries, so those still load.
        return {
            "ip": self.ip,
            "transport": self.transport,
            "payload": bytes(self.payload),
            "timestamp": self.timestamp,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ip, self.transport, self.payload, self.timestamp) == (
            other.ip, other.transport, other.payload, other.timestamp
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"Packet(ip={self.ip!r}, transport={self.transport!r}, "
            f"payload={self.payload!r}, timestamp={self.timestamp!r})"
        )


_new_packet = object.__new__


def decode_packet(buf, start: int, end: int, timestamp: float = 0.0) -> Packet:
    """Decode the IPv4 TCP/UDP packet in ``buf[start:end]``, read in place.

    The one decoder: :meth:`Packet.from_bytes` and the pcap reader both
    call it, the reader on the chunk it holds, so a record is never
    copied out whole. An optionless header (IHL 5) on a record of at
    least 34 bytes — nearly every packet — is read by one
    ``unpack_from`` at ``start``; anything else is checked field by
    field, IP options located by the header length, and a record too
    short for a TCP header read from a zero-extended copy. No byte
    outside ``[start, end)`` is read. A record that is not an IPv4
    TCP/UDP packet raises ``ValueError``.

    The packet keeps two slices of ``buf`` and nothing else: the IP plus
    TCP/UDP header bytes (for the :attr:`Packet.ip` /
    :attr:`Packet.transport` parse on demand) and the payload — owned
    ``bytes`` when ``buf`` is ``bytes``, views when it is a
    ``memoryview``.
    """
    size = end - start
    if size >= _IHL5_SIZE and buf[start] == 0x45:
        ihl_bytes = 20
        fields = _UNPACK_IHL5(buf, start)
    else:
        if size < Ipv4Header.HEADER_LEN:
            raise ValueError(f"IPv4 header needs 20 bytes, got {size}")
        version_ihl = buf[start]
        if version_ihl >> 4 != 4:
            raise ValueError(f"not an IPv4 packet (version {version_ihl >> 4})")
        ihl_bytes = (version_ihl & 0x0F) * 4
        if ihl_bytes < Ipv4Header.HEADER_LEN:
            raise ValueError(f"invalid IPv4 IHL {ihl_bytes}")
        if size < ihl_bytes:
            raise ValueError(f"IPv4 header claims {ihl_bytes} bytes, got {size}")
        wire_fields = _WIRE_FIELDS[ihl_bytes]
        if size >= wire_fields.size:
            fields = wire_fields.unpack_from(buf, start)
        else:
            # Too short for a TCP header (a UDP datagram under 6 payload
            # bytes, or a stub): read a zero-extended copy. Every length
            # check below uses the true size, so the filler is never
            # taken for packet content.
            fields = wire_fields.unpack(
                bytes(buf[start:end]).ljust(wire_fields.size, b"\x00")
            )
    (
        total_length, protocol, src_raw, dst_raw,
        src_port, dst_port, offset_byte, flags,
    ) = fields
    # Ethernet pads short frames: the IP total length, when set and
    # inside the record, ends the packet.
    stop = total_length if 0 < total_length < size else size
    body = stop - ihl_bytes
    if protocol == PROTO_TCP:
        if body < TcpHeader.HEADER_LEN:
            raise ValueError(f"TCP header needs 20 bytes, got {max(body, 0)}")
        header_len = (offset_byte >> 4) * 4
        if header_len < TcpHeader.HEADER_LEN:
            raise ValueError(f"invalid TCP data offset {header_len}")
        if body < header_len:
            raise ValueError(f"TCP header claims {header_len} bytes, got {body}")
        is_close = flags & _CLOSE_FLAGS != 0
    elif protocol == PROTO_UDP:
        if body < UdpHeader.HEADER_LEN:
            raise ValueError(f"UDP header needs 8 bytes, got {max(body, 0)}")
        header_len = UdpHeader.HEADER_LEN
        is_close = False
    else:
        raise ValueError(f"unsupported IP protocol {protocol}")
    split = start + ihl_bytes + header_len
    packet = _new_packet(Packet)
    packet._ip = packet._transport = None
    packet._wire = buf[start:split]
    packet._flow_tuple = _PACK_FIVE_TUPLE(
        src_raw, src_port, dst_raw, dst_port, protocol
    )
    packet._is_close = is_close
    packet.payload = buf[split : start + stop]
    packet.timestamp = timestamp
    return packet
