"""Classic pcap file format reader/writer.

Implements the original libpcap format with two link types: raw IPv4
(the writer's default — packets begin directly with the IP header) and
Ethernet II (what most real captures use; the reader strips the 14-byte
frame header, the writer can synthesize one). Both byte orders and both
timestamp resolutions are accepted on read — microsecond captures
(magic ``0xa1b2c3d4``) and nanosecond captures (``0xa1b23c4d``, what
modern ``tcpdump --time-stamp-precision=nano`` writes) — with
timestamps normalized to float seconds; pcapng is still rejected with a
clear error rather than misparsed. Serialized :class:`Packet` objects
round-trip through files that standard tools can also open.

The decode path is a generator, :func:`iter_pcap`, that yields one
:class:`Packet` per record without ever holding the file in memory —
the streaming ingest layer (:mod:`repro.ingest`) builds on it, and
:func:`read_pcap` is just ``list(iter_pcap(path))``. Symmetrically,
:func:`write_pcap` consumes any iterable of packets and streams records
to disk, so ``write_pcap(out, iter_pcap(src))`` re-encodes a capture of
any size in bounded memory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.net.ethernet import ETHERTYPE_IPV4, EthernetHeader
from repro.net.packet import Packet, decode_packet

__all__ = [
    "LINKTYPE_ETHERNET",
    "LINKTYPE_RAW",
    "PcapDecodeStats",
    "PcapError",
    "iter_pcap",
    "read_pcap",
    "write_pcap",
]

_MAGIC = 0xA1B2C3D4
_MAGIC_SWAPPED = 0xD4C3B2A1
_MAGIC_NANO = 0xA1B23C4D
_MAGIC_NANO_SWAPPED = 0x4D3CB2A1
_VERSION = (2, 4)

#: ``magic (as read big-endian) -> (struct byte order, ticks per second)``.
_MAGICS = {
    _MAGIC: ("!", 1_000_000),
    _MAGIC_SWAPPED: ("<", 1_000_000),
    _MAGIC_NANO: ("!", 1_000_000_000),
    _MAGIC_NANO_SWAPPED: ("<", 1_000_000_000),
}

#: Raw IP link type: packets begin directly with the IPv4 header.
LINKTYPE_RAW = 101

#: Ethernet II link type: packets carry a 14-byte frame header.
LINKTYPE_ETHERNET = 1

#: Floor of the per-record captured-length bound (libpcap's
#: MAXIMUM_SNAPLEN): a header declaring a smaller snaplen than its
#: records actually carry is tolerated up to this size.
_MAX_SNAPLEN = 262144

#: A record's seconds field is an unsigned 32-bit integer.
_MAX_SECONDS = 1 << 32

#: Bytes :func:`iter_pcap` asks the file for at a time.
_READ_CHUNK = 1 << 18

#: An Ethernet II frame header; its EtherType is the last two bytes.
_FRAME_LEN = EthernetHeader.HEADER_LEN
_unpack_ethertype = struct.Struct("!H").unpack_from


class PcapError(ValueError):
    """The capture file itself is damaged or not a classic pcap.

    Raised by :func:`iter_pcap` for file-structure faults only (bad
    magic, unsupported link type, a truncated header or record, an
    oversize captured length); a record whose *body* fails to parse is
    counted in ``PcapDecodeStats.decode_errors`` instead.
    """


@dataclass
class PcapDecodeStats:
    """Decode-side accounting of one :func:`iter_pcap` pass.

    ``truncated_records`` counts records whose captured length is short
    of the original packet (snaplen truncation) — those are *skipped*,
    not yielded, because a partial payload would silently feed the
    classifier wrong bytes. ``skipped_frames`` counts Ethernet frames
    that are not IPv4 (ARP, IPv6, ...). ``decode_errors`` counts
    records whose body failed to parse as an IPv4/TCP/UDP packet.
    """

    records: int = 0
    packets: int = 0
    bytes: int = 0
    truncated_records: int = 0
    skipped_frames: int = 0
    decode_errors: int = 0


def write_pcap(
    path: "str | Path",
    packets,
    linktype: int = LINKTYPE_RAW,
) -> int:
    """Write packets to ``path`` in classic pcap format (microseconds).

    ``packets`` is any iterable of :class:`Packet` — a list, a
    generator, or a :mod:`repro.ingest` source — consumed one record at
    a time, so arbitrarily large captures stream to disk in bounded
    memory. ``linktype`` selects raw IP (default) or Ethernet II; with
    Ethernet, a synthetic broadcast frame header is prepended to each
    packet. Returns the number of records written.

    A packet the format cannot hold — a timestamp outside ``[0, 2**32)``
    seconds, more than 65,535 bytes, a header that does not serialize —
    raises ``ValueError`` naming its record index, before any byte of
    that record is written (earlier records stay in the file).
    """
    if linktype not in (LINKTYPE_RAW, LINKTYPE_ETHERNET):
        raise ValueError(f"unsupported link type {linktype}")
    frame = EthernetHeader().to_bytes() if linktype == LINKTYPE_ETHERNET else b""
    written = 0
    with open(path, "wb") as handle:
        handle.write(
            struct.pack(
                "!IHHiIII",
                _MAGIC,
                _VERSION[0],
                _VERSION[1],
                0,  # thiszone
                0,  # sigfigs
                65535,  # snaplen
                linktype,
            )
        )
        for index, packet in enumerate(packets):
            try:
                data = frame + packet.to_bytes()
            except (ValueError, struct.error) as exc:
                raise ValueError(f"record {index}: {exc}") from None
            stamp = _record_stamp(packet.timestamp)
            if stamp is None:
                raise ValueError(
                    f"record {index}: timestamp {packet.timestamp!r} is outside "
                    "the pcap range [0, 2**32) seconds"
                )
            handle.write(struct.pack("!IIII", *stamp, len(data), len(data)))
            handle.write(data)
            written += 1
    return written


def _record_stamp(timestamp: float) -> "tuple[int, int] | None":
    """``(seconds, microseconds)`` of a record, ``None`` if out of range."""
    if not 0 <= timestamp < _MAX_SECONDS:  # NaN and infinities too
        return None
    seconds = int(timestamp)
    micros = int(round((timestamp - seconds) * 1_000_000))
    if micros >= 1_000_000:
        seconds += 1
        micros -= 1_000_000
    return (seconds, micros) if seconds < _MAX_SECONDS else None


def iter_pcap(
    path: "str | Path",
    stats: "PcapDecodeStats | None" = None,
) -> Iterator[Packet]:
    """Yield packets from a classic pcap file, one record at a time.

    Incremental decode: the file is read in ``_READ_CHUNK``-byte chunks
    and records are walked inside the chunk, so memory stays O(chunk +
    one record) no matter how large the capture is. Each record is read
    in place — :func:`repro.net.packet.decode_packet` parses it where it
    sits in the chunk, an Ethernet frame's EtherType included — and its
    packet keeps owned bytes (its header and payload slices): a packet
    the engine retains pins its own bytes, never a chunk. Handles
    both byte orders and both microsecond and nanosecond timestamp
    magics (normalized to float seconds); Ethernet frames are stripped
    (non-IPv4 frames are skipped); snaplen-truncated records
    (``captured < original``) are counted and skipped rather than
    misparsed, and so are records whose body does not parse as an IPv4
    TCP/UDP packet (``decode_errors``); rejects pcapng and other link
    types with a clear error. A truncated file tail (partial record
    header or body) raises :class:`PcapError` mid-iteration, as does a
    record whose captured length exceeds ``max(snaplen, 262144)`` —
    checked before the body is read, so a hostile length field cannot
    force a giant allocation.

    ``stats`` — an optional :class:`PcapDecodeStats` the caller can
    watch (or let :class:`repro.ingest.PcapFileSource` surface as
    ingest metrics); pass ``None`` to skip the bookkeeping object
    entirely (one is still kept internally).
    """
    if stats is None:
        stats = PcapDecodeStats()
    with open(path, "rb") as handle:
        chunk = handle.read(_READ_CHUNK)
        if len(chunk) < 24:
            raise PcapError(f"{path}: truncated pcap global header")
        magic = struct.unpack_from("!I", chunk)[0]
        try:
            order, ticks_per_second = _MAGICS[magic]
        except KeyError:
            raise PcapError(
                f"{path}: unrecognized pcap magic 0x{magic:08x} "
                "(pcapng is not supported)"
            ) from None
        _vmaj, _vmin, _zone, _sig, snaplen, linktype = struct.unpack_from(
            order + "HHiIII", chunk, 4
        )
        max_captured = max(snaplen, _MAX_SNAPLEN)
        if linktype not in (LINKTYPE_RAW, LINKTYPE_ETHERNET):
            raise PcapError(
                f"{path}: link type {linktype} unsupported (expected raw IP "
                f"{LINKTYPE_RAW} or Ethernet {LINKTYPE_ETHERNET})"
            )
        unpack_record_header = struct.Struct(order + "IIII").unpack_from
        ethernet = linktype == LINKTYPE_ETHERNET
        position = 24
        while True:
            body = position + 16
            if body > len(chunk):
                chunk = chunk[position:] + handle.read(_READ_CHUNK)
                position, body = 0, 16
                if not chunk:
                    return
                if len(chunk) < 16:
                    raise PcapError(f"{path}: truncated pcap record header")
            seconds, ticks, captured, original = unpack_record_header(
                chunk, position
            )
            if captured > max_captured:
                raise PcapError(
                    f"{path}: pcap record captured length {captured} exceeds "
                    f"the snaplen bound {max_captured}"
                )
            position = body + captured
            if position > len(chunk):
                # The record straddles the chunk boundary (or is larger
                # than a chunk): keep its head, read on for its tail.
                # Each read asks for no more than the file has already
                # delivered, so a length field that lies (under a
                # snaplen that lies too) cannot size an allocation.
                chunk = chunk[body - 16 :]
                body, position = 16, 16 + captured
                while position > len(chunk):
                    tail = handle.read(max(_READ_CHUNK, len(chunk)))
                    if not tail:
                        raise PcapError(f"{path}: truncated pcap record body")
                    chunk += tail
            stats.records += 1
            stats.bytes += captured
            if captured < original:
                # Snaplen truncation: the tail of the packet never made
                # it into the capture. Parsing the stub would hand the
                # classifier a silently-shortened payload, so count it
                # and move on.
                stats.truncated_records += 1
                continue
            if ethernet:
                if captured < _FRAME_LEN:
                    stats.decode_errors += 1  # too short for a frame header
                    continue
                if _unpack_ethertype(chunk, body + 12)[0] != ETHERTYPE_IPV4:
                    stats.skipped_frames += 1
                    continue  # ARP/IPv6/etc.: not Iustitia traffic
                body += _FRAME_LEN
            try:
                # Read in place: the decoder parses the record where it
                # sits in the chunk and slices out the header and payload
                # bytes it keeps, so a retained packet owns its bytes and
                # pins no chunk.
                packet = decode_packet(
                    chunk, body, position, seconds + ticks / ticks_per_second
                )
            except ValueError:
                # The record is intact but its body is not an IPv4
                # TCP/UDP packet (ICMP, a bad IHL, a short TCP header):
                # one such record must not end the capture.
                stats.decode_errors += 1
                continue
            stats.packets += 1
            yield packet


def read_pcap(path: "str | Path") -> list[Packet]:
    """Read a whole classic pcap file into a list (see :func:`iter_pcap`).

    Materializes every packet; for captures that should not fit in
    memory, iterate :func:`iter_pcap` (or wrap it in a
    :class:`repro.ingest.PcapFileSource`) instead.
    """
    return list(iter_pcap(path))
