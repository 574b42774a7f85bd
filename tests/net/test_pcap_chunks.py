"""Chunk-boundary, differential and fuzz tests for ``iter_pcap``.

``iter_pcap`` reads the capture in ``_READ_CHUNK``-byte chunks and walks
the records inside each chunk. The reference here is the reader it
replaced — one ``read`` for every record header and one for every body —
and wherever the chunk boundaries fall the two must yield the same
packets, the same :class:`PcapDecodeStats` and the same
:class:`PcapError` message.
"""

import io
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ingest.sources import PcapFileSource
from repro.net import pcap
from repro.net.ethernet import EthernetHeader
from repro.net.packet import Ipv4Header, Packet, TcpHeader, UdpHeader
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW,
    PcapDecodeStats,
    PcapError,
    iter_pcap,
)
from repro.obs import exposition, metrics
from repro.obs.metrics import MetricsRegistry
from tests.engine.test_packet_path_guard import frames_entered

REAL_CHUNK = pcap._READ_CHUNK
SMALL_CHUNK = 64


def per_record_reader(path, stats):
    """The reader ``iter_pcap`` replaced, over the file's bytes."""
    with open(path, "rb") as handle:
        handle = io.BytesIO(handle.read())  # a short read allocates nothing
    global_header = handle.read(24)
    if len(global_header) < 24:
        raise PcapError(f"{path}: truncated pcap global header")
    magic = struct.unpack("!I", global_header[:4])[0]
    try:
        order, ticks_per_second = pcap._MAGICS[magic]
    except KeyError:
        raise PcapError(
            f"{path}: unrecognized pcap magic 0x{magic:08x} "
            "(pcapng is not supported)"
        ) from None
    snaplen, linktype = struct.unpack(order + "II", global_header[16:])
    max_captured = max(snaplen, 262144)
    if linktype not in (LINKTYPE_RAW, LINKTYPE_ETHERNET):
        raise PcapError(
            f"{path}: link type {linktype} unsupported (expected raw IP "
            f"{LINKTYPE_RAW} or Ethernet {LINKTYPE_ETHERNET})"
        )
    while True:
        record_header = handle.read(16)
        if not record_header:
            return
        if len(record_header) < 16:
            raise PcapError(f"{path}: truncated pcap record header")
        seconds, ticks, captured, original = struct.unpack(
            order + "IIII", record_header
        )
        if captured > max_captured:
            raise PcapError(
                f"{path}: pcap record captured length {captured} exceeds "
                f"the snaplen bound {max_captured}"
            )
        record = handle.read(captured)
        if len(record) < captured:
            raise PcapError(f"{path}: truncated pcap record body")
        stats.records += 1
        stats.bytes += captured
        if captured < original:
            stats.truncated_records += 1
            continue
        data = memoryview(record)
        try:
            if linktype == LINKTYPE_ETHERNET:
                if not EthernetHeader.from_bytes(data).is_ipv4:
                    stats.skipped_frames += 1
                    continue
                data = data[EthernetHeader.HEADER_LEN :]
            packet = Packet.from_bytes(data, seconds + ticks / ticks_per_second)
        except ValueError:
            stats.decode_errors += 1
            continue
        stats.packets += 1
        yield packet


def outcome(read, path):
    """Everything a pass produced: packets, accounting, how it ended."""
    stats = PcapDecodeStats()
    seen = []
    error = None
    try:
        for packet in read(path, stats):
            seen.append(
                (packet.flow_tuple, packet.is_close, bytes(packet.payload),
                 packet.timestamp)
            )
    except PcapError as exc:
        error = str(exc)
    return seen, stats, error


def assert_same_outcome(path, blob, chunk):
    path.write_bytes(blob)
    with mock.patch.object(pcap, "_READ_CHUNK", chunk):
        got = outcome(iter_pcap, path)
    assert got == outcome(per_record_reader, path)
    return got


#: (byte order, nanosecond ticks): the four magics.
MAGICS = [("!", False), ("<", False), ("!", True), ("<", True)]
LINKTYPES = [LINKTYPE_RAW, LINKTYPE_ETHERNET]


def capture(order, nano, linktype, records, snaplen=65535) -> bytes:
    """A pcap file of ``(body, original_length)`` records."""
    magic = 0xA1B23C4D if nano else 0xA1B2C3D4
    parts = [struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype)]
    for index, (body, original) in enumerate(records):
        parts.append(
            struct.pack(order + "IIII", index + 1, 1000 * index + 7, len(body), original)
        )
        parts.append(body)
    return b"".join(parts)


def tcp(size, flags=0x18) -> bytes:
    return Packet(
        Ipv4Header("10.0.0.1", "10.0.0.2", 6),
        TcpHeader(1024 + size, 80, flags=flags),
        bytes(range(256)) * (size // 256) + bytes(range(size % 256)),
    ).to_bytes()


def udp(size) -> bytes:
    return Packet(
        Ipv4Header("10.0.0.3", "10.0.0.4", 17), UdpHeader(53, 2000 + size), bytes(size)
    ).to_bytes()


def frame_of(linktype) -> bytes:
    return EthernetHeader().to_bytes() if linktype == LINKTYPE_ETHERNET else b""


def mixed_records(linktype, lead=0):
    """Packets of every size 0-69, with one of each kind of skipped record.

    ``lead`` sizes the first record, which shifts every later record —
    and so every place a chunk boundary cuts one — by that many bytes.
    """
    frame = frame_of(linktype)
    bodies = [frame + udp(lead)]
    bodies += [frame + (tcp(size) if size % 3 else udp(size)) for size in range(70)]
    bodies.append(frame + tcp(0, flags=0x11))  # FIN
    icmp = bytearray(tcp(8))
    icmp[9] = 1
    bodies.insert(5, frame + bytes(icmp))  # a decode error
    bodies.insert(9, frame + tcp(40)[:30])  # a short TCP header: another
    records = [(body, len(body)) for body in bodies]
    records.insert(7, (frame + tcp(90)[:60], len(frame) + 130))  # snaplen-truncated
    if frame:
        records.insert(3, (EthernetHeader(ethertype=0x0806).to_bytes() + bytes(28), 42))
        records.insert(11, (b"\x00" * 5, 5))  # too short for a frame header
    return records


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("chunks") / "capture.pcap"


@pytest.mark.parametrize("linktype", LINKTYPES, ids=["raw", "ethernet"])
@pytest.mark.parametrize("order, nano", MAGICS)
class TestAgainstPerRecordReader:
    def test_records_straddle_every_refill_boundary(self, path, order, nano, linktype):
        for lead in range(SMALL_CHUNK):
            blob = capture(order, nano, linktype, mixed_records(linktype, lead))
            seen, stats, error = assert_same_outcome(path, blob, SMALL_CHUNK)
            assert error is None
            assert stats.packets == len(seen) == 72
            assert stats.decode_errors == (3 if linktype == LINKTYPE_ETHERNET else 2)
            assert stats.truncated_records == 1
            assert stats.skipped_frames == (linktype == LINKTYPE_ETHERNET)

    def test_capture_smaller_than_one_chunk(self, path, order, nano, linktype):
        blob = capture(order, nano, linktype, mixed_records(linktype))
        assert len(blob) < REAL_CHUNK
        seen, _stats, error = assert_same_outcome(path, blob, REAL_CHUNK)
        assert error is None and len(seen) == 72

    def test_capture_of_several_real_chunks(self, path, order, nano, linktype):
        records = mixed_records(linktype) * 30
        big = frame_of(linktype) + tcp(1400)
        records += [(big, len(big))] * 450
        blob = capture(order, nano, linktype, records)
        assert len(blob) > 3 * REAL_CHUNK
        seen, _stats, error = assert_same_outcome(path, blob, REAL_CHUNK)
        assert error is None and len(seen) == 72 * 30 + 450

    @pytest.mark.parametrize("chunk", [SMALL_CHUNK, REAL_CHUNK])
    def test_file_cut_at_every_offset_of_its_last_record(
        self, path, order, nano, linktype, chunk
    ):
        records = mixed_records(linktype)[:6]
        blob = capture(order, nano, linktype, records)
        last = 16 + len(records[-1][0])
        errors = set()
        for cut in range(last + 1):
            _seen, _stats, error = assert_same_outcome(
                path, blob[: len(blob) - cut], chunk
            )
            errors.add(error and error.split(": ", 1)[1])
        assert errors == {
            None, "truncated pcap record header", "truncated pcap record body"
        }


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, REAL_CHUNK])
class TestLargeRecords:
    def _jumbo(self, size) -> bytes:
        """A UDP datagram filling ``size`` bytes (IP total length unset)."""
        header = bytearray(udp(0))
        header[2:4] = b"\x00\x00"
        return bytes(header) + bytes(size - len(header))

    def test_record_larger_than_the_chunk_up_to_the_floor(self, path, chunk):
        records = [(tcp(10), 50), (self._jumbo(262144), 262144), (tcp(20), 60)]
        blob = capture("!", False, LINKTYPE_RAW, records, snaplen=16)
        seen, stats, error = assert_same_outcome(path, blob, chunk)
        assert error is None
        assert [len(payload) for _key, _close, payload, _ts in seen] == [
            10, 262144 - 28, 20
        ]
        assert stats.bytes == 50 + 262144 + 60

    def test_one_byte_over_the_floor_fails_before_the_body_is_read(self, path, chunk):
        records = [(tcp(10), 50), (self._jumbo(262145), 262145)]
        blob = capture("!", False, LINKTYPE_RAW, records, snaplen=16)
        seen, _stats, error = assert_same_outcome(path, blob, chunk)
        assert len(seen) == 1
        assert error.endswith("captured length 262145 exceeds the snaplen bound 262144")

    def test_lying_snaplen_and_length_allocate_nothing(self, path, chunk):
        """Both fields hostile: the bound passes, the file still ends."""
        header = struct.pack("!IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 0xFFFFFFFF, 101)
        record = struct.pack("!IIII", 1, 0, 0xF0000000, 0xF0000000)
        path.write_bytes(header + record + bytes(100))
        tracemalloc.start()
        try:
            with mock.patch.object(pcap, "_READ_CHUNK", chunk):
                with pytest.raises(PcapError, match="truncated pcap record body"):
                    list(iter_pcap(path))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_retained_payload_pins_one_record_never_a_chunk(self, path, chunk):
        sizes = (0, 1, 63, 64, 700, 1400)
        for linktype in LINKTYPES:
            frame = frame_of(linktype)
            bodies = [frame + tcp(size) for size in sizes] * 50
            records = [(body, len(body)) for body in bodies]
            path.write_bytes(capture("!", False, linktype, records))
            with mock.patch.object(pcap, "_READ_CHUNK", chunk):
                retained = list(iter_pcap(path))
            assert len(retained) == len(bodies)
            for packet, body, size in zip(retained, bodies, sizes * 50):
                # Owned bytes, exactly the record's payload: nothing
                # references the chunk it was read from.
                assert type(packet.payload) is bytes
                assert packet.payload == body[len(body) - size :]
                assert packet.to_bytes() == body[len(frame):]


class TestReadInPlace:
    """Counts, not timings: what one pass enters per record."""

    @pytest.mark.parametrize("linktype", LINKTYPES, ids=["raw", "ethernet"])
    def test_one_decoder_frame_per_record_and_no_frame_header(self, path, linktype):
        frame = frame_of(linktype)
        bodies = [frame + (tcp(size) if size % 3 else udp(size)) for size in range(60)]
        path.write_bytes(capture("!", False, linktype, [(b, len(b)) for b in bodies]))
        entered = frames_entered(list, iter_pcap(path))
        assert entered["decode_packet"] == len(bodies)
        assert entered["Packet.from_bytes"] == 0
        assert not [
            name for name in entered
            if name.startswith("EthernetHeader.") or name == "_bytes_to_mac"
        ]

    def test_a_metered_source_adds_nothing_per_record(self, path):
        """The pass is the ``iter_pcap`` generator: no wrapper resumes per
        record, and the registry is read at scrape time, never pushed."""
        bodies = [tcp(size) if size % 3 else udp(size) for size in range(600)]
        path.write_bytes(capture("!", False, LINKTYPE_RAW, [(b, len(b)) for b in bodies]))
        registry = MetricsRegistry()
        source = PcapFileSource(path, registry=registry)
        entered = frames_entered(list, source)
        assert entered["PcapFileSource.__iter__"] == 1
        assert entered["decode_packet"] == len(bodies)
        obs_names = {
            name
            for module in (metrics, exposition)
            for name, obj in vars(module).items()
            if getattr(obj, "__module__", "").startswith("repro.obs")
        }
        assert not [name for name in entered if name.split(".")[0] in obs_names]
        counter = registry.counter("ingest_packets_total", source=f"pcap:{path.name}")
        assert counter.value == source.stats.packets == len(bodies)


chunks = st.sampled_from([24, 25, SMALL_CHUNK, 4096, REAL_CHUNK])
global_headers = st.builds(
    lambda magic, linktype, snaplen: struct.pack(
        magic[0] + "IHHiIII",
        0xA1B23C4D if magic[1] else 0xA1B2C3D4, 2, 4, 0, 0, snaplen, linktype,
    ),
    st.sampled_from(MAGICS),
    st.sampled_from(LINKTYPES),
    st.sampled_from([0, 16, 65535, 0xFFFFFFFF]),
)


class TestFuzz:
    """Only ``PcapError`` or a counted skip may come out — and the same one
    the per-record reader gives. ``outcome`` catches nothing else, so a
    ``struct.error`` or an ``IndexError`` fails the test."""

    @given(blob=st.binary(max_size=200), chunk=chunks)
    def test_arbitrary_file(self, path, blob, chunk):
        assert_same_outcome(path, blob, chunk)

    @given(header=global_headers, tail=st.binary(max_size=400), chunk=chunks)
    def test_arbitrary_bytes_after_a_valid_global_header(
        self, path, header, tail, chunk
    ):
        assert_same_outcome(path, header + tail, chunk)

    @given(
        magic=st.sampled_from(MAGICS),
        linktype=st.sampled_from(LINKTYPES),
        flips=st.lists(
            st.tuples(st.integers(0, 1199), st.integers(0, 7)), min_size=1, max_size=6
        ),
        chunk=chunks,
    )
    def test_bit_flipped_capture(self, path, magic, linktype, flips, chunk):
        blob = bytearray(capture(*magic, linktype, mixed_records(linktype)[:14]))
        for index, bit in flips:
            blob[index % len(blob)] ^= 1 << bit
        assert_same_outcome(path, bytes(blob), chunk)
