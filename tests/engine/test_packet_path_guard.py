"""Structural guard on the packet path: counts, not timings.

After a flow is labelled, each later packet is supposed to cost one CDB
lookup (paper §1.2, §4.5). Streaming a capture through the engine must
therefore build no header object and take no SHA-1, and mint one
``FlowKey`` per *flow*; and a flow whose first packet completes its
window must cost no deadline and share its extraction with the rest of
its batch — exact counts, so the tests cannot flake, and they fail the
day someone re-adds per-packet (or per-flow) work.

The second half counts *frames*: a packet that needs no classification
enters the three functions the layer boundaries require (engine →
runtime → pipeline), its own two one-frame properties, the CDB record's
lambda rule on a hit and one ``on_packet`` per sink — and nothing else;
a flow's buffer deadline is armed when the flow is created and moved
only by a flush that finds the flow still active.

The third part guards the new-flow path's per-flow records: one
``FlowKey`` minted without the dataclass ``__init__``, one
``PendingFlow`` from first packet to label (no second ready-flow
record), fewer frames per flow than ``b71e11f``, and no more retained
heap per classified flow.
"""

import gc
import hashlib
import math
import sys
import tracemalloc
from collections import Counter

import pytest

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine.deadlines import DeadlineWheel
from repro.engine.sinks import QueueSink
from repro.ingest import PcapFileSource
from repro.net.flow import FlowKey
from repro.net.packet import (
    FLAG_ACK,
    PROTO_TCP,
    PROTO_UDP,
    Ipv4Header,
    Packet,
    TcpHeader,
    UdpHeader,
)
from repro.net.pcap import write_pcap


@pytest.fixture
def counting(monkeypatch):
    """``(calls, count)``: ``count(owner, name)`` tallies calls of an attribute."""
    calls = Counter()

    def count(owner, name, wrap=lambda function: function):
        original = getattr(owner, name)
        label = getattr(owner, "__name__", type(owner).__name__)

        def counted(*args, **kwargs):
            calls[f"{label}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted))

    return calls, count


def test_streamed_capture_parses_no_header_and_hashes_nothing(
    tmp_path, counting, trained_svm, small_trace
):
    path = tmp_path / "trace.pcap"
    write_pcap(path, small_trace.packets)
    calls, count = counting

    for header in (Ipv4Header, TcpHeader, UdpHeader):
        # ``original`` is already bound to the class: drop the wrapper's ``cls``.
        count(header, "from_bytes", lambda f: classmethod(lambda cls, data: f(data)))
    count_minted_keys(count)
    count(hashlib, "sha1")

    engine = open_engine(trained_svm, EngineConfig(max_batch=8))
    with PcapFileSource(path) as source:
        stats = engine.process_source(source)
    engine.close()

    assert stats.packets == len(small_trace.packets)
    assert stats.cdb_hits > stats.classifications > 0
    assert calls["Ipv4Header.from_bytes"] == 0
    assert calls["TcpHeader.from_bytes"] == 0
    assert calls["UdpHeader.from_bytes"] == 0
    assert calls["hashlib.sha1"] == 0
    # Every pending flow ends labelled or unclassifiable, and each was
    # minted with exactly one key.
    assert calls["FlowKey.unchecked"] == stats.classifications + stats.unclassifiable
    assert calls["FlowKey.unchecked"] < stats.packets / 4
    assert calls["FlowKey.__init__"] == 0


def count_minted_keys(count) -> None:
    """Tally both ways a ``FlowKey`` comes to be.

    The engine mints through ``FlowKey.unchecked`` (its 5-tuple was
    range-checked when the packet's ``flow_tuple`` was packed), everyone
    else through the dataclass ``__init__``.
    """
    count(FlowKey, "unchecked", lambda f: classmethod(lambda cls, *a: f(*a)))
    count(FlowKey, "__init__")


def udp_packet(flow: int, payload: bytes, timestamp: float) -> Packet:
    ip = Ipv4Header(src=f"10.{flow >> 16}.{(flow >> 8) & 255}.{flow & 255}",
                    dst="192.168.0.1", protocol=PROTO_UDP)
    return Packet(ip, UdpHeader(4000, 53, 8 + len(payload)), payload, timestamp)


def test_flow_complete_on_arrival_costs_no_deadline(
    counting, trained_svm, still_clock
):
    flows, max_batch = 21, 8
    payload = bytes(range(48))
    # Well inside one sample interval, on a stopped wall clock: only the
    # size trigger and the end of the stream drain the batcher.
    packets = [udp_packet(i, payload[i % 8 :], i * 1e-4) for i in range(flows)]
    calls, count = counting
    count(DeadlineWheel, "schedule")
    count_minted_keys(count)

    engine = open_engine(trained_svm, EngineConfig(max_batch=max_batch))
    count(engine.extractor, "finalize")
    stats = engine.process_source(packets)
    engine.close()

    assert stats.classifications == flows
    assert calls["DeadlineWheel.schedule"] == 0
    assert len(engine.wheel._heap) == 0
    assert calls["BatchEntropyExtractor.finalize"] == math.ceil(flows / max_batch)
    assert calls["FlowKey.unchecked"] == flows
    assert calls["FlowKey.__init__"] == 0


def test_flow_left_pending_still_gets_its_deadline(counting, trained_svm):
    flows = 6
    half = bytes(range(16))
    # Each flow fills its 32-byte window with its second packet; flow 99
    # sends one packet and goes silent.
    packets = [udp_packet(i, half, i * 1e-3) for i in range(flows)]
    packets.append(udp_packet(99, half, 0.01))
    packets += [udp_packet(i, half, 0.02 + i * 1e-3) for i in range(flows)]
    # The clock moves on past the silent flow's buffer timeout.
    packets += [udp_packet(200 + i, bytes(48), 1.5 + i) for i in range(3)]
    calls, count = counting
    count(DeadlineWheel, "schedule")

    engine = open_engine(
        trained_svm, EngineConfig(max_batch=4, buffer_timeout=0.5)
    )
    count(engine, "flush_timeouts")
    stats = engine.process_source(packets)
    engine.close()

    # One deadline per flow left pending: armed by the first half of every
    # two-packet flow and by the silent flow's only packet.
    assert calls["DeadlineWheel.schedule"] == flows + 1
    assert calls["StagedEngine.flush_timeouts"] >= 1
    assert stats.classifications == flows + 1 + 3
    silent = next(
        outcome for outcome in stats.classified
        if outcome.key.src == "10.0.0.99"
    )
    assert silent.buffered_bytes == len(half)
    # Labelled by the timeout sweep, not by the end-of-stream drain.
    assert silent.classified_at < packets[-1].timestamp
    assert len(engine.wheel) == 0


# -- frames per packet ----------------------------------------------------------


def frames_entered(function, *args) -> Counter:
    """Qualified names of the Python frames ``function(*args)`` enters."""
    entered = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            entered[frame.f_code.co_qualname] += 1

    # A collection mid-call would add the frames of whatever gc callbacks
    # are installed (hypothesis installs one): not frames of ``function``.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return entered


#: What any packet enters before the pipeline decides what it is.
LADDER = [
    "StagedEngine.process_packet",
    "Packet.flow_tuple",
    "Packet.is_close",
    "SerialRuntime.dispatch",
    "FlowPipeline.ingest",
]


def tcp_packet(flow: int, payload: bytes, timestamp: float) -> Packet:
    ip = Ipv4Header(src=f"10.1.{flow >> 8}.{flow & 255}", dst="192.168.0.1",
                    protocol=PROTO_TCP)
    return Packet(ip, TcpHeader(5000, 443, flags=FLAG_ACK), payload, timestamp)


def decoded(packet: Packet) -> Packet:
    """The same packet as a capture would deliver it."""
    return Packet.from_bytes(packet.to_bytes(), packet.timestamp)


@pytest.mark.parametrize("wire", [False, True], ids=["constructed", "decoded"])
def test_known_flow_packet_enters_three_engine_frames(trained_svm, wire):
    make = decoded if wire else (lambda p: p)
    engine = open_engine(
        trained_svm, EngineConfig(max_batch=1), sink=QueueSink()
    )
    assert len(engine.sinks) == 2  # the QueueSink and the StatsSink riding along
    for i, build in enumerate((udp_packet, tcp_packet)):
        engine.process_packet(make(build(7, bytes(range(48)), 0.1 * i)))
        assert engine.stats.classifications == i + 1
        hit = make(build(7, b"more payload", 1.0 + i))

        entered = frames_entered(engine.process_packet, hit)

        assert engine.stats.cdb_hits == i + 1
        assert entered == Counter(
            LADDER
            + ["CdbRecord.touch"]  # Section 4.5's lambda rule lives in core/cdb.py
            + ["QueueSink.on_packet", "ResultSink.on_packet"]
        )


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_pending_packet_arms_nothing_and_allocates_no_result(
    trained_svm, extractor
):
    engine = open_engine(
        trained_svm,
        EngineConfig(
            extractor=extractor, pipeline=IustitiaConfig(strip_known_headers=False)
        ),
    )
    created = frames_entered(engine.process_packet, udp_packet(1, b"12345678", 0.0))
    later = frames_entered(engine.process_packet, udp_packet(1, b"12345678", 0.1))

    assert engine.table.pending_count == 1 and engine.stats.classifications == 0
    # Only the packet that created the flow arms its deadline.
    assert created["DeadlineWheel.schedule"] == 1
    assert not [name for name in later if name.startswith("DeadlineWheel.")]
    assert "IngestResult.__init__" not in created + later
    # Either extractor: the payload goes onto the flow's buffer inline and
    # nothing folds before the classify drain, so the ladder is all of it.
    assert later == Counter(LADDER)


def test_deadline_armed_once_per_flow_and_rearmed_by_a_flush(counting, trained_svm):
    flows = 6
    third = bytes(range(11))
    # Three packets fill a flow's 32-byte window; flow 99 sends two and
    # goes silent; flow 50 sends one packet a tick, across both flushes.
    packets = []
    for round_ in range(3):
        packets += [udp_packet(i, third, round_ * 0.01 + i * 1e-3) for i in range(flows)]
    packets += [udp_packet(99, third, 0.04), udp_packet(99, third, 0.05)]
    packets += [udp_packet(50, b"ab", 0.1 + 0.25 * i) for i in range(10)]
    packets.sort(key=lambda p: p.timestamp)
    calls, count = counting
    count(DeadlineWheel, "schedule")

    engine = open_engine(
        trained_svm, EngineConfig(max_batch=4, buffer_timeout=0.5)
    )
    count(engine, "flush_timeouts")
    stats = engine.process_source(packets)
    engine.close()

    assert calls["StagedEngine.flush_timeouts"] == 2  # at 1.1 and 2.1
    by_source = {outcome.key.src: outcome for outcome in stats.classified}
    # Silent for 1.05 s at the first flush: expired there.
    assert by_source["10.0.0.99"].classified_at == pytest.approx(1.1)
    assert by_source["10.0.0.99"].buffered_bytes == 2 * len(third)
    # Never silent for 0.5 s: both flushes re-armed it, the end of the
    # stream classified it.
    assert by_source["10.0.0.50"].classified_at == packets[-1].timestamp
    assert by_source["10.0.0.50"].buffered_bytes == 2 * 10
    # One deadline per flow (8 flows, 30 packets), two re-arms.
    assert calls["DeadlineWheel.schedule"] == (flows + 2) + 2
    assert stats.classifications == flows + 2
    assert len(engine.wheel) == 0


# -- records per flow -----------------------------------------------------------


def test_flow_complete_on_arrival_touches_no_wheel_and_queues_itself(
    trained_svm, still_clock
):
    engine = open_engine(trained_svm, EngineConfig(max_batch=4))
    payload = bytes(range(48))
    for i in range(4):  # one full drain: every lazy import and cache is warm
        engine.process_packet(udp_packet(i, payload, i * 1e-4))
    assert engine.stats.classifications == 4
    packet = udp_packet(9, payload, 0.01)

    entered = frames_entered(engine.process_packet, packet)

    assert not [name for name in entered if name.startswith("DeadlineWheel.")]
    # What waits in the batcher is the flow's one record, not a copy of it.
    pending = engine.table.pending[packet.flow_tuple]
    assert engine.batcher._queue == [pending] and engine.batcher._queue[0] is pending
    assert pending.queued and pending.window == payload[:32]
    assert pending.flow_id == packet.flow_tuple == pending.key.to_bytes()
    assert not hasattr(sys.modules["repro.engine.batcher"], "ReadyFlow")


def frames_of_one_drain(classifier, batch: int) -> int:
    """Python frames entered while ``batch`` one-packet flows fill one drain."""
    engine = open_engine(classifier, EngineConfig(max_batch=batch))
    payload = bytes(range(48))
    for i in range(batch):  # warm: the first drain pays every one-off
        engine.process_packet(udp_packet(i, payload, i * 1e-4))
    packets = [udp_packet(1000 + i, payload, 0.01 + i * 1e-4) for i in range(batch)]

    def feed():
        for packet in packets:
            engine.process_packet(packet)

    total = sum(frames_entered(feed).values())
    assert engine.stats.classifications == 2 * batch
    return total


def test_new_flow_enters_fewer_frames_than_the_parent(trained_svm, still_clock):
    """Frames from ``process_packet`` to ``on_flow_classified``, per flow.

    One drain of 16 flows minus one drain of 8, over 8: what a drain
    costs whatever its size (the kernels' frames, numpy's own) cancels,
    what each flow adds stays. ``5196104`` enters 31 — five of them the
    generated ``__init__`` of ``FlowKey`` (plus ``of_packet`` and
    ``__post_init__``), ``ReadyFlow``, ``ClassifiedFlow``,
    ``PendingFlow`` and ``CdbRecord``, one a ``DeadlineWheel.cancel`` of
    a deadline never armed, one an ``IngestResult`` for a packet that
    drained nothing. ``b71e11f`` enters 26: per flow it still called
    ``pipeline.apply``, ``engine.emit``, ``StatsSink.on_flow_classified``,
    ``ClassificationDatabase.insert_record``, ``ClassifiedFlow``'s
    generated ``__new__`` and ``FlowPipeline._freeze``. ``db0a52e``
    applies and emits once per drain, builds the outcome with
    ``tuple.__new__`` and freezes the window inside ``make_ready``: 20,
    five of them ``BatchEntropyExtractor.new_state`` and its
    ``BufferedFlowState.__init__``, ``FlowPipeline._fold_one`` and the
    ``fold`` it calls, and ``raw_window``. This tree appends the payload
    to the flow's own buffer inline and cuts the window from it: 15.
    """
    per_flow = (
        frames_of_one_drain(trained_svm, 16) - frames_of_one_drain(trained_svm, 8)
    ) / 8
    assert per_flow <= 15


def test_retained_heap_per_classified_flow(trained_svm):
    """``tracemalloc`` around a flow-churn-shaped pass, over flows classified.

    20,000 one-packet flows at 8,000 pkt/s, ``max_batch=32``, the default
    ``StatsSink`` (it keeps every ``ClassifiedFlow`` and, through it, the
    flow's ``FlowKey``); the packets exist before tracing starts, so what
    is counted is what the engine retains: CDB records, outcomes, keys.
    ``5196104`` reads 390.5 B per flow by this method (404 B by the
    issue's), this tree 365.2 B. A record built by writing into its
    ``__dict__`` loses CPython's shared key table — 64 to 128 B more per
    ``FlowKey`` and per outcome — and fails this.
    """
    flows = 20_000
    payloads = [bytes((i * 7 + j) & 255 for j in range(48)) for i in range(64)]
    packets = [udp_packet(i, payloads[i % 64], i / 8000.0) for i in range(flows)]
    engine = open_engine(trained_svm, EngineConfig(max_batch=32))
    gc.collect()
    tracemalloc.start()
    try:
        stats = engine.process_source(packets)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    engine.close()

    assert stats.classifications == flows
    assert retained / flows <= 404
