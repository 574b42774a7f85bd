"""Property tests: arm-once buffer deadlines against an eager model.

The pipeline arms a flow's buffer-timeout deadline when the flow is
created and, when that deadline fires, compares ``last_arrival +
buffer_timeout < now`` — expired, or re-armed at that true deadline.
The reference below does what an eagerly rescheduled deadline does: it
keeps ``last_arrival`` per flow and expires ``last + timeout < now`` at
every flush. Under any interleaving of packets and flushes on a
nondecreasing clock the two must expire the same flows at the same
flush, classify them in the same (first-arrival) order, drop the same
flows as unclassifiable and end with the same labels.

Clock steps are multiples of 0.25 s, so sums are exact and ``last +
timeout == now`` (not expired: the test is strict) comes up all the time.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.net.packet import PROTO_UDP, Ipv4Header, Packet, UdpHeader

TIMEOUT = 2.0
WINDOW = 32
#: The widest feature of the session classifiers (h_5): fewer buffered
#: bytes than this cannot be classified.
MIN_WINDOW = 5
FLOWS = 5

steps = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 2.0, 2.25, 4.0])
packet_ops = st.tuples(
    st.just("packet"), st.integers(0, FLOWS - 1), st.integers(0, 12), steps
)
flush_ops = st.tuples(st.just("flush"), st.just(0), st.just(0), steps)
interleavings = st.lists(st.one_of(packet_ops, flush_ops), max_size=60)


def port_of(flow: int) -> int:
    return 4000 + flow


def packet(flow: int, size: int, now: float) -> Packet:
    payload = bytes((flow * 37 + i * 11 + int(now * 4)) % 256 for i in range(size))
    ip = Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=PROTO_UDP)
    return Packet(ip, UdpHeader(port_of(flow), 53, 8 + size), payload, now)


class EagerModel:
    """``last_arrival`` per pending flow; expire ``last + timeout < now``."""

    def __init__(self) -> None:
        self.pending: dict = {}  # flow -> [last_arrival, window]; dict order is seq order
        self.labelled: set = set()
        self.classified: list = []  # (flow, window), in classification order
        self.unclassifiable = 0
        self.hits = 0

    def on_packet(self, flow: int, payload: bytes, now: float) -> None:
        if flow in self.labelled:
            self.hits += 1
            return
        entry = self.pending.setdefault(flow, [now, b""])
        entry[0] = now
        entry[1] += payload
        if len(entry[1]) >= WINDOW:
            self.retire(flow)

    def retire(self, flow: int) -> None:
        window = self.pending.pop(flow)[1]
        if len(window) < MIN_WINDOW:
            self.unclassifiable += 1
            return
        self.labelled.add(flow)
        self.classified.append((flow, window[:WINDOW]))

    def flush(self, now: float) -> int:
        expired = [f for f, (last, _) in self.pending.items() if last + TIMEOUT < now]
        for flow in expired:
            self.retire(flow)
        return len(expired)

    def finish(self) -> None:
        for flow in list(self.pending):
            self.retire(flow)


def engine_for(classifier, extractor: str):
    # Synchronous: a ready flow classifies on the spot, so the order of
    # ``stats.classified`` is the order flows became ready.
    return open_engine(
        classifier,
        EngineConfig(
            max_batch=1,
            extractor=extractor,
            pipeline=IustitiaConfig(
                buffer_size=WINDOW,
                buffer_timeout=TIMEOUT,
                strip_known_headers=False,
            ),
        ),
    )


def run_both(classifier, extractor: str, ops) -> None:
    engine = engine_for(classifier, extractor)
    model = EagerModel()
    classified = engine.stats.classified
    now = 0.0
    for kind, flow, size, step in ops:
        now += step
        if kind == "packet":
            sent = packet(flow, size, now)
            engine.process_packet(sent)
            model.on_packet(flow, bytes(sent.payload), now)
        else:
            # The same flows expire at this flush, no earlier and no later.
            assert engine.flush_timeouts(now) == model.flush(now)
        assert [c.key.src_port for c in classified] == [
            port_of(f) for f, _ in model.classified
        ]
        assert engine.stats.unclassifiable == model.unclassifiable
    engine.finish(now)
    model.finish()
    engine.close()

    stats = engine.stats
    assert [c.key.src_port for c in classified] == [
        port_of(f) for f, _ in model.classified
    ]
    assert stats.unclassifiable == model.unclassifiable
    assert stats.cdb_hits == model.hits
    assert stats.packets == sum(kind == "packet" for kind, *_ in ops)
    assert [c.label for c in classified] == classifier.classify_buffers(
        [window for _, window in model.classified]
    )
    assert len(engine.wheel) == 0 and engine.table.pending_count == 0


#: One flow, kept alive across three flushes (re-armed at each), then
#: silent for exactly the timeout (not expired), then a tick longer.
REARMED_TWICE = [
    ("packet", 0, 4, 0.0),
    ("packet", 0, 4, 1.75),
    ("flush", 0, 0, 0.5),    # 2.25: armed 2.0 fired, last 1.75 -> re-arm 3.75
    ("packet", 0, 4, 1.0),   # 3.25
    ("flush", 0, 0, 1.0),    # 4.25: armed 3.75 fired, last 3.25 -> re-arm 5.25
    ("flush", 0, 0, 1.0),    # 5.25: last + timeout == now, not expired
    ("flush", 0, 0, 0.25),   # 5.5: expired
    ("packet", 0, 4, 0.0),
]


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
class TestArmOnceEqualsEager:
    @example(ops=REARMED_TWICE)
    @given(ops=interleavings)
    def test_same_expiries_order_and_labels(self, trained_cart, extractor, ops):
        run_both(trained_cart, extractor, ops)

    def test_rearmed_flow_expires_on_the_strict_boundary(
        self, trained_cart, extractor
    ):
        engine = engine_for(trained_cart, extractor)
        now = 0.0
        flushed = []
        for kind, flow, size, step in REARMED_TWICE[:-1]:
            now += step
            if kind == "packet":
                engine.process_packet(packet(flow, size, now))
            else:
                flushed.append(engine.flush_timeouts(now))
        assert flushed == [0, 0, 0, 1]
        assert engine.stats.classified[0].buffered_bytes == 12

    def test_backwards_timestamp_expires_by_the_armed_deadline(
        self, trained_cart, extractor
    ):
        """``process_source`` promises a nondecreasing clock; captures
        do not always keep the promise. A packet stamped *before* its
        flow's previous one leaves the armed deadline (10 + 2) later than
        the true one (9 + 2): the flow expires at the first flush past
        the armed deadline — not at 11.5, where an eager reschedule would
        have caught it — and no packet is lost.
        """
        engine = engine_for(trained_cart, extractor)
        engine.process_packet(packet(0, 8, 10.0))
        engine.process_packet(packet(0, 8, 9.0))
        assert engine.flush_timeouts(11.5) == 0
        assert engine.flush_timeouts(12.0) == 0  # strict
        assert engine.flush_timeouts(12.25) == 1
        outcome = engine.stats.classified[0]
        assert outcome.buffered_bytes == 16
        assert engine.stats.packets == 2
        assert engine.table.pending_count == 0 and len(engine.wheel) == 0
        # Conservation: the flow's next packet is forwarded on its label.
        assert engine.process_packet(packet(0, 8, 12.5)) is outcome.label
        assert engine.stats.cdb_hits == 1
