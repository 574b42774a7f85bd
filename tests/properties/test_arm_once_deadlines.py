"""Property tests: arm-once buffer deadlines against the spec's eager timeouts.

The pipeline arms a flow's buffer-timeout deadline when the flow is
created and, when that deadline fires, compares ``last_arrival +
buffer_timeout < now`` — expired, or re-armed at that true deadline.
The spec (``tests/spec.py``) looks at every pending flow at every flush,
as an eagerly rescheduled deadline would. Under any interleaving of
packets and flushes on a nondecreasing clock the two must expire the
same flows at the same flush, classify them in the same (first-arrival)
order, drop the same flows as unclassifiable and conclude alike.

Clock steps are multiples of 0.25 s, so sums are exact and ``last +
timeout == now`` (not expired: the test is strict) comes up all the time.
"""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.net.packet import PROTO_UDP, Ipv4Header, Packet, UdpHeader

from tests.conftest import assert_concludes
from tests.spec import Figure1

TIMEOUT = 2.0
CONFIG = IustitiaConfig(
    buffer_size=32, buffer_timeout=TIMEOUT, strip_known_headers=False
)
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


def engine_for(classifier, extractor: str):
    # Synchronous: a ready flow classifies on the spot, so the order of
    # ``stats.classified`` is the order flows became ready.
    return open_engine(
        classifier,
        EngineConfig(max_batch=1, extractor=extractor, pipeline=CONFIG),
    )


def run_both(classifier, extractor: str, ops) -> None:
    engine = engine_for(classifier, extractor)
    model = Figure1(classifier, CONFIG)
    now = 0.0
    for kind, flow, size, step in ops:
        now += step
        if kind == "packet":
            sent = packet(flow, size, now)
            engine.process_packet(sent)
            model.packet(sent)
        else:
            # The same flows expire at this flush, no earlier and no later.
            assert engine.flush_timeouts(now) == model.flush(now)
        assert engine.stats.classified == model.classified
        assert engine.stats.unclassifiable == model.stats["unclassifiable"]
    engine.finish(now)
    model.flush(now, final=True)
    engine.close()
    assert_concludes(engine, model)
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
