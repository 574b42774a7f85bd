"""Structural guard on the classify drain.

A drain is supposed to do each thing once: one pooled sort serves the
feature matrix *and* every flow's state bytes — on either extractor,
whether its windows are all full or each a different length, the first
drain included — every flow hands ``fold_batch`` one chunk however many
packets it arrived in, and the instruments are touched per drain, not
per flow. Counted with ``sys.setprofile`` (the
``test_packet_path_guard.py`` pattern), so the tests cannot flake and
fail the day per-flow work comes back; the golden instrument values are
the parents' (see below), and the re-segmentation property holds the
pending buffer to "what a flow sent", not "how it was cut".
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace
from tests.engine.test_packet_path_guard import frames_entered, udp_packet


def incremental_engine(classifier, extractor="incremental", **knobs):
    return open_engine(
        classifier,
        EngineConfig(
            extractor=extractor,
            pipeline=IustitiaConfig(strip_known_headers=False),
            **knobs,
        ),
    )


# -- (a) frames of one drain ------------------------------------------------------


def drain_frames(classifier, flows: int) -> "tuple[Counter, list]":
    """Frames of one telemetry-on drain of ``flows`` four-packet flows, scraped.

    Returns them with the per-flow chunk lists ``fold_batch`` was handed.
    """
    engine = incremental_engine(classifier, max_batch=flows)
    handed = []
    fold_batch = engine.extractor.fold_batch

    def recording_fold_batch(states, payloads):
        handed.extend(payloads)
        return fold_batch(states, payloads)

    engine.extractor.fold_batch = recording_fold_batch

    def packets(first_flow: int, start: float):
        # Round-robin, so every flow's window is four deferred segments.
        return [
            udp_packet(
                first_flow + flow,
                bytes(range(8 * part + flow, 8 * part + flow + 8)),
                start + (part * flows + flow) * 1e-5,
            )
            for part in range(4)
            for flow in range(flows)
        ]

    for packet in packets(0, 0.0):  # warm: the first drain pays every one-off
        engine.process_packet(packet)
    assert engine.stats.classifications == flows
    handed.clear()
    measured = packets(1000, 0.1)

    def drain_and_scrape():
        for packet in measured:
            engine.process_packet(packet)
        engine.metrics.snapshot()

    entered = frames_entered(drain_and_scrape)
    assert engine.stats.classifications == 2 * flows
    engine.close()
    return entered, handed


def test_a_drain_sorts_once_and_observes_per_drain(trained_cart, still_clock):
    entered, handed = drain_frames(trained_cart, 32)

    # One sort for features and state accounting, on one layout.
    assert entered["pooled_kgram_runs"] == 1
    assert entered["PooledLayout.__init__"] <= 1
    assert entered["IncrementalEntropyExtractor.fold_batch"] == 1
    # Folding appends bytes; grams are packed once, in the window kernel.
    assert entered["packed_kgram_keys"] == 0
    # One chunk per flow: its whole 32-byte window, not its four segments.
    assert len(handed) == 32
    assert all(len(chunks) == 1 and len(chunks[0]) == 32 for chunks in handed)
    # Drain size, fold size, two timers: nothing that grows with the flows.
    small, _ = drain_frames(trained_cart, 16)
    assert entered["Histogram.observe"] == small["Histogram.observe"] <= 4
    assert entered["Histogram.observe_many"] == small["Histogram.observe_many"] == 2


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_a_drain_of_uneven_timeout_windows_sorts_once(
    trained_cart, extractor, still_clock
):
    """32 flows gone silent at 5-36 bytes: one drain, one pool, one sort."""
    engine = incremental_engine(
        trained_cart, extractor, max_batch=32, buffer_timeout=0.5
    )

    def silent_flows(first_flow: int, start: float):
        return [
            udp_packet(first_flow + flow, bytes(range(flow, flow + 5 + flow)), start)
            for flow in range(32)
        ]

    for packet in silent_flows(0, 0.0):  # warm: the first drain pays every one-off
        engine.process_packet(packet)
    assert engine.flush_timeouts(1.0) == 27  # 5 of the 32 filled their window
    assert engine.stats.classifications == 32
    for packet in silent_flows(1000, 2.0):
        engine.process_packet(packet)
    assert engine.stats.classifications == 32

    entered = frames_entered(engine.flush_timeouts, 3.0)
    assert engine.stats.classifications == 64
    engine.close()
    assert entered["StagedEngine.classify_labels"] == 1
    assert entered["pooled_kgram_runs"] == 1
    assert entered["PooledLayout.__init__"] == 1
    assert entered["_gram_words"] == 1
    assert entered["packed_kgram_keys"] == 0


def test_the_batch_extractors_first_drain_sorts_once(trained_cart, still_clock):
    """No flow's state bytes cost a second kernel pass, the first flow's included."""
    engine = incremental_engine(trained_cart, "batch", max_batch=8)
    packets = [
        udp_packet(flow, bytes(range(flow, flow + 32)), flow * 1e-5)
        for flow in range(8)
    ]

    def feed():
        for packet in packets:
            engine.process_packet(packet)

    entered = frames_entered(feed)
    assert engine.stats.classifications == 8
    assert entered["StagedEngine.classify_labels"] == 1
    assert entered["pooled_kgram_runs"] == 1
    state = engine.metrics.snapshot()["engine_flow_state_bytes"]
    assert state["count"] == 8


# -- (b) instruments against the parents' values ----------------------------------
#
# Incremental state bytes were recorded at 1b69f48; batch state bytes are
# ``flow_state_bytes`` of every window at db0a52e. Delay, CDB hits and
# folds are what a ``max_batch=1`` run of 6dd33d4 reads: flows are stamped
# at readiness, so no drain schedule moves them. The fold-drain count is
# that of a stopped wall clock.

DELAY = {
    "count": 600,
    "sum": 17.134478670967113,
    "buckets": {
        "0.001": 501, "0.005": 514, "0.01": 522, "0.05": 559, "0.1": 571,
        "0.25": 581, "0.5": 584, "1.0": 597, "2.5": 600, "5.0": 600,
        "10.0": 600, "30.0": 600, "+Inf": 600,
    },
}

GOLDEN = {
    # Every flow charged: what ``flow_state_bytes`` of each of the 600
    # windows reads at db0a52e, which sampled flows 0 and 512 only.
    "batch": {
        "state": {
            "count": 600,
            "sum": 151319.0,
            "buckets": {
                "64.0": 0, "128.0": 5, "192.0": 19, "256.0": 235, "384.0": 600,
                "512.0": 600, "1024.0": 600, "2048.0": 600, "5120.0": 600,
                "8192.0": 600, "+Inf": 600,
            },
        },
        "folds": 686.0,
        "fold_batch_chunks": None,
    },
    "incremental": {
        "state": {
            "count": 600,
            "sum": 134830.0,
            "buckets": {
                "64.0": 0, "128.0": 8, "192.0": 104, "256.0": 478, "384.0": 600,
                "512.0": 600, "1024.0": 600, "2048.0": 600, "5120.0": 600,
                "8192.0": 600, "+Inf": 600,
            },
        },
        "folds": 686.0,
        "fold_batch_chunks": {"count": 130, "sum": 686.0},
    },
}


@pytest.fixture(scope="module")
def seeded_trace():
    return generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=600, duration=10.0, seed=2009, app_header_probability=0.0,
            min_content=8, max_content=600,
        )
    )


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_instruments_equal_the_parents(
    trained_cart, seeded_trace, extractor, still_clock
):
    engine = incremental_engine(
        trained_cart, extractor, max_batch=32, buffer_timeout=0.5
    )
    stats = engine.process_source(seeded_trace.packets)
    engine.close()
    snap = engine.metrics.snapshot()
    golden = GOLDEN[extractor]

    concluded = (stats.classifications, stats.unclassifiable, stats.cdb_hits)
    assert concluded == (600, 0, 672)
    state = snap["engine_flow_state_bytes"]
    assert {key: state[key] for key in golden["state"]} == golden["state"]
    assert type(state["sum"]) is float
    delay = snap["engine_classification_delay_seconds"]
    assert delay["count"] == DELAY["count"] and delay["buckets"] == DELAY["buckets"]
    assert delay["sum"] == pytest.approx(DELAY["sum"], abs=1e-9)
    folds = snap["extractor_folds_total"]
    assert folds == {f'extractor="{extractor}"': golden["folds"]}
    chunks = snap.get("fold_batch_chunks")
    if golden["fold_batch_chunks"] is None:
        assert chunks is None
    else:
        counted = {key: chunks[key] for key in ("count", "sum")}
        assert counted == golden["fold_batch_chunks"]


# -- (d) what a flow sent, not how it was cut -------------------------------------


@st.composite
def segmented_streams(draw):
    """Per-flow ``(stream, segments)``: the same bytes, cut some way."""
    streams = draw(st.lists(st.binary(max_size=72), min_size=1, max_size=6))
    flows = []
    for stream in streams:
        how = draw(st.sampled_from(["whole", "tiny", "cuts"]))
        if how == "whole":
            bounds = [0, len(stream)]
        elif how == "tiny":
            sizes = draw(
                st.lists(st.integers(1, 8), min_size=len(stream), max_size=len(stream))
            )
            bounds = [0]
            for size in sizes:
                if bounds[-1] >= len(stream):
                    break
                bounds.append(min(bounds[-1] + size, len(stream)))
            if len(bounds) == 1:  # an empty stream is still one packet
                bounds.append(0)
        else:
            # Repeated cut points make empty segments.
            cuts = draw(st.lists(st.integers(0, len(stream)), max_size=8))
            bounds = [0] + sorted(cuts) + [len(stream)]
        segments = [stream[a:b] for a, b in zip(bounds, bounds[1:])]
        as_views = draw(
            st.lists(st.booleans(), min_size=len(segments), max_size=len(segments))
        )
        flows.append(
            (stream, [memoryview(s) if v else s for s, v in zip(segments, as_views)])
        )
    return flows


def run_segmented(classifier, per_flow_segments, max_batch: int, extractor: str):
    """Feed every flow's segments round-robin; what the run concluded."""
    engine = incremental_engine(classifier, extractor, max_batch=max_batch)
    queues = [list(segments) for segments in per_flow_segments]
    clock = 0.0
    while any(queues):
        for flow, queue in enumerate(queues):
            if queue:
                clock += 1e-5
                ip = Ipv4Header(src=f"10.9.0.{flow}", dst="192.168.0.1", protocol=17)
                packet = Packet(ip, UdpHeader(4000, 53), queue.pop(0), clock)
                engine.process_packet(packet)
    engine.finish(clock)
    engine.close()
    stats = engine.stats
    state = engine.metrics.snapshot()["engine_flow_state_bytes"]
    return (
        {outcome.key.src: outcome.label for outcome in stats.classified},
        (stats.classifications, stats.unclassifiable, dict(stats.per_class)),
        (state["count"], state["sum"], state["buckets"]),
    )


@settings(deadline=None)  # examples: the profile's (100, ci 1,000)
@given(
    flows=segmented_streams(),
    max_batch=st.sampled_from([1, 3, 64]),
    extractor=st.sampled_from(["batch", "incremental"]),
)
def test_resegmenting_a_flow_changes_nothing_concluded(
    trained_cart, flows, max_batch, extractor
):
    whole = [[stream] for stream, _ in flows]
    cut = [segments for _, segments in flows]
    assert run_segmented(trained_cart, cut, max_batch, extractor) == run_segmented(
        trained_cart, whole, max_batch, extractor
    )
