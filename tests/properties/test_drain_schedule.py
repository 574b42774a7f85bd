"""Property tests: no label or counter depends on when the batcher drains.

A ready flow is stamped when it becomes ready — its outcome's time, its
CDB record's first arrival and lambda, the time of the inactivity sweep
its insert may fire — and a packet that arrives while it waits in the
batcher is the CDB hit it would be had the batch drained at once. So a
run's outcomes, every ``EngineStats`` counter, the CDB size series and
the CDB equal those of the spec (``tests/spec.py``, which classifies each
flow the instant it is ready) under any drain schedule, ``max_batch=1``
included.

The trace is TCP in 1-8 byte segments: flows that fill their window and
close, flows that keep sending after their label (hits, and pauses long
enough for the reclassification defense), and flows that go silent
short of a window (buffer timeouts; under 5 bytes, unclassifiable).
``purge_trigger_flows=12`` with ``purge_coefficient=1`` puts an
inactivity sweep every dozen labels, so sweeps land mid-flow and drop
records of flows that are still sending: those flows buffer again and
are labelled again. The drain schedule is a seeded wall clock that jumps
at random, so the wait rule fires at random packets, crossed with
``max_batch`` 1 / 8 / 32.
"""

import functools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine import batcher
from repro.net.packet import (
    FLAG_ACK,
    FLAG_FIN,
    PROTO_TCP,
    Ipv4Header,
    Packet,
    TcpHeader,
)

from tests.conftest import assert_concludes
from tests.spec import Figure1

FLOWS = 48


def fragmented_trace(seed: int = 2009) -> "list[Packet]":
    """Interleaved TCP flows in 1-8 B segments, in timestamp order."""
    rng = np.random.default_rng(seed)
    packets = []
    for flow in range(FLOWS):
        kind = rng.choice(["closes", "chatty", "silent"], p=[0.4, 0.3, 0.3])
        size = int(rng.integers(2, 24) if kind == "silent" else rng.integers(40, 161))
        content = rng.integers(0, 256 if flow % 3 else 96, size, dtype=np.uint8)
        now = float(rng.uniform(0.0, 2.0))
        pause_at = int(rng.integers(0, size)) if rng.random() < 0.4 else -1
        sent = 0
        while sent < size:
            segment = int(min(rng.integers(1, 9), size - sent))
            last = sent + segment == size
            flags = FLAG_ACK | (FLAG_FIN if last and kind == "closes" else 0)
            ip = Ipv4Header(src=f"10.7.0.{flow}", dst="192.168.0.1", protocol=PROTO_TCP)
            tcp = TcpHeader(4000 + flow, 443, flags=flags)
            payload = content[sent : sent + segment].tobytes()
            packets.append(Packet(ip, tcp, payload, now))
            if sent <= pause_at < sent + segment:
                now += float(rng.uniform(0.3, 0.8))
            sent += segment
            now += float(rng.exponential(0.03))
    packets.sort(key=lambda packet: packet.timestamp)
    return packets


TRACE = fragmented_trace()


class JumpyClock:
    """A wall clock that jumps a second ahead on a seeded coin flip."""

    def __init__(self, seed: int, p_jump: float) -> None:
        self._coin = random.Random(seed).random
        self._p_jump = p_jump
        self.now = 0.0

    def __call__(self) -> float:
        if self._coin() < self._p_jump:
            self.now += 1.0
        return self.now


def config(extractor: str, reclassify: float) -> IustitiaConfig:
    return IustitiaConfig(
        buffer_size=32,
        buffer_timeout=0.5,
        strip_known_headers=False,
        random_skip_max=4 if extractor == "batch" else 0,
        reclassify_interval=reclassify,
        purge_trigger_flows=12,
        purge_coefficient=1.0,
    )


def run(classifier, extractor: str, reclassify: float, max_batch: int):
    """An engine that ran the trace under the batcher's current clock."""
    engine = open_engine(
        classifier,
        EngineConfig(
            max_batch=max_batch,
            extractor=extractor,
            pipeline=config(extractor, reclassify),
        ),
        rng=np.random.default_rng(7),
    )
    engine.process_source(TRACE, sample_interval=1.0)
    engine.close()
    return engine


@functools.cache
def reference(classifier, extractor: str, reclassify: float) -> Figure1:
    """The spec's run: every flow classified the instant it is ready."""
    model = Figure1(classifier, config(extractor, reclassify), np.random.default_rng(7))
    return model.run(TRACE, sample_interval=1.0)


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_the_trace_sweeps_relabels_and_reclassifies_mid_flow(trained_cart, extractor):
    plain = reference(trained_cart, extractor, 0.0)
    defended = reference(trained_cart, extractor, 0.3)
    assert plain.removed["inactive"] > 0 and plain.removed["fin"] > 0
    # Swept while still sending: the flow buffered again, labelled again.
    relabelled = Counter(outcome[0] for outcome in plain.classified)
    assert max(relabelled.values()) > 1
    assert plain.stats["unclassifiable"] > 0 and defended.removed["reclassified"] > 0


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_batched_runs_drain_in_more_ways_than_one(trained_cart, extractor, monkeypatch):
    """The schedules differ: the property below is not vacuous."""
    monkeypatch.setattr(batcher, "clock", JumpyClock(seed=1, p_jump=0.3))
    engine = run(trained_cart, extractor, 0.0, max_batch=8)
    drains = engine.metrics.snapshot()["batcher_drains_total"]
    reasons = {reason for reason, count in drains.items() if count}
    assert {'reason="size"', 'reason="wait"', 'reason="purge"'} <= reasons


@given(
    extractor=st.sampled_from(["batch", "incremental"]),
    reclassify=st.sampled_from([0.0, 0.3]),
    max_batch=st.sampled_from([1, 8, 32]),
    seed=st.integers(0, 2**32 - 1),
    p_jump=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
)
def test_any_drain_schedule_concludes_what_max_batch_1_does(
    trained_cart, extractor, reclassify, max_batch, seed, p_jump
):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(batcher, "clock", JumpyClock(seed, p_jump))
        engine = run(trained_cart, extractor, reclassify, max_batch)
    assert_concludes(engine, reference(trained_cart, extractor, reclassify))
