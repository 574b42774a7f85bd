"""Property tests: no label or counter depends on when the batcher drains.

A ready flow is stamped when it becomes ready — its outcome's time, its
CDB record's first arrival and lambda, the time of the inactivity sweep
its insert may fire — and a packet that arrives while it waits in the
batcher is the CDB hit it would be had the batch drained at once. So a
run's outcomes, every ``EngineStats`` counter and the CDB size series
equal those of the ``max_batch=1`` run under any drain schedule.

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


def run(classifier, extractor: str, reclassify: float, max_batch: int):
    """Everything a run concludes, keyed for comparison."""
    engine = open_engine(
        classifier,
        EngineConfig(
            max_batch=max_batch,
            extractor=extractor,
            pipeline=IustitiaConfig(
                buffer_size=32,
                buffer_timeout=0.5,
                strip_known_headers=False,
                random_skip_max=4 if extractor == "batch" else 0,
                reclassify_interval=reclassify,
                purge_trigger_flows=12,
                purge_coefficient=1.0,
            ),
        ),
        rng=np.random.default_rng(7),
    )
    stats = engine.process_source(TRACE, sample_interval=1.0)
    engine.close()
    table = engine.table
    drains = engine.metrics.snapshot()["batcher_drains_total"]
    return {
        "labels": Counter((outcome.key, outcome.label) for outcome in stats.classified),
        "outcomes": list(stats.classified),
        "counters": (
            stats.packets, stats.data_packets, stats.cdb_hits,
            stats.classifications, stats.unclassifiable, stats.fin_removals,
            stats.reclassifications, stats.dispatch_errors, dict(stats.per_class),
        ),
        "cdb_size_series": list(stats.cdb_size_series),
        "table": (len(table), table.total_inserted, table.removal_counts),
        "drains": {key: value for key, value in drains.items() if value},
    }


@functools.cache
def reference(classifier, extractor: str, reclassify: float) -> dict:
    """The ``max_batch=1`` run: every flow classified the instant it is ready."""
    return run(classifier, extractor, reclassify, max_batch=1)


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_the_trace_sweeps_relabels_and_reclassifies_mid_flow(trained_cart, extractor):
    plain = reference(trained_cart, extractor, 0.0)
    defended = reference(trained_cart, extractor, 0.3)
    removals = plain["table"][2]
    assert removals["inactive"] > 0 and removals["fin"] > 0
    # Swept while still sending: the flow buffered again, labelled again.
    relabelled = Counter(key for key, _label in plain["labels"].elements())
    assert max(relabelled.values()) > 1
    unclassifiable, reclassified = plain["counters"][4], defended["counters"][6]
    assert unclassifiable > 0 and reclassified > 0


@pytest.mark.parametrize("extractor", ["batch", "incremental"])
def test_batched_runs_drain_in_more_ways_than_one(trained_cart, extractor, monkeypatch):
    """The schedules differ: the property below is not vacuous."""
    monkeypatch.setattr(batcher, "clock", JumpyClock(seed=1, p_jump=0.3))
    drains = run(trained_cart, extractor, 0.0, max_batch=8)["drains"]
    assert {'reason="size"', 'reason="wait"', 'reason="purge"'} <= set(drains)


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
        batched = run(trained_cart, extractor, reclassify, max_batch)
    synchronous = reference(trained_cart, extractor, reclassify)
    for part in ("labels", "outcomes", "counters", "cdb_size_series", "table"):
        assert batched[part] == synchronous[part], part
