"""Tests for the micro-batcher (size / wait / purge drain triggers)."""

import pytest

from repro.engine import batcher as batching
from repro.engine.batcher import DRAIN_WAIT_COSTS, MicroBatcher
from repro.engine.types import PendingFlow
from repro.net.flow import FlowKey
from repro.obs.metrics import MetricsRegistry


def _ready(i: int) -> PendingFlow:
    """A flow as the pipeline queues it: its window frozen on the record."""
    flow = PendingFlow(
        FlowKey("10.0.0.1", 1000 + i, "10.0.0.2", 80, 6), flow_id=bytes([i]) * 13
    )
    flow.window = b"x" * 32
    return flow


class ManualClock:
    """A wall clock that moves only when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def wall(monkeypatch) -> ManualClock:
    clock = ManualClock()
    monkeypatch.setattr(batching, "clock", clock)
    return clock


def _drains(registry) -> dict:
    return {
        key: value
        for key, value in registry.snapshot()["batcher_drains_total"].items()
        if value
    }


class TestSizeTrigger:
    def test_push_returns_batch_when_full(self, wall):
        batcher = MicroBatcher(max_batch=3)
        assert batcher.push(_ready(1)) is None
        assert batcher.push(_ready(2)) is None
        batch = batcher.push(_ready(3))
        assert [r.flow_id for r in batch] == [b.flow_id for b in map(_ready, (1, 2, 3))]
        assert len(batcher) == 0

    def test_max_batch_1_never_queues(self, wall):
        batcher = MicroBatcher(max_batch=1)
        batch = batcher.push(_ready(1))
        assert len(batch) == 1
        assert batcher.drain_at is None  # nothing left waiting

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)


class TestWaitRule:
    def test_wait_is_drain_costs_from_the_oldest_push(self, wall):
        batcher = MicroBatcher(max_batch=100)
        batcher.record_drain_cost(0.001)
        assert batcher.max_wait == pytest.approx(DRAIN_WAIT_COSTS * 0.001)
        wall.now = 10.0
        batcher.push(_ready(1))
        wall.now = 10.005
        batcher.push(_ready(2))
        # Measured from the OLDEST push; later pushes do not move it.
        assert batcher.drain_at == pytest.approx(10.0 + DRAIN_WAIT_COSTS * 0.001)

    def test_idle_batcher_has_no_deadline(self, wall):
        batcher = MicroBatcher(max_batch=4)
        assert batcher.drain_at is None
        batcher.record_drain_cost(1.0)
        assert batcher.drain_at is None

    def test_before_any_drain_the_wait_is_zero(self, wall):
        batcher = MicroBatcher(max_batch=4)
        wall.now = 3.0
        batcher.push(_ready(1))
        assert batcher.drain_at == 3.0

    def test_drain_resets_the_deadline(self, wall):
        batcher = MicroBatcher(max_batch=100)
        batcher.push(_ready(1))
        assert [r.flow_id for r in batcher.drain()] == [_ready(1).flow_id]
        assert batcher.drain_at is None
        batcher.record_drain_cost(0.5)
        wall.now = 100.0
        batcher.push(_ready(2))
        assert batcher.drain_at == 100.0 + DRAIN_WAIT_COSTS * 0.5


class TestPurgeTrigger:
    def test_drains_when_the_queue_holds_the_sweeping_insert(self, wall):
        batcher = MicroBatcher(max_batch=100)
        registry = MetricsRegistry()
        batcher.bind_metrics(registry)
        assert batcher.push(_ready(1), purge_at=3) is None
        assert batcher.push(_ready(2), purge_at=3) is None
        batch = batcher.push(_ready(3), purge_at=3)
        assert [r.flow_id for r in batch] == [_ready(i).flow_id for i in (1, 2, 3)]
        assert _drains(registry) == {'reason="purge"': 1}

    def test_no_sweep_due_never_drains(self, wall):
        batcher = MicroBatcher(max_batch=100)
        for i in range(5):
            assert batcher.push(_ready(i), purge_at=0) is None
        assert len(batcher) == 5


class TestDrain:
    def test_drain_empties_queue_in_fifo_order(self, wall):
        batcher = MicroBatcher(max_batch=10)
        for i in range(4):
            batcher.push(_ready(i))
        batch = batcher.drain()
        assert [r.flow_id for r in batch] == [_ready(i).flow_id for i in range(4)]
        assert batcher.drain() == []

    def test_unknown_reason_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            MicroBatcher().drain(reason="delay")
