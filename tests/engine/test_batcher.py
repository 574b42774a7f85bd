"""Tests for the micro-batcher (size / latency drain triggers)."""

import pytest

from repro.engine.batcher import MicroBatcher
from repro.engine.types import PendingFlow
from repro.net.flow import FlowKey


def _ready(i: int) -> PendingFlow:
    """A flow as the pipeline queues it: its window frozen on the record."""
    return PendingFlow(
        key=FlowKey("10.0.0.1", 1000 + i, "10.0.0.2", 80, 6),
        flow_id=bytes([i]) * 13,
        window=b"x" * 32,
    )


class TestSizeTrigger:
    def test_push_returns_batch_when_full(self):
        batcher = MicroBatcher(max_batch=3, max_delay=10.0)
        assert batcher.push(_ready(1), 0.0) is None
        assert batcher.push(_ready(2), 0.1) is None
        batch = batcher.push(_ready(3), 0.2)
        assert [r.flow_id for r in batch] == [b.flow_id for b in map(_ready, (1, 2, 3))]
        assert len(batcher) == 0

    def test_max_batch_1_never_queues(self):
        batcher = MicroBatcher(max_batch=1, max_delay=0.0)
        batch = batcher.push(_ready(1), 5.0)
        assert len(batch) == 1
        assert not batcher.due(5.0)  # nothing left waiting

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError, match="max_delay"):
            MicroBatcher(max_delay=-1.0)


class TestDelayTrigger:
    def test_due_measures_from_oldest(self):
        batcher = MicroBatcher(max_batch=100, max_delay=0.5)
        batcher.push(_ready(1), 10.0)
        batcher.push(_ready(2), 10.4)
        assert not batcher.due(10.45)
        assert batcher.due(10.5)  # 0.5s after the OLDEST enqueue

    def test_idle_batcher_never_due(self):
        batcher = MicroBatcher(max_batch=4, max_delay=0.0)
        assert not batcher.due(1e9)

    def test_drain_resets_delay_clock(self):
        batcher = MicroBatcher(max_batch=100, max_delay=1.0)
        batcher.push(_ready(1), 0.0)
        assert [r.flow_id for r in batcher.drain()] == [_ready(1).flow_id]
        assert not batcher.due(100.0)
        batcher.push(_ready(2), 100.0)
        assert not batcher.due(100.5)
        assert batcher.due(101.0)


class TestDrain:
    def test_drain_empties_queue_in_fifo_order(self):
        batcher = MicroBatcher(max_batch=10, max_delay=1.0)
        for i in range(4):
            batcher.push(_ready(i), float(i))
        batch = batcher.drain()
        assert [r.flow_id for r in batch] == [_ready(i).flow_id for i in range(4)]
        assert batcher.drain() == []
