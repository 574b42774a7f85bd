"""Tests for the deadline wheel (O(expired) timeout flushing)."""

from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine.deadlines import DeadlineWheel
from repro.engine.engine import StagedEngine
from repro.net.packet import Ipv4Header, Packet, UdpHeader


def _fid(i: int) -> bytes:
    return bytes([i]) * 20


class TestScheduling:
    def test_expired_pops_in_deadline_order(self):
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 5.0)
        wheel.schedule(_fid(2), 3.0)
        wheel.schedule(_fid(3), 9.0)
        assert wheel.pop_expired(6.0) == [_fid(2), _fid(1)]
        assert len(wheel) == 1
        assert _fid(3) in wheel

    def test_boundary_is_strict(self):
        # The paper's condition is now - t_last > timeout: a flow whose
        # inactivity EQUALS the timeout must not expire.
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 10.0)
        assert wheel.pop_expired(10.0) == []
        assert wheel.pop_expired(10.000001) == [_fid(1)]

    def test_reschedule_supersedes_old_deadline(self):
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 2.0)
        wheel.schedule(_fid(1), 8.0)  # new packet arrived: deadline moves
        assert wheel.pop_expired(5.0) == []
        assert wheel.deadline_of(_fid(1)) == 8.0
        assert wheel.pop_expired(9.0) == [_fid(1)]

    def test_cancel_removes_flow(self):
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 2.0)
        wheel.cancel(_fid(1))
        assert wheel.pop_expired(100.0) == []
        assert len(wheel) == 0

    def test_cancel_unknown_is_noop(self):
        wheel = DeadlineWheel()
        wheel.cancel(_fid(9))
        assert len(wheel) == 0

    def test_popped_flow_is_unscheduled(self):
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 1.0)
        assert wheel.pop_expired(2.0) == [_fid(1)]
        assert wheel.pop_expired(2.0) == []
        assert _fid(1) not in wheel


class TestEdgeCases:
    def test_stale_rearm_after_cancel_fires_once_at_new_deadline(self):
        # Reclassification re-arms a flow that was cancelled (classified)
        # earlier: the lazily-abandoned heap entry from the first life
        # must not make the flow expire at the OLD deadline, and the new
        # deadline must fire exactly once.
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 5.0)
        wheel.cancel(_fid(1))          # flow classified; leaves heap entry
        wheel.schedule(_fid(1), 8.0)   # reclassify window re-buffers it
        assert wheel.pop_expired(6.0) == []      # stale 5.0 entry discarded
        assert _fid(1) in wheel
        assert wheel.deadline_of(_fid(1)) == 8.0
        assert wheel.pop_expired(9.0) == [_fid(1)]
        assert wheel.pop_expired(9.0) == []      # fired once, not twice

    def test_duplicate_deadlines_pop_in_schedule_order(self):
        # Several flows arming at the same timestamp (one classify tick
        # touching a whole batch) share a deadline; ties must resolve by
        # schedule order, not flow-id bytes, so flush order stays stable.
        wheel = DeadlineWheel()
        order = [7, 3, 9, 1, 5]
        for i in order:
            wheel.schedule(_fid(i), 4.0)
        assert wheel.pop_expired(4.5) == [_fid(i) for i in order]

    def test_rearm_at_identical_deadline_keeps_position_fires_once(self):
        # Staleness is detected by deadline VALUE, so re-arming a flow at
        # its unchanged deadline keeps the original tie-break position —
        # and the duplicate heap entry must not make it fire twice.
        wheel = DeadlineWheel()
        wheel.schedule(_fid(1), 4.0)
        wheel.schedule(_fid(2), 4.0)
        wheel.schedule(_fid(1), 4.0)  # re-arm at the SAME deadline
        assert wheel.pop_expired(4.5) == [_fid(1), _fid(2)]
        assert wheel.pop_expired(4.5) == []
        assert len(wheel) == 0


class TestFlushOrdering:
    """Engine-level: flows expiring the same tick flush in arrival order.

    The wheel pops expired flows in deadline order; the runtime must put
    them back into first-arrival (seq) order before classification,
    matching the spec's flush (``tests/spec.py``).
    """

    def _packet(self, payload, timestamp, sport):
        return Packet(
            ip=Ipv4Header(src="10.1.1.1", dst="10.2.2.2", protocol=17),
            transport=UdpHeader(src_port=sport, dst_port=80),
            payload=payload,
            timestamp=timestamp,
        )

    def test_same_tick_expiry_classifies_in_seq_order(self, trained_svm):
        """Flows expiring in one flush classify in first-arrival order.

        Asserted on ``stats.classified``. ``wheel.deadline_of`` is no
        proxy for the true deadline any more: it reports the *armed*
        deadline — set when the flow was created, moved only when a
        flush finds the flow still active — so the test uses a flush to
        put the armed deadlines in reverse arrival order first.
        """
        engine = StagedEngine(
            trained_svm,
            EngineConfig(
                max_batch=64,
                pipeline=IustitiaConfig(buffer_size=32, buffer_timeout=5.0),
            ),
        )
        sports = [1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008]
        for i, sport in enumerate(sports):
            # 24 bytes over two packets < buffer_size keeps every flow
            # pending (buffering).
            engine.process_packet(
                self._packet(b"the quick br", 0.0 + i * 0.001, sport)
            )
        for i, sport in enumerate(reversed(sports)):
            # Second packets in reverse: the last flow to arrive goes
            # silent first.
            engine.process_packet(
                self._packet(b"own fox 0124", 4.0 + i * 0.001, sport)
            )
        # Every armed deadline (5.0 ...) has passed, no flow has been
        # silent for 5 s: all are re-armed at last arrival + timeout.
        assert engine.flush_timeouts(now=6.0) == 0
        deadlines = [
            engine.wheel.deadline_of(flow_id)
            for flow_id, _pending in engine.table.pending_items()
        ]
        assert deadlines == sorted(deadlines, reverse=True)
        assert deadlines[-1] == 4.0 + 5.0
        expired = engine.flush_timeouts(now=50.0)
        assert expired == len(sports)
        classified_ports = [c.key.src_port for c in engine.stats.classified]
        assert classified_ports == sports


class TestLazyCompaction:
    def test_many_reschedules_stay_bounded(self):
        wheel = DeadlineWheel()
        for round_ in range(100):
            for i in range(10):
                wheel.schedule(_fid(i), float(round_))
        # Compaction keeps the heap within 2x the live flow count.
        assert len(wheel._heap) <= 2 * len(wheel) + 1
        assert len(wheel) == 10
        assert sorted(wheel.pop_expired(1000.0)) == sorted(_fid(i) for i in range(10))

    def test_order_survives_compaction(self):
        wheel = DeadlineWheel()
        for i in range(20):
            for d in (50.0, 40.0, float(i)):
                wheel.schedule(_fid(i), d)
        popped = wheel.pop_expired(15.0)
        assert popped == [_fid(i) for i in range(15)]
