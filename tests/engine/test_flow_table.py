"""Tests for the flow table (one CDB + the pending buffers beside it)."""

import hashlib

import pytest

from repro.core.cdb import ClassificationDatabase
from repro.core.labels import ENCRYPTED, TEXT
from repro.engine.flow_table import FlowTable
from repro.engine.types import PendingFlow
from repro.net.flow import FlowKey


def _fid(i: int) -> bytes:
    return hashlib.sha1(i.to_bytes(4, "big")).digest()


def _key(i: int) -> FlowKey:
    return FlowKey(src="10.0.0.1", src_port=1000 + i, dst="10.0.0.2",
                   dst_port=80, protocol=17)


class TestCdbSurface:
    def test_insert_lookup_remove_roundtrip(self):
        table = FlowTable()
        table.insert(_fid(1), ENCRYPTED, now=1.0)
        assert _fid(1) in table
        assert table.lookup(_fid(1)) is ENCRYPTED
        assert table.record_of(_fid(1)).label is ENCRYPTED
        assert table.remove(_fid(1))
        assert table.lookup(_fid(1)) is None
        assert not table.remove(_fid(1))

    def test_removal_counters_by_exit_path(self):
        table = FlowTable(purge_trigger_flows=0)
        for i in range(30):
            table.insert(_fid(i), TEXT, now=0.0)
        for i in range(10):
            table.remove(_fid(i), reason="fin")
        for i in range(10, 15):
            table.remove(_fid(i), reason="reclassified")
        table.touch(_fid(15), now=100.0)
        assert table.purge_inactive(now=100.0) == 14
        assert table.total_inserted == 30
        assert table.removal_counts == {
            "fin": 10, "inactive": 14, "reclassified": 5
        }
        assert len(table) == 1
        assert table.size_bits == 194
        assert table.size_bytes == 194 / 8.0

    def test_touch_updates_the_record(self):
        table = FlowTable()
        table.insert(_fid(3), TEXT, now=10.0)
        table.touch(_fid(3), now=10.25)
        assert table.record_of(_fid(3)).last_inter_arrival == pytest.approx(0.25)

    def test_a_held_record_of_sees_every_write(self):
        # The pipeline binds ``table.record_of`` once and probes with it
        # on every packet: it must be a live view, not a snapshot.
        table = FlowTable(purge_trigger_flows=0)
        probe = table.record_of
        assert probe(_fid(1)) is None
        table.insert(_fid(1), TEXT, now=0.0)
        assert probe(_fid(1)).label is TEXT
        table.remove(_fid(1), reason="fin")
        assert probe(_fid(1)) is None
        table.insert(_fid(1), ENCRYPTED, now=1.0)
        table.remove(_fid(1), reason="reclassified")
        assert probe(_fid(1)) is None
        table.insert(_fid(1), ENCRYPTED, now=2.0)
        assert table.purge_inactive(now=100.0) == 1
        assert probe(_fid(1)) is None


class TestGlobalPurgeTrigger:
    def test_sweep_matches_single_cdb(self):
        """The table sweeps exactly when a bare CDB would."""
        table = FlowTable(purge_trigger_flows=25)
        single = ClassificationDatabase(purge_trigger_flows=25)
        for i in range(120):
            now = float(i)
            table.insert(_fid(i), TEXT, now=now)
            single.insert(_fid(i), TEXT, now=now)
            assert len(table) == len(single)
        assert table.total_removed_inactive == single.total_removed_inactive
        assert table.total_removed_inactive > 0

    def test_sweep_fires_at_the_trigger_and_not_before(self):
        table = FlowTable(purge_trigger_flows=25)
        for i in range(24):
            table.insert(_fid(i), TEXT, now=float(i))
        assert table.total_removed_inactive == 0
        assert len(table) == 24
        table.insert(_fid(24), TEXT, now=24.0)
        assert table.total_removed_inactive > 0

    def test_no_trigger_never_sweeps(self):
        table = FlowTable(purge_trigger_flows=0)
        for i in range(100):
            table.insert(_fid(i), TEXT, now=float(i))
        # No trigger: stale records stay until an explicit sweep.
        assert len(table) == 100
        assert table.purge_inactive(now=1000.0) == 100


class TestPending:
    def test_pending_items_in_first_arrival_order(self):
        table = FlowTable()
        for i in range(20):
            table.pending[_fid(i)] = PendingFlow(key=_key(i), seq=i)
        # A flow that was classified and came back queues behind the rest.
        del table.pending[_fid(3)]
        table.pending[_fid(3)] = PendingFlow(key=_key(3), seq=20)
        items = table.pending_items()
        assert [p.seq for _, p in items] == sorted(p.seq for _, p in items)
        assert [p.key for _, p in items] == [
            _key(i) for i in range(20) if i != 3
        ] + [_key(3)]
        assert table.pending_count == 20

    def test_pending_is_separate_from_the_cdb(self):
        table = FlowTable()
        table.pending[_fid(1)] = PendingFlow(key=_key(1))
        assert len(table) == 0 and _fid(1) not in table
        assert table.pending_count == 1
        items = table.pending_items()
        table.pending.clear()
        assert [flow_id for flow_id, _ in items] == [_fid(1)]
