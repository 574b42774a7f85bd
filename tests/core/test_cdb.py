"""Tests for the Classification Database and its purging policies."""

import hashlib

import pytest

from repro.core.cdb import (
    DEFAULT_LAMBDA,
    RECORD_BITS,
    CdbRecord,
    ClassificationDatabase,
)
from repro.core.labels import BINARY, ENCRYPTED, TEXT


def _fid(n: int) -> bytes:
    return hashlib.sha1(n.to_bytes(8, "big")).digest()


class TestBasicOperations:
    def test_insert_lookup(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=0.0)
        assert cdb.lookup(_fid(1)) is TEXT
        assert cdb.lookup(_fid(2)) is None
        assert _fid(1) in cdb
        assert len(cdb) == 1

    def test_insert_requires_nonempty_bytes(self):
        """A flow ID is an opaque key: any length, but bytes and not empty."""
        cdb = ClassificationDatabase()
        cdb.insert(b"short", TEXT, now=0.0)
        assert cdb.lookup(b"short") is TEXT
        for bad in (b"", "1.1.1.1:80", None):
            with pytest.raises(ValueError, match="non-empty bytes"):
                cdb.insert(bad, TEXT, now=0.0)

    def test_remove(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), BINARY, now=0.0)
        assert cdb.remove(_fid(1))
        assert not cdb.remove(_fid(1))
        assert cdb.lookup(_fid(1)) is None
        assert cdb.total_removed_fin == 1

    def test_reinsert_overwrites(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=0.0)
        cdb.insert(_fid(1), ENCRYPTED, now=1.0)
        assert cdb.lookup(_fid(1)) is ENCRYPTED
        assert len(cdb) == 1


class TestRemovalReasons:
    def test_default_reason_is_fin(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=0.0)
        cdb.remove(_fid(1))
        assert cdb.total_removed_fin == 1
        assert cdb.total_removed_reclassified == 0

    def test_reclassification_removal_not_counted_as_fin(self):
        # The Section-4.6 defense deletes aged records to force
        # reclassification; Figure-8's FIN share must not count them.
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=0.0)
        cdb.remove(_fid(1), reason="reclassified")
        assert cdb.total_removed_fin == 0
        assert cdb.total_removed_reclassified == 1

    def test_absent_flow_counts_nothing(self):
        cdb = ClassificationDatabase()
        assert not cdb.remove(_fid(9), reason="reclassified")
        assert cdb.total_removed_reclassified == 0

    def test_unknown_reason_rejected(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=0.0)
        with pytest.raises(ValueError, match="removal reason"):
            cdb.remove(_fid(1), reason="whim")
        assert _fid(1) in cdb  # rejected before mutating

    def test_removal_counts_tracks_all_three_paths(self):
        cdb = ClassificationDatabase(purge_trigger_flows=0)
        for i in range(5):
            cdb.insert(_fid(i), TEXT, now=float(i))
        cdb.remove(_fid(0))                          # FIN/RST close
        cdb.remove(_fid(1), reason="reclassified")   # Section-4.6 defense
        cdb.purge_inactive(now=1000.0)               # inactivity sweep (3 left)
        assert cdb.removal_counts == {
            "fin": 1, "inactive": 3, "reclassified": 1
        }
        assert len(cdb) == 0


class TestRecordAccounting:
    def test_194_bit_records(self):
        # 160 (SHA-1) + 32 (lambda) + 2 (label) = 194 bits per record.
        assert RECORD_BITS == 194
        cdb = ClassificationDatabase()
        for i in range(10):
            cdb.insert(_fid(i), TEXT, now=float(i))
        assert cdb.size_bits == 10 * 194
        assert cdb.size_bytes == pytest.approx(10 * 194 / 8)


class TestLambdaTracking:
    def test_touch_updates_inter_arrival(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=10.0)
        cdb.touch(_fid(1), now=10.3)
        record = cdb._records[_fid(1)]
        assert record.last_inter_arrival == pytest.approx(0.3)
        assert record.last_arrival == 10.3

    def test_default_lambda_before_second_packet(self):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=0.0)
        assert cdb._records[_fid(1)].last_inter_arrival == DEFAULT_LAMBDA

    def test_touch_unknown_flow_raises(self):
        cdb = ClassificationDatabase()
        with pytest.raises(KeyError):
            cdb.touch(_fid(9), now=0.0)

    @pytest.mark.parametrize(
        "now, expected_lambda",
        [
            (10.3, 0.3),            # gap > 0: lambda becomes the gap
            (10.0, DEFAULT_LAMBDA),  # gap == 0: lambda kept
            (9.5, DEFAULT_LAMBDA),   # gap < 0: lambda kept ...
        ],
    )
    def test_record_touch_is_the_keyed_touch(self, now, expected_lambda):
        cdb = ClassificationDatabase()
        cdb.insert(_fid(1), TEXT, now=10.0)
        cdb.touch(_fid(1), now=now)
        alone = CdbRecord(label=TEXT, last_arrival=10.0, classified_at=10.0)
        alone.touch(now)
        assert alone == cdb.record_of(_fid(1))
        assert alone.last_inter_arrival == pytest.approx(expected_lambda)
        # ... and last_arrival moves even backwards.
        assert alone.last_arrival == now

    def test_records_carry_no_dict(self):
        record = CdbRecord(label=TEXT, last_arrival=0.0)
        assert not hasattr(record, "__dict__")


class TestObsolescence:
    def test_staleness_condition(self):
        # t_now - t_last > n * lambda (Section 4.5).
        record = CdbRecord(label=TEXT, last_arrival=0.0, last_inter_arrival=0.5)
        assert not record.is_obsolete(now=1.9, n=4.0)
        assert record.is_obsolete(now=2.1, n=4.0)

    def test_purge_inactive_removes_stale_only(self):
        cdb = ClassificationDatabase(purge_coefficient=4.0, purge_trigger_flows=0)
        cdb.insert(_fid(1), TEXT, now=0.0)   # stale at t=10 (lambda=0.5)
        cdb.insert(_fid(2), BINARY, now=9.5)  # fresh
        removed = cdb.purge_inactive(now=10.0)
        assert removed == 1
        assert cdb.lookup(_fid(1)) is None
        assert cdb.lookup(_fid(2)) is BINARY
        assert cdb.total_removed_inactive == 1

    def test_larger_n_keeps_flows_longer(self):
        lax = ClassificationDatabase(purge_coefficient=100.0, purge_trigger_flows=0)
        strict = ClassificationDatabase(purge_coefficient=1.0, purge_trigger_flows=0)
        for cdb in (lax, strict):
            cdb.insert(_fid(1), TEXT, now=0.0)
        assert lax.purge_inactive(now=3.0) == 0
        assert strict.purge_inactive(now=3.0) == 1

    def test_active_flow_survives_via_touch(self):
        cdb = ClassificationDatabase(purge_coefficient=4.0, purge_trigger_flows=0)
        cdb.insert(_fid(1), TEXT, now=0.0)
        for t in (0.4, 0.8, 1.2, 1.6, 2.0):
            cdb.touch(_fid(1), now=t)
        assert cdb.purge_inactive(now=3.0) == 0


class TestPurgeTrigger:
    def test_sweep_runs_every_n_inserts(self):
        cdb = ClassificationDatabase(purge_coefficient=4.0, purge_trigger_flows=5)
        # 4 stale flows at time 0; the 5th insert (at t=100) triggers a sweep.
        for i in range(4):
            cdb.insert(_fid(i), TEXT, now=0.0)
        assert len(cdb) == 4
        cdb.insert(_fid(99), TEXT, now=100.0)
        assert len(cdb) == 1  # only the fresh flow survives
        assert cdb.total_removed_inactive == 4

    def test_zero_trigger_disables_sweeps(self):
        cdb = ClassificationDatabase(purge_trigger_flows=0)
        for i in range(100):
            cdb.insert(_fid(i), TEXT, now=0.0)
        cdb.insert(_fid(1000), TEXT, now=1e6)
        assert len(cdb) == 101

    def test_validation(self):
        with pytest.raises(ValueError, match="purge_coefficient"):
            ClassificationDatabase(purge_coefficient=0.0)
        with pytest.raises(ValueError, match="purge_trigger_flows"):
            ClassificationDatabase(purge_trigger_flows=-1)
