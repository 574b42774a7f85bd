"""StagedEngine vs the frozen seed monolith: packet-for-packet equivalence.

The refactor's contract (ISSUE 2, extended by ISSUE 7): the staged
engine under its :class:`~repro.engine.engine.SerialRuntime` with
``max_batch=1`` (``tests.conftest.sync_engine``) must
reproduce the seed engine's labels, per-class counts, counters, and CDB
size series on the reference synthetic traces, even though the engine's
state now lives in a separate pipeline. ``max_batch>1`` must preserve
every label (windows are frozen at readiness), though classification
*timestamps* may differ by design.
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine import QueueSink, StagedEngine
from repro.engine.engine import SerialRuntime
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace

from tests.conftest import sync_engine

from ._seed_engine import SeedEngine


def _label_map(stats):
    return {c.key: c.label for c in stats.classified}


def _counter_tuple(stats):
    return (
        stats.packets,
        stats.data_packets,
        stats.cdb_hits,
        stats.classifications,
        stats.unclassifiable,
        stats.fin_removals,
        stats.reclassifications,
        dict(stats.per_class),
    )


@pytest.fixture(scope="module")
def reference_traces():
    """Two reference traces: plain, and header-bearing with short flows."""
    plain = generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=150, duration=30.0, seed=41, app_header_probability=0.0
        )
    )
    headered = generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=100, duration=30.0, seed=43, app_header_probability=1.0
        )
    )
    return {"plain": plain, "headered": headered}


class TestSyncEquivalence:
    """max_batch=1 staged engine == seed monolith, exactly."""

    @pytest.mark.parametrize("trace_name", ["plain", "headered"])
    def test_default_config(self, trained_svm, reference_traces, trace_name):
        trace = reference_traces[trace_name]
        config = IustitiaConfig(buffer_size=32)
        seed = SeedEngine(trained_svm, config)
        staged = sync_engine(trained_svm, config, sink=QueueSink())
        seed_stats = seed.process_trace(trace, sample_interval=1.0)
        staged_stats = staged.process_trace(trace, sample_interval=1.0)

        assert _label_map(staged_stats) == _label_map(seed_stats)
        assert _counter_tuple(staged_stats) == _counter_tuple(seed_stats)
        assert staged_stats.cdb_size_series == seed_stats.cdb_size_series
        assert len(staged.table) == len(seed.cdb)
        # Same flows end up in the CDB with the same labels: the seed
        # keys its CDB by the SHA-1 of what the staged engine keys by.
        for flow_id, record in staged.table._records.items():
            assert seed.cdb.lookup(hashlib.sha1(flow_id).digest()) is record.label

    def test_classification_order_and_delays(
        self, trained_svm, reference_traces
    ):
        trace = reference_traces["plain"]
        config = IustitiaConfig(buffer_size=32)
        seed = SeedEngine(trained_svm, config)
        staged = sync_engine(trained_svm, config)
        seed_stats = seed.process_trace(trace)
        staged_stats = staged.process_trace(trace)
        assert [
            (c.key, c.label, c.classified_at, c.buffering_delay,
             c.buffered_bytes, c.stripped_protocol)
            for c in staged_stats.classified
        ] == [
            (c.key, c.label, c.classified_at, c.buffering_delay,
             c.buffered_bytes, c.stripped_protocol)
            for c in seed_stats.classified
        ]

    def test_output_queues_identical(self, trained_svm, reference_traces):
        trace = reference_traces["plain"]
        config = IustitiaConfig(buffer_size=32)
        seed = SeedEngine(trained_svm, config)
        forwarded = QueueSink()
        staged = sync_engine(trained_svm, config, sink=forwarded)
        seed.process_trace(trace)
        staged.process_trace(trace)
        for nature, queue in seed.output_queues.items():
            assert forwarded.queues[nature] == queue

    def test_section_4_6_defenses_config(self, trained_svm, reference_traces):
        """Random skip + reclassification: RNG draw order must align too."""
        trace = reference_traces["plain"]
        config = IustitiaConfig(
            buffer_size=32, random_skip_max=16, reclassify_interval=3.0
        )
        seed = SeedEngine(trained_svm, config, rng=np.random.default_rng(7))
        staged = sync_engine(trained_svm, config, rng=np.random.default_rng(7))
        seed_stats = seed.process_trace(trace)
        staged_stats = staged.process_trace(trace)
        assert _label_map(staged_stats) == _label_map(seed_stats)
        assert _counter_tuple(staged_stats) == _counter_tuple(seed_stats)
        assert staged_stats.cdb_size_series == seed_stats.cdb_size_series

    def test_purge_trigger_alignment(self, trained_svm, reference_traces):
        """A low purge trigger fires global sweeps at the same inserts."""
        trace = reference_traces["plain"]
        config = IustitiaConfig(buffer_size=32, purge_trigger_flows=20)
        seed = SeedEngine(trained_svm, config)
        staged = sync_engine(trained_svm, config)
        seed_stats = seed.process_trace(trace, sample_interval=0.5)
        staged_stats = staged.process_trace(trace, sample_interval=0.5)
        assert staged_stats.cdb_size_series == seed_stats.cdb_size_series
        assert staged.table.total_removed_inactive == seed.cdb.total_removed_inactive
        assert staged.table.total_inserted == seed.cdb.total_inserted


class TestBatchedLabelEquivalence:
    """max_batch>1 changes *when* flows classify, never their labels."""

    @pytest.mark.parametrize("max_batch", [8, 32])
    def test_labels_match_seed(
        self, trained_svm, reference_traces, max_batch
    ):
        trace = reference_traces["plain"]
        config = IustitiaConfig(buffer_size=32)
        seed = SeedEngine(trained_svm, config)
        staged = StagedEngine(
            trained_svm,
            EngineConfig(max_batch=max_batch, pipeline=config),
        )
        seed_stats = seed.process_trace(trace)
        staged_stats = staged.process_trace(trace)
        assert _label_map(staged_stats) == _label_map(seed_stats)
        assert staged_stats.per_class == seed_stats.per_class
        assert staged_stats.classifications == seed_stats.classifications


class TestSerialRuntimeExplicit:
    """runtime="serial" is the default — and saying so changes nothing."""

    def test_default_runtime_is_serial(self, trained_svm):
        engine = StagedEngine(trained_svm)
        assert isinstance(engine.runtime, SerialRuntime)
        assert engine.engine_config.runtime == "serial"

    def test_explicit_serial_matches_seed(self, trained_svm, reference_traces):
        trace = reference_traces["plain"]
        config = IustitiaConfig(buffer_size=32)
        seed = SeedEngine(trained_svm, config)
        staged = StagedEngine(
            trained_svm,
            EngineConfig(
                runtime="serial", max_batch=1, pipeline=config
            ),
        )
        seed_stats = seed.process_trace(trace, sample_interval=1.0)
        staged_stats = staged.process_trace(trace, sample_interval=1.0)
        assert _label_map(staged_stats) == _label_map(seed_stats)
        assert _counter_tuple(staged_stats) == _counter_tuple(seed_stats)
        assert staged_stats.cdb_size_series == seed_stats.cdb_size_series
