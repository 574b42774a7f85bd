"""Streaming ingest vs materialized path: label-and-counter identical.

The acceptance gate for the ingest layer: ``process_source`` over a
``PcapFileSource`` must produce labels, CDB lifetime counters, and sink
order identical to ``process_trace`` over ``read_pcap`` — for both
extractors, bit-for-bit, including the CDB size series.
"""

import pytest

from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine.engine import StagedEngine
from repro.ingest import PcapFileSource
from repro.net.pcap import read_pcap, write_pcap
from repro.net.trace import Trace


@pytest.fixture(scope="module")
def trace_pcap(tmp_path_factory, small_trace):
    """The shared trace written once as a classic pcap."""
    path = tmp_path_factory.mktemp("streaming") / "trace.pcap"
    write_pcap(path, small_trace.packets)
    return path


def _config(extractor: str) -> EngineConfig:
    return EngineConfig(
        extractor=extractor,
        pipeline=IustitiaConfig(
            # The incremental extractor keeps no payload, so it cannot
            # re-window for header stripping; hold both extractors to
            # the same pipeline so runs stay comparable.
            strip_known_headers=False,
        ),
    )


def _materialized(classifier, config, path):
    trace = Trace(packets=read_pcap(path))
    with StagedEngine(classifier, config) as engine:
        stats = engine.process_trace(trace)
        return engine, stats


def _streamed(classifier, config, path):
    with StagedEngine(classifier, config) as engine:
        with PcapFileSource(path) as source:
            stats = engine.process_source(source)
        return engine, stats


def _label_map(stats):
    return {c.key: c.label for c in stats.classified}


def _lifetime_counters(engine, stats):
    return (
        stats.packets,
        stats.classifications,
        stats.unclassifiable,
        stats.fin_removals,
        stats.reclassifications,
        dict(stats.per_class),
        engine.table.total_inserted,
        engine.table.total_removed_fin,
    )


class TestSerialEquivalence:
    @pytest.mark.parametrize("extractor", ["batch", "incremental"])
    def test_identical_labels_counters_and_sink_order(
        self, trained_cart, trace_pcap, extractor
    ):
        config = _config(extractor)
        engine_m, stats_m = _materialized(trained_cart, config, trace_pcap)
        engine_s, stats_s = _streamed(trained_cart, config, trace_pcap)
        assert _label_map(stats_s) == _label_map(stats_m)
        assert _lifetime_counters(engine_s, stats_s) == _lifetime_counters(
            engine_m, stats_m
        )
        assert stats_s.cdb_hits == stats_m.cdb_hits
        # Sink order: outcomes arrive in the same sequence.
        assert [c.key for c in stats_s.classified] == [
            c.key for c in stats_m.classified
        ]
        # Same packet clock → same Figure-8 CDB size series.
        assert stats_s.cdb_size_series == stats_m.cdb_size_series
