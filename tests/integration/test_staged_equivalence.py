"""StagedEngine against the executable spec of Figure 1 (``tests/spec.py``).

On the reference gateway traces, under any ``max_batch``, the engine
concludes what the spec does: counters and labels, the outcomes in order
with their times and delays, the CDB size series, the CDB's labels and
lifetime totals, and the packets forwarded per nature. A larger batch
changes when a label is emitted, never what it is; only the order of the
forwarded packets may change (a packet of a flow waiting in the batcher
is forwarded with the flow's label, after later hits of other flows).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine import QueueSink, StagedEngine

from tests.conftest import assert_concludes, sync_engine
from tests.spec import Figure1

B32 = IustitiaConfig(buffer_size=32)

#: Section 4.6's two defenses, drawing random skips from a seeded RNG.
DEFENSES = replace(B32, random_skip_max=16, reclassify_interval=3.0)

#: Case -> (pipeline config, max_batch, sample interval, random-skip seed).
#: The default case (B32, max_batch 1, sampled every second) is
#: ``TestSyncEquivalence``'s.
CASES = {
    "defenses": (DEFENSES, 1, 1.0, 7),
    "purge-20": (replace(B32, purge_trigger_flows=20), 1, 0.5, None),
    "batch-8": (B32, 8, 1.0, None),
    "batch-32": (B32, 32, 1.0, None),
}


def assert_forwarded(forwarded, model, max_batch):
    """Each nature's queue holds the spec's packets, in its order at max_batch 1."""
    for nature, queue in model.queues.items():
        if max_batch == 1:
            assert forwarded.queues[nature] == queue
        else:
            assert sorted(map(id, forwarded.queues[nature])) == sorted(map(id, queue))


def check(classifier, packets, config, max_batch, sample_interval, seed, extractor):
    """An engine run and a spec run over ``packets`` conclude alike."""
    forwarded = QueueSink()
    engine = open_engine(
        classifier,
        EngineConfig(
            runtime="serial", max_batch=max_batch, extractor=extractor, pipeline=config
        ),
        sink=forwarded,
        rng=np.random.default_rng(seed),
    )
    engine.process_source(packets, sample_interval)
    model = Figure1(classifier, config, np.random.default_rng(seed))
    assert_concludes(engine, model.run(packets, sample_interval))
    assert_forwarded(forwarded, model, max_batch)


@pytest.mark.parametrize(
    "trace", ["small_trace", "header_trace"], ids=["plain", "headered"]
)
@pytest.mark.parametrize("case", list(CASES))
def test_engine_matches_spec(trained_svm, request, case, trace):
    packets = request.getfixturevalue(trace).packets
    check(trained_svm, packets, *CASES[case], extractor="batch")


@pytest.fixture(scope="module")
def default_run(trained_svm, small_trace, header_trace):
    """``trace`` -> (engine, its QueueSink, spec run) for the default case.

    The engine is ``sync_engine``'s, which names no runtime; each trace
    runs once for the whole module.
    """
    traces = {"plain": small_trace, "headered": header_trace}
    runs = {}

    def run(trace):
        if trace not in runs:
            packets = traces[trace].packets
            forwarded = QueueSink()
            engine = sync_engine(trained_svm, B32, sink=forwarded)
            engine.process_source(packets, 1.0)
            model = Figure1(trained_svm, B32).run(packets, 1.0)
            runs[trace] = engine, forwarded, model
        return runs[trace]

    return run


class TestSyncEquivalence:
    """The default case at max_batch 1: the engine concludes what the spec does."""

    @pytest.mark.parametrize("trace", ["plain", "headered"])
    def test_default_config(self, default_run, trace):
        engine, forwarded, model = default_run(trace)
        assert_concludes(engine, model)
        assert_forwarded(forwarded, model, 1)

    def test_classification_order_and_delays(self, default_run):
        """Key, label, time, delay, bytes and protocol of each outcome, in order."""
        engine, _, model = default_run("plain")
        assert engine.stats.classified == model.classified

    def test_output_queues_identical(self, default_run):
        _, forwarded, model = default_run("plain")
        for nature, queue in model.queues.items():
            assert forwarded.queues[nature] == queue


configs = st.builds(
    IustitiaConfig,
    buffer_size=st.sampled_from([5, 16, 32, 64]),
    header_threshold=st.sampled_from([0, 8]),
    strip_known_headers=st.booleans(),
    purge_coefficient=st.sampled_from([1.0, 4.0]),
    purge_trigger_flows=st.sampled_from([0, 1, 7, 5000]),
    buffer_timeout=st.sampled_from([0.25, 1.0, 10.0]),
    random_skip_max=st.sampled_from([0, 4, 16]),
    reclassify_interval=st.sampled_from([0.0, 0.5, 3.0]),
)


@given(
    config=configs,
    extractor=st.sampled_from(["batch", "incremental"]),
    max_batch=st.sampled_from([1, 8]),
    sample_interval=st.sampled_from([0.25, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    headers=st.booleans(),
    segment=st.integers(0, 3),
)
def test_drawn_configs_match_spec(
    trained_cart, small_trace, header_trace,
    config, extractor, max_batch, sample_interval, seed, headers, segment,
):
    """A thousand-packet stretch of either trace, under any knob setting."""
    if extractor == "incremental":  # it keeps a flow's first b bytes only
        config = replace(
            config, strip_known_headers=False, header_threshold=0, random_skip_max=0
        )
    packets = (header_trace if headers else small_trace).packets
    packets = packets[segment * 1000 : (segment + 1) * 1000]
    check(trained_cart, packets, config, max_batch, sample_interval, seed, extractor)


class TestSerialRuntimeExplicit:
    """runtime="serial" is the default, and saying so changes nothing."""

    def test_default_runtime_is_serial(self, trained_svm):
        engine = StagedEngine(trained_svm)
        assert engine.engine_config.runtime == "serial"

    def test_explicit_serial_matches_seed(self, trained_svm, small_trace):
        """Named explicitly, the serial runtime still concludes what the spec
        (the seed engine's Figure 1 behaviour) does on the default case."""
        check(trained_svm, small_trace.packets, B32, 1, 1.0, None, extractor="batch")
