"""Shared fixtures for the test suite.

Keeps the expensive objects (corpus, features, trained classifiers, traces)
session-scoped so the suite stays fast while every test exercises real
artifacts rather than mocks.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.api import open_engine
from repro.core.config import EngineConfig
from repro.core.labels import BINARY, ENCRYPTED, TEXT
from repro.data.binarygen import generate_binary_file
from repro.data.corpus import Corpus, LabeledFile, build_corpus
from repro.data.cryptogen import generate_encrypted_file
from repro.data.textgen import generate_text_file
from repro.engine import batcher
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace


# Hypothesis budgets. ``default`` is what tier-1 pays on every run;
# ``--hypothesis-profile=ci`` digs deeper, and deterministically: the same
# examples on every CI run, with no wall-clock deadline to trip on a busy
# runner.
settings.register_profile("default", max_examples=100)
settings.register_profile("ci", max_examples=1000, deadline=None, derandomize=True)


@pytest.fixture(scope="session", autouse=True)
def unicode_tables():
    """Build Hypothesis's unicode tables before the first test runs.

    The first ``st.text()`` of a session computes them: ~2.5 s with an
    empty example store, as on every CI run, and inside a test that time
    counts against its "input generation is slow" health check.
    Validating one text strategy builds them once, outside any test, and
    caches them in the store (a warm store reads them in ~0.03 s).
    """
    st.text().validate()


def sync_engine(classifier, config=None, **kwargs):
    """``open_engine`` classifying each flow the instant it is ready.

    ``max_batch=1``: the behaviour :class:`tests.spec.Figure1` specifies.
    ``config`` is the :class:`IustitiaConfig` to nest and ``kwargs``
    (``sink=``, ``rng=``, ``registry=``) pass through.
    """
    return open_engine(
        classifier,
        EngineConfig(max_batch=1, pipeline=config),
        **kwargs,
    )


def assert_concludes(engine, model):
    """``engine`` concluded what the spec run ``model`` (``tests.spec``) did.

    Its counters, its outcomes in order (times and delays included), the
    CDB size series, the CDB's labels and its lifetime insert and removal
    totals. The spec absorbs no dispatch error.
    """
    stats, table, removed = engine.stats, engine.table, model.removed
    assert {name: getattr(stats, name) for name in model.stats} == model.stats
    assert (stats.fin_removals, stats.reclassifications, stats.dispatch_errors) == (
        removed["fin"], removed["reclassified"], 0
    )
    assert stats.classified == model.classified
    assert stats.cdb_size_series == model.series
    assert {flow_id: record.label for flow_id, record in table._records.items()} == {
        key.to_bytes(): record[0] for key, record in model.cdb.items()
    }
    assert (table.total_inserted, table.removal_counts) == (model.inserted, removed)


@pytest.fixture
def still_clock(monkeypatch):
    """Stop the wall clock the batcher's wait rule reads.

    Every drain is then a size, close, purge, timeout or final one, so a
    test that counts drains (or the frames and observations they cost)
    counts the same on any host. A C callable: it adds no Python frame
    to what ``sys.setprofile`` counts.
    """
    monkeypatch.setattr(batcher, "clock", itertools.repeat(0.0).__next__)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    """30 files per class, 2-8 KB: enough signal to train real models."""
    return build_corpus(per_class=30, seed=99, min_size=2048, max_size=8192)


@pytest.fixture(scope="session")
def sample_files() -> dict[str, bytes]:
    """One *typical* file per nature (8 KB each).

    The binary sample is pinned to the executable family: it sits in the
    middle of the entropy scale, representative of the class mean. (A
    random draw could land on PNG, whose compressed payload is
    statistically encrypted-like — realistic, but wrong for tests that
    assert the typical text < binary < encrypted ordering.)
    """
    gen = np.random.default_rng(7)
    return {
        "text": generate_text_file(8192, gen, kind="plain"),
        "binary": generate_binary_file(8192, gen, kind="elf"),
        "encrypted": generate_encrypted_file(8192, gen),
    }


@pytest.fixture(scope="session")
def small_trace():
    """A 150-flow synthetic gateway trace without app headers."""
    return generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=150, duration=30.0, seed=41, app_header_probability=0.0
        )
    )


@pytest.fixture(scope="session")
def header_trace():
    """A 100-flow trace where every flow starts with an app header."""
    return generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=100, duration=30.0, seed=43, app_header_probability=1.0
        )
    )


@pytest.fixture(scope="session")
def trained_svm(small_corpus):
    """A session-scoped SVM Iustitia classifier (b=32, FIRST_B training)."""
    from repro.core.classifier import IustitiaClassifier

    return IustitiaClassifier(model="svm", buffer_size=32).fit_corpus(small_corpus)


@pytest.fixture(scope="session")
def trained_cart(small_corpus):
    """A session-scoped CART Iustitia classifier (b=32, FIRST_B training)."""
    from repro.core.classifier import IustitiaClassifier

    return IustitiaClassifier(model="cart", buffer_size=32).fit_corpus(small_corpus)


@pytest.fixture(scope="session")
def blob_features(small_corpus):
    """(X, y) whole-file entropy vectors h1..h5 over the small corpus."""
    from repro.core.entropy import kgram_entropy

    X = np.array(
        [[kgram_entropy(f.data, k) for k in range(1, 6)] for f in small_corpus]
    )
    y = np.array([int(f.nature) for f in small_corpus])
    return X, y
