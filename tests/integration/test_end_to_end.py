"""End-to-end integration: corpus -> training -> trace -> pipeline -> accuracy.

These tests exercise the full Figure-1 system the way the paper's
evaluation does, including pcap round trips and the estimation variant.
"""

import numpy as np
import pytest

from repro.core.classifier import IustitiaClassifier, TrainingMethod
from repro.core.config import IustitiaConfig
from repro.core.estimation import EntropyEstimator
from repro.core.features import PHI_SVM_PRIME
from repro.net.flow import FlowKey
from repro.net.pcap import read_pcap, write_pcap
from repro.net.trace import Trace
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace
from tests.conftest import sync_engine


class TestHeadlineScenario:
    """Section 1.3: classify flows from their first 32 bytes."""

    def test_svm_accuracy_band(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        engine.process_trace(small_trace)
        report = engine.evaluate_against(small_trace)
        # Paper: 86% average; synthetic corpus is cleaner, so require >= 0.75
        # and sanity-cap at 1.0.
        assert 0.75 <= report["accuracy"] <= 1.0

    def test_cart_accuracy_band(self, trained_cart, small_trace):
        engine = sync_engine(trained_cart, IustitiaConfig(buffer_size=32))
        engine.process_trace(small_trace)
        report = engine.evaluate_against(small_trace)
        assert report["accuracy"] >= 0.7

    def test_svm_beats_or_matches_cart(self, trained_svm, trained_cart, small_trace):
        svm_engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        svm_engine.process_trace(small_trace)
        cart_engine = sync_engine(trained_cart, IustitiaConfig(buffer_size=32))
        cart_engine.process_trace(small_trace)
        svm_acc = svm_engine.evaluate_against(small_trace)["accuracy"]
        cart_acc = cart_engine.evaluate_against(small_trace)["accuracy"]
        # At b=32 the paper's Figure 4(b) shows the two models at parity
        # (both ~86%); on a single 150-flow trace either can edge ahead,
        # so assert parity within a 10-point band rather than dominance.
        assert svm_acc >= cart_acc - 0.10


class TestPcapWorkflow:
    def test_trace_survives_pcap_round_trip(self, small_trace, tmp_path, trained_svm):
        path = tmp_path / "gateway.pcap"
        write_pcap(path, small_trace.packets)
        reloaded = Trace(packets=read_pcap(path), labels=dict(small_trace.labels))
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        engine.process_trace(reloaded)
        report = engine.evaluate_against(reloaded)
        assert report["accuracy"] > 0.7


class TestEstimationVariant:
    def test_estimated_pipeline_still_accurate(self, small_corpus):
        # The online engine computes exactly; estimation is scored the way
        # the paper benches (Figure 7, Table 3) use it: train on exact
        # vectors, classify each flow's first b bytes from estimated ones.
        clf = IustitiaClassifier(model="svm", buffer_size=1024).fit_corpus(
            small_corpus
        )
        estimator = EntropyEstimator(
            epsilon=0.25, delta=0.25, buffer_size=1024,
            features=PHI_SVM_PRIME, rng=np.random.default_rng(0),
        )
        trace = generate_gateway_trace(
            GatewayTraceConfig(n_flows=60, duration=20.0, seed=11,
                               app_header_probability=0.0)
        )
        payloads = {}
        for packet in trace.packets:
            payloads.setdefault(FlowKey.of_packet(packet), bytearray()).extend(
                packet.payload
            )
        flows = [
            (bytes(payload[:1024]), trace.labels[key])
            for key, payload in payloads.items()
            if key in trace.labels and len(payload) >= PHI_SVM_PRIME.max_width
        ]
        X = np.vstack([estimator.estimate_vector(w).values for w, _ in flows])
        predictions = clf.predict_vectors(X)
        accuracy = np.mean([p == truth for p, (_, truth) in zip(predictions, flows)])
        # Section 4.4.2: estimation costs a few accuracy points, not more.
        assert accuracy > 0.6


class TestHeaderThresholdScenario:
    def test_unknown_header_skipping_recovers_accuracy(self, small_corpus):
        """Section 4.3's H_b'-trained classifier on header-prefixed flows."""
        trace = generate_gateway_trace(
            GatewayTraceConfig(n_flows=80, duration=20.0, seed=13,
                               app_header_probability=1.0)
        )
        naive = IustitiaClassifier(model="svm", buffer_size=256).fit_corpus(
            small_corpus
        )
        naive_engine = sync_engine(
            naive,
            IustitiaConfig(buffer_size=256, strip_known_headers=False),
        )
        naive_engine.process_trace(trace)
        naive_acc = naive_engine.evaluate_against(trace)["accuracy"]

        aware = IustitiaClassifier(
            model="svm", buffer_size=256,
            training=TrainingMethod.RANDOM_OFFSET, header_threshold=300,
            rng=np.random.default_rng(3),
        ).fit_corpus(small_corpus)
        aware_engine = sync_engine(
            aware,
            IustitiaConfig(buffer_size=256, header_threshold=300,
                           strip_known_headers=False),
        )
        aware_engine.process_trace(trace)
        aware_acc = aware_engine.evaluate_against(trace)["accuracy"]
        # Skipping T bytes must beat classifying the text headers directly.
        assert aware_acc > naive_acc

    def test_known_header_stripping_recovers_accuracy(self, small_corpus):
        trace = generate_gateway_trace(
            GatewayTraceConfig(n_flows=80, duration=20.0, seed=14,
                               app_header_probability=1.0)
        )
        clf = IustitiaClassifier(model="svm", buffer_size=512).fit_corpus(
            small_corpus
        )
        stripped_engine = sync_engine(
            clf, IustitiaConfig(buffer_size=512, strip_known_headers=True)
        )
        stripped_engine.process_trace(trace)
        plain_engine = sync_engine(
            clf, IustitiaConfig(buffer_size=512, strip_known_headers=False)
        )
        plain_engine.process_trace(trace)
        assert (
            stripped_engine.evaluate_against(trace)["accuracy"]
            > plain_engine.evaluate_against(trace)["accuracy"]
        )
