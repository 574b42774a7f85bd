"""Tests for the pluggable FeatureExtractor layer (repro.core.extract)."""

import numpy as np
import pytest

from repro.core.accounting import distinct_counters
from repro.core.cdb import RECORD_BYTES
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.entropy_vector import entropy_vector
from repro.core.extract import (
    EXTRACTORS,
    BatchEntropyExtractor,
    FeatureExtractor,
    IncrementalEntropyExtractor,
    make_extractor,
)
from repro.core.features import FULL_FEATURES, PHI_SVM_PRIME
from repro.engine import StagedEngine
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.net.trace import Trace


def _udp_packet(flow_index: int, payload: bytes, timestamp: float) -> Packet:
    return Packet(
        ip=Ipv4Header(
            src=f"10.0.{(flow_index >> 8) & 255}.{flow_index & 255}",
            dst="192.168.1.1",
            protocol=17,
        ),
        transport=UdpHeader(src_port=1024 + flow_index, dst_port=443),
        payload=payload,
        timestamp=timestamp,
    )


class TestBatchExtractor:
    def test_registry_and_flags(self):
        extractor = make_extractor("batch", PHI_SVM_PRIME, 32)
        assert isinstance(extractor, BatchEntropyExtractor)
        assert extractor.retains_payload

    def test_finalize_matches_classifier_vectors(self, trained_cart):
        extractor = make_extractor(
            "batch", trained_cart.feature_set, trained_cart.buffer_size
        )
        windows = [bytes(range(64)), b"\x00" * 40, bytes(range(255, 215, -1))]
        vectors, state_bytes = extractor.finalize(windows)
        np.testing.assert_array_equal(vectors, trained_cart.buffer_vectors(windows))
        # Window (cut to b) + 2 B per distinct gram + CDB record, per flow.
        assert state_bytes.tolist() == [
            32 + 2 * distinct_counters(w[:32], trained_cart.feature_set) + RECORD_BYTES
            for w in windows
        ]


class TestIncrementalExtractor:
    def test_registry_and_flags(self):
        extractor = make_extractor("incremental", PHI_SVM_PRIME, 32)
        assert isinstance(extractor, IncrementalEntropyExtractor)
        assert not extractor.retains_payload

    def test_vector_matches_batch_on_fragmented_prefix(self):
        payload = bytes((7 * i + 3) % 256 for i in range(48))
        for feature_set in (PHI_SVM_PRIME, FULL_FEATURES):
            extractor = IncrementalEntropyExtractor(feature_set, 32)
            state = extractor.new_state()
            for chunk in (payload[:5], payload[5:6], payload[6:30], payload[30:]):
                extractor.fold(state, chunk)
            expected = entropy_vector(payload[:32], feature_set).values
            np.testing.assert_allclose(
                extractor.finalize([state])[0][0], expected, rtol=0.0, atol=1e-12
            )

    def test_fold_caps_at_buffer_size(self):
        extractor = IncrementalEntropyExtractor(PHI_SVM_PRIME, 16)
        state = extractor.new_state()
        extractor.fold(state, bytes(range(100)))
        assert state.window == bytes(range(16))
        extractor.fold(state, b"more bytes")
        assert state.window == bytes(range(16))
        expected = entropy_vector(bytes(range(16)), PHI_SVM_PRIME).values
        np.testing.assert_allclose(
            extractor.finalize([state])[0][0], expected, rtol=0.0, atol=1e-12
        )

    def test_underfilled_state_rejected(self):
        extractor = IncrementalEntropyExtractor(PHI_SVM_PRIME, 32)
        state = extractor.new_state()
        extractor.fold(state, b"ab")
        assert state.window == b"ab"
        with pytest.raises(ValueError, match="has 2 bytes, cannot hold feature h_5"):
            extractor.finalize([state])
        with pytest.raises(ValueError, match="cannot hold feature h_5"):
            extractor.state_bytes(state)

    def test_state_bytes_formula_and_savings(self):
        buffer_size = 32
        window = bytes((13 * i) % 256 for i in range(buffer_size))
        incremental = IncrementalEntropyExtractor(PHI_SVM_PRIME, buffer_size)
        state = incremental.new_state()
        incremental.fold(state, window)
        got = incremental.state_bytes(state)
        counters = distinct_counters(window, PHI_SVM_PRIME)
        carry = PHI_SVM_PRIME.max_width - 1
        assert got == 2 * counters + carry + RECORD_BYTES
        batch = make_extractor("batch", PHI_SVM_PRIME, buffer_size)
        # Same counters, no retained window: the modelled shape saves
        # b - (max_width - 1) bytes per flow on identical input.
        assert got == batch.state_bytes(window) - buffer_size + carry
        assert got < batch.state_bytes(window)

    @pytest.mark.parametrize(
        "feature_set", [PHI_SVM_PRIME, FULL_FEATURES], ids=["packed", "wide"]
    )
    def test_state_bytes_batch_is_state_bytes_at_every_stage(self, feature_set):
        """A drain's state bytes are each flow's own, however far it folded."""
        extractor = IncrementalEntropyExtractor(feature_set, 32)
        streams = [
            bytes((13 * i) % 256 for i in range(40)),
            b"ab" * 20,
            bytes(40),
            bytes(range(200, 240)),
        ]
        states = [extractor.new_state() for _ in streams]
        extractor.fold_batch(states, [stream[:12] for stream in streams])
        folded = [12] * 4

        def check():
            assert [len(state.window) for state in states] == folded
            _, batched = extractor.finalize(states)
            assert batched.tolist() == [extractor.state_bytes(s) for s in states]
            # The oracle counts each window's grams alone, from the
            # stream's bytes, not from the states a drain was handed.
            carry = feature_set.max_width - 1
            assert batched.tolist() == [
                2 * distinct_counters(stream[:size], feature_set)
                + min(carry, size)
                + RECORD_BYTES
                for stream, size in zip(streams, folded)
            ]

        check()
        extractor.fold(states[0], streams[0][12:20])
        extractor.fold_batch([states[1]], [[streams[1][12:15], streams[1][15:]]])
        folded[:2] = [20, 32]
        check()
        # A full window folds nothing more.
        extractor.fold(states[1], b"past the window")
        check()

    def test_one_payload_rule_on_both_fold_entry_points(self):
        """uint8 arrays and every bytes-like fold; anything else is a TypeError."""
        extractor = make_extractor("incremental", PHI_SVM_PRIME, 32)
        accepted = [
            b"abc",
            bytearray(b"de"),
            memoryview(b"fgh"),
            memoryview(b"i-j-k-")[::2],  # not contiguous
            np.frombuffer(b"lmn", dtype=np.uint8),
            np.frombuffer(b"o.p.", dtype=np.uint8)[::2],
        ]
        one, many = extractor.new_state(), extractor.new_state()
        for chunk in accepted:
            extractor.fold(one, chunk)
        extractor.fold_batch([many], [accepted])
        window = b"abcdefghijklmnop"
        assert one.window == many.window == window
        np.testing.assert_array_equal(
            extractor.finalize([one, many])[0],
            [entropy_vector(window, PHI_SVM_PRIME).values] * 2,
        )
        for rejected in (np.arange(250, 290), np.zeros(4), "text", [1, 2], 7):
            with pytest.raises(TypeError):
                extractor.fold(one, rejected)
            with pytest.raises(TypeError):
                extractor.fold_batch([many], [[rejected]])
            with pytest.raises(TypeError):
                extractor.fold_batch([many], [rejected])
        assert one.window == many.window == window


class TestMakeExtractor:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown extractor"):
            make_extractor("streaming", PHI_SVM_PRIME, 32)

    def test_instance_rejected(self):
        instance = BatchEntropyExtractor(PHI_SVM_PRIME, 32)
        with pytest.raises(TypeError, match="registered name"):
            make_extractor(instance, PHI_SVM_PRIME, 32)

    def test_registry_names_are_class_names(self):
        assert set(EXTRACTORS) == {"batch", "incremental"}
        for name, cls in EXTRACTORS.items():
            assert cls.name == name
            assert issubclass(cls, FeatureExtractor)


class TestEngineConfigExtractor:
    def test_default_is_batch(self):
        assert EngineConfig().extractor == "batch"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown extractor"):
            EngineConfig(extractor="bogus")

    def test_non_callable_rejected(self):
        # A name only: neither a number nor an extractor class.
        for spec in (123, IncrementalEntropyExtractor):
            with pytest.raises(TypeError, match="registered name"):
                EngineConfig(extractor=spec)
            with pytest.raises(TypeError, match="registered name"):
                make_extractor(spec, PHI_SVM_PRIME, 32)


class TestEngineIntegration:
    def _pure_config(self, extractor: str, **kwargs) -> EngineConfig:
        return EngineConfig(
            extractor=extractor,
            pipeline=IustitiaConfig(buffer_size=32, strip_known_headers=False),
            **kwargs,
        )

    @pytest.mark.parametrize("name", ["batch", "incremental"])
    def test_pending_buffer_accumulates_raw_payload(self, trained_cart, name):
        """Both extractors: payload waits in the flow's one buffer, in order."""
        engine = StagedEngine(
            trained_cart,
            EngineConfig(
                extractor=name, pipeline=IustitiaConfig(strip_known_headers=False)
            ),
        )
        for i, chunk in enumerate((b"abc", b"", memoryview(b"defgh"))):
            engine.process_packet(_udp_packet(1, chunk, i * 1e-3))
        (pending,) = engine.table.pending.values()
        assert pending.buffer == b"abcdefgh" and pending.chunks == 2
        assert pending.window is None
        assert engine.flush_timeouts(100.0) == 1
        (outcome,) = engine.stats.classified
        assert outcome.buffered_bytes == 8

    def test_incremental_rejects_rewindowing_configs(self, trained_cart):
        for pipeline in (
            IustitiaConfig(buffer_size=32),  # strip_known_headers defaults on
            IustitiaConfig(
                buffer_size=32, strip_known_headers=False, header_threshold=8
            ),
            IustitiaConfig(
                buffer_size=32, strip_known_headers=False, random_skip_max=4
            ),
        ):
            with pytest.raises(ValueError, match="retains no payload"):
                StagedEngine(
                    trained_cart,
                    EngineConfig(extractor="incremental", pipeline=pipeline),
                )

    def test_incremental_matches_batch_labels(self, trained_cart, small_trace):
        runs = {}
        for extractor in ("batch", "incremental"):
            engine = StagedEngine(
                trained_cart, self._pure_config(extractor, max_batch=8)
            )
            stats = engine.process_trace(small_trace)
            runs[extractor] = {c.key: c.label for c in stats.classified}
        assert runs["batch"] == runs["incremental"]
        assert len(runs["incremental"]) > 0

    def test_incremental_timeout_path_partial_buffer(self, trained_cart):
        # One 20-byte packet against b=32: only the inactivity timeout can
        # classify this flow, from a partially filled (but usable) state.
        payload = bytes((11 * i + 5) % 256 for i in range(20))
        labels = {}
        for extractor in ("batch", "incremental"):
            engine = StagedEngine(trained_cart, self._pure_config(extractor))
            assert engine.process_packet(_udp_packet(1, payload, 0.0)) is None
            assert engine.flush_timeouts(100.0) == 1
            assert engine.stats.classifications == 1
            labels[extractor] = engine.stats.classified[0].label
        assert labels["batch"] == labels["incremental"]

    def test_incremental_state_histogram_charges_every_flow(
        self, trained_cart, small_trace
    ):
        engine = StagedEngine(
            trained_cart, self._pure_config("incremental", max_batch=8)
        )
        stats = engine.process_trace(small_trace)
        snapshot = engine.metrics.snapshot()
        state = snapshot["engine_flow_state_bytes"]
        # Exact accounting: one observation per classification, and every
        # per-flow figure stays an order of magnitude under the buffered
        # b=1024 regime (sanity against the paper's ~200 B shape).
        assert state["count"] == stats.classifications
        assert state["buckets"]["1024.0"] == state["count"]

    def test_incremental_reports_raw_buffered_bytes(self, trained_cart):
        engine = StagedEngine(trained_cart, self._pure_config("incremental"))
        engine.process_packet(_udp_packet(2, bytes(range(20)), 0.0))
        engine.process_packet(_udp_packet(2, bytes(range(40)), 0.001))
        # Ready and queued: this one is a CDB hit in all but the drain.
        engine.process_packet(_udp_packet(2, bytes(range(40)), 0.002))
        engine.finish(0.003)
        (outcome,) = engine.stats.classified
        # All raw payload up to readiness counts toward buffered_bytes
        # even though only the first 32 bytes were folded.
        assert outcome.buffered_bytes == 60
        assert engine.stats.cdb_hits == 1

    def test_fold_telemetry_accumulates(self, trained_cart, small_trace):
        engine = StagedEngine(
            trained_cart, self._pure_config("incremental", max_batch=8)
        )
        stats = engine.process_trace(small_trace)
        snapshot = engine.metrics.snapshot()
        label = 'extractor="incremental"'
        # Only packets of still-pending flows fold (CDB hits forward
        # without touching extractor state).
        assert 0 < snapshot["extractor_folds_total"][label] <= stats.data_packets
        assert snapshot["extractor_fold_seconds_total"][label] >= 0.0
        assert snapshot["extractor_finalize_seconds"][label]["count"] > 0
