"""Property tests: incremental folding == batch extraction on the first b bytes.

The invariant of the incremental extractor is that per-packet folding is
*vector-identical* (within 1e-12) to batch extraction over the same
first-``b`` bytes, no matter how packets fragment the stream: single
packet, 1-byte packets, arbitrary uneven splits, payload overshooting
the buffer, or a timeout firing on a partially filled window. The
cross-flow :meth:`fold_batch` must agree with all of the above too —
including when its chunks arrive as zero-copy memoryviews off the pcap
path. The two extractors share one window kernel, so this is the whole
proof that they agree: the oracle here is the scalar ``entropy_vector``.
Through the engine, where both extractors' payload waits in one pending
buffer, what the kernel is handed is the flow's first bytes however its
packets cut them (:class:`TestEngineFragmentation`).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.entropy_vector import entropy_vector
from repro.core.extract import IncrementalEntropyExtractor
from repro.core.features import FULL_FEATURES, PHI_SVM_PRIME
from repro.engine import StagedEngine
from repro.net.packet import Ipv4Header, Packet, UdpHeader

#: PHI_SVM_PRIME exercises the packed-uint64 k-gram keys; FULL_FEATURES
#: (h1..h10) also exercises the wide-gram (k > 8) kernels.
FEATURE_SETS = (PHI_SVM_PRIME, FULL_FEATURES)

TOLERANCE = 1e-12


def fragments(payload: bytes, cut_points: "list[int]") -> "list[bytes]":
    """Split ``payload`` at the (deduplicated, sorted) cut offsets."""
    cuts = sorted({c % (len(payload) + 1) for c in cut_points})
    bounds = [0] + cuts + [len(payload)]
    return [payload[a:b] for a, b in zip(bounds, bounds[1:])]


def folded_state(feature_set, buffer_size: int, chunks: "list[bytes]"):
    extractor = IncrementalEntropyExtractor(feature_set, buffer_size)
    state = extractor.new_state()
    for chunk in chunks:
        extractor.fold(state, chunk)
    return extractor, state


def assert_matches_batch(feature_set, buffer_size, chunks) -> None:
    extractor, state = folded_state(feature_set, buffer_size, chunks)
    payload = b"".join(chunks)
    expected = entropy_vector(payload[:buffer_size], feature_set).values
    got = extractor.finalize([state])[0][0]
    assert float(np.max(np.abs(got - expected))) <= TOLERANCE


class TestFragmentationEquivalence:
    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=10, max_size=150),
        buffer_size=st.integers(10, 64),
        cut_points=st.lists(st.integers(0, 149), max_size=10),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_arbitrary_uneven_splits(
        self, payload, buffer_size, cut_points, set_index
    ):
        assert_matches_batch(
            FEATURE_SETS[set_index],
            buffer_size,
            fragments(payload, cut_points),
        )

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=10, max_size=80),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_one_byte_packets(self, payload, set_index):
        chunks = [payload[i : i + 1] for i in range(len(payload))]
        assert_matches_batch(FEATURE_SETS[set_index], 32, chunks)

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=10, max_size=80),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_single_packet(self, payload, set_index):
        assert_matches_batch(FEATURE_SETS[set_index], 32, [payload])

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=40, max_size=200),
        cut_points=st.lists(st.integers(0, 199), max_size=6),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_payload_exceeding_buffer(self, payload, cut_points, set_index):
        # More raw bytes than b: folding must stop at exactly b, matching
        # the batch path's window truncation.
        buffer_size = 32
        feature_set = FEATURE_SETS[set_index]
        chunks = fragments(payload, cut_points)
        extractor, state = folded_state(feature_set, buffer_size, chunks)
        assert len(state.window) == buffer_size
        assert_matches_batch(feature_set, buffer_size, chunks)

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=10, max_size=31),
        cut_points=st.lists(st.integers(0, 30), max_size=6),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_timeout_path_partial_buffer(self, payload, cut_points, set_index):
        # Fewer raw bytes than b (the inactivity-timeout shape): finalize
        # must match batch extraction over the partial window.
        feature_set = FEATURE_SETS[set_index]
        chunks = fragments(payload, cut_points)
        extractor, state = folded_state(feature_set, 32, chunks)
        assert len(state.window) == len(payload)
        assert_matches_batch(feature_set, 32, chunks)


class TestFoldBatchEquivalence:
    """fold_batch(states, chunk-lists) == per-chunk fold == batch windows."""

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payloads=st.lists(
            st.binary(min_size=10, max_size=90), min_size=1, max_size=6
        ),
        cut_points=st.lists(st.integers(0, 89), max_size=8),
        rounds=st.integers(1, 3),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_matches_scalar_fold_and_batch_window(
        self, payloads, cut_points, rounds, set_index
    ):
        feature_set = FEATURE_SETS[set_index]
        extractor = IncrementalEntropyExtractor(feature_set, 32)
        # Reference: per-chunk scalar folds.
        scalar_states = []
        for payload in payloads:
            _, state = folded_state(
                feature_set, 32, fragments(payload, cut_points)
            )
            scalar_states.append(state)
        # Under test: the same chunks split (in arrival order) over
        # `rounds` fold_batch calls, delivered as memoryviews (the
        # zero-copy pcap shape).
        batch_states = [extractor.new_state() for _ in payloads]
        per_flow = [fragments(payload, cut_points) for payload in payloads]
        for r in range(rounds):
            chunk_lists = [
                [
                    memoryview(c)
                    for c in chunks[
                        r * len(chunks) // rounds :
                        (r + 1) * len(chunks) // rounds
                    ]
                ]
                for chunks in per_flow
            ]
            extractor.fold_batch(batch_states, chunk_lists)
        for scalar, batched in zip(scalar_states, batch_states):
            assert scalar.window == batched.window
        got, state_bytes = extractor.finalize(batch_states)
        want, _ = extractor.finalize(scalar_states)
        assert float(np.max(np.abs(got - want))) == 0.0
        assert state_bytes.tolist() == [
            extractor.state_bytes(state) for state in scalar_states
        ]
        direct = np.stack(
            [
                entropy_vector(payload[:32], feature_set).values
                for payload in payloads
            ]
        )
        assert float(np.max(np.abs(got - direct))) <= TOLERANCE

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payloads=st.lists(
            st.binary(min_size=10, max_size=60), min_size=1, max_size=5
        ),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_state_bytes_batch_matches_per_flow(self, payloads, set_index):
        feature_set = FEATURE_SETS[set_index]
        extractor = IncrementalEntropyExtractor(feature_set, 32)
        states = [extractor.new_state() for _ in payloads]
        extractor.fold_batch(states, [[p] for p in payloads])
        _, batched = extractor.finalize(states)
        per_flow = np.array([extractor.state_bytes(s) for s in states])
        assert batched.shape == (len(payloads),)
        assert float(np.max(np.abs(batched - per_flow))) == 0.0

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=40, max_size=200),
        cut_points=st.lists(st.integers(0, 199), max_size=6),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_caps_at_buffer_size(self, payload, cut_points, set_index):
        feature_set = FEATURE_SETS[set_index]
        extractor = IncrementalEntropyExtractor(feature_set, 32)
        state = extractor.new_state()
        extractor.fold_batch([state], [fragments(payload, cut_points)])
        assert len(state.window) == 32
        expected = entropy_vector(payload[:32], feature_set).values
        got = extractor.finalize([state])[0][0]
        assert float(np.max(np.abs(got - expected))) <= TOLERANCE


class TestFinalizeBatch:
    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payloads=st.lists(
            st.binary(min_size=10, max_size=60), min_size=1, max_size=6
        ),
        set_index=st.integers(0, len(FEATURE_SETS) - 1),
    )
    def test_finalize_stacks_per_flow_vectors(self, payloads, set_index):
        feature_set = FEATURE_SETS[set_index]
        extractor = IncrementalEntropyExtractor(feature_set, 32)
        states = []
        for payload in payloads:
            state = extractor.new_state()
            for i in range(0, len(payload), 7):
                extractor.fold(state, payload[i : i + 7])
            states.append(state)
        matrix, _ = extractor.finalize(states)
        assert matrix.shape == (len(payloads), len(feature_set.widths))
        for row, payload in zip(matrix, payloads):
            expected = entropy_vector(payload[:32], feature_set).values
            assert float(np.max(np.abs(row - expected))) <= TOLERANCE


class TestEngineFragmentation:
    """Both extractors, through the engine: the window is the flow's bytes."""

    @settings(deadline=None)  # examples: the profile's (100, ci 1,000)
    @given(
        payload=st.binary(min_size=5, max_size=120),
        cut_points=st.lists(st.integers(0, 119), max_size=10),
        extractor=st.sampled_from(["batch", "incremental"]),
    )
    @example(payload=bytes(range(120)), cut_points=[40, 80], extractor="batch")
    def test_window_and_vector_ignore_how_packets_cut_the_flow(
        self, trained_cart, payload, cut_points, extractor
    ):
        engine = StagedEngine(
            trained_cart,
            EngineConfig(
                extractor=extractor,
                pipeline=IustitiaConfig(strip_known_headers=False),
            ),
        )
        handed = []
        classify_labels = engine.classify_labels

        def recording(batch):
            handed.extend(flow.window for flow in batch)
            return classify_labels(batch)

        engine.classify_labels = recording
        ip = Ipv4Header(src="10.9.0.1", dst="192.168.0.1", protocol=17)
        chunks = fragments(payload, cut_points)
        for i, chunk in enumerate(chunks):
            engine.process_packet(Packet(ip, UdpHeader(4000, 53), chunk, i * 1e-5))
        engine.finish(1.0)
        (outcome,) = engine.stats.classified
        # Buffered up to the packet that filled the window; the rest are
        # the CDB hits of a flow queued for its label.
        buffered = 0
        for chunk in chunks:
            buffered += len(chunk)
            if buffered >= engine.config.buffer_size:
                break
        assert outcome.buffered_bytes == buffered

        window = payload[: engine.extractor.buffer_size]
        assert engine.extractor.windows(handed) == [window]
        got = engine.extractor.finalize(handed)[0][0]
        expected = entropy_vector(window, trained_cart.feature_set).values
        assert float(np.max(np.abs(got - expected))) <= TOLERANCE
