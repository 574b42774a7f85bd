"""Differential tests: the pooled entropy reduction against the scalar twin.

``entropy_vectors_batch`` and ``IncrementalEntropyExtractor.finalize``
are one window kernel (``repro.core.entropy_vector.window_entropies``)
reducing through ``repro.core.entropy.pooled_kgram_entropies``; the
oracle is ``entropy_vector``, one buffer and one width at a time. The
five named feature sets and the drawn width sets up to ``h_20`` reach
every key shape: one word with bit headroom (widest width < 8) and the
in-place sort, one full word (``h_8``) and two or three words with the
group-first lexsort — each on equal windows (the cached matrix layout)
and on uneven ones (joined bytes, one layout per call).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import IustitiaClassifier
from repro.core.entropy import kgram_count_values, kgram_entropy
from repro.core.entropy_vector import (
    _packed_layout,
    entropy_vector,
    entropy_vectors_batch,
    window_entropies,
)
from repro.core.extract import IncrementalEntropyExtractor
from repro.core.features import FEATURE_SETS, PHI_SVM_PRIME, FeatureSet
from repro.data.corpus import build_corpus

TOLERANCE = 1e-12

#: Computed on the per-width kernels this reduction replaced.
GOLDEN_LABELS_SHA256 = (
    "b9aa3a3b47a920a3df4dd62f394c5f7c56be9b361d6eab2e5ef32a823da720d4"
)

feature_sets = pytest.mark.parametrize("name", sorted(FEATURE_SETS))


def oracle(buffers, features) -> np.ndarray:
    return np.array([entropy_vector(b, features).values for b in buffers])


def assert_close(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.shape == expected.shape
    assert np.abs(got - expected).max(initial=0.0) <= TOLERANCE


@st.composite
def batches(draw, max_width: int):
    """1-64 buffers: equal lengths or mixed, down to ``max_width`` bytes."""
    n = draw(st.integers(1, 64))
    if draw(st.booleans()):
        lengths = [draw(st.integers(max_width, 96))] * n
    else:
        lengths = draw(
            st.lists(st.integers(max_width, 48), min_size=n, max_size=n)
        )
    # A small alphabet makes repeated grams (runs longer than one) common.
    alphabet = draw(st.sampled_from((2, 16, 256)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return [rng.integers(0, alphabet, size=m, dtype=np.uint8).tobytes() for m in lengths]


class TestBatchKernel:
    @feature_sets
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_scalar_twin(self, name, data):
        features = FEATURE_SETS[name]
        buffers = data.draw(batches(features.max_width))
        assert_close(entropy_vectors_batch(buffers, features), oracle(buffers, features))

    @feature_sets
    def test_buffers_of_exactly_max_width(self, name):
        features = FEATURE_SETS[name]
        rng = np.random.default_rng(5)
        buffers = [rng.bytes(features.max_width) for _ in range(9)]
        got = entropy_vectors_batch(buffers, features)
        assert_close(got, oracle(buffers, features))
        # One gram of the widest width: a single element, exactly zero.
        assert (got[:, features.widths.index(features.max_width)] == 0.0).all()

    @feature_sets
    @settings(deadline=None)
    @given(value=st.integers(0, 255), length=st.integers(16, 64), n=st.integers(1, 8))
    def test_constant_rows_are_exactly_zero(self, name, value, length, n):
        features = FEATURE_SETS[name]
        rng = np.random.default_rng(value)
        buffers = [bytes([value]) * length] * n + [rng.bytes(length)]
        got = entropy_vectors_batch(buffers, features)
        assert (got[:n] == 0.0).all()
        assert_close(got, oracle(buffers, features))

    def test_accepts_every_bytes_like(self):
        raw = [bytes(range(40)), bytes(range(7, 47))]
        expected = oracle(raw, PHI_SVM_PRIME)
        for view in (bytearray, memoryview, lambda b: np.frombuffer(b, dtype=np.uint8)):
            got = entropy_vectors_batch([view(b) for b in raw], PHI_SVM_PRIME)
            assert_close(got, expected)


def distinct_grams(buffers, widths) -> "list[int]":
    return [sum(kgram_count_values(b, k).size for k in widths) for b in buffers]


class TestUnevenWindowsPool:
    """Windows of mixed lengths reduce in one pool; nobody can tell.

    The timeout / FIN / end-of-stream drain, and whole-file training
    windows. The pool must give, bit for bit, what extracting each
    length on its own gives (the equal-length matrix path), and count
    each window's distinct grams.
    """

    @feature_sets
    @settings(deadline=None)
    @given(data=st.data())
    def test_equals_scalar_twin_and_per_length_result(self, name, data):
        features = FEATURE_SETS[name]
        widths = tuple(features.widths)
        lengths = data.draw(
            st.lists(st.integers(features.max_width, 64), min_size=1, max_size=40)
        )
        alphabet = data.draw(st.sampled_from((2, 16, 256)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        raw = [
            rng.integers(0, alphabet, size=m, dtype=np.uint8).tobytes()
            for m in lengths
        ]
        views = data.draw(
            st.lists(
                st.sampled_from((bytes, bytearray, memoryview)),
                min_size=len(raw), max_size=len(raw),
            )
        )
        windows = [view(b) for view, b in zip(views, raw)]

        got, distinct = window_entropies(windows, widths)
        assert_close(got, oracle(raw, features))
        # Whichever path the observed lengths select, the same answer.
        per_length = np.empty_like(got)
        for length in set(lengths):
            rows = [i for i, m in enumerate(lengths) if m == length]
            per_length[rows] = entropy_vectors_batch([raw[i] for i in rows], features)
        assert (got == per_length).all()
        assert distinct.sum(axis=0).tolist() == distinct_grams(raw, widths)
        assert (entropy_vectors_batch(windows, features) == got).all()

    @pytest.mark.parametrize(
        "features",
        [*FEATURE_SETS.values(), FeatureSet("void", (1, 17))],
        ids=lambda features: features.name,
    )
    def test_counts_on_every_path(self, features):
        """Distinct grams per window: equal windows and uneven ones."""
        widths = tuple(features.widths)
        rng = np.random.default_rng(11)
        for lengths in ([24] * 5, [features.max_width, 24, 17, 24, 40]):
            raw = [
                rng.integers(0, 4, size=m, dtype=np.uint8).tobytes() for m in lengths
            ]
            got, distinct = window_entropies(raw, widths)
            assert_close(got, oracle(raw, features))
            assert distinct.sum(axis=0).tolist() == distinct_grams(raw, widths)


class TestAnyWidth:
    """Every width through the one reduction, up to three key words.

    ``h_9`` / ``h_16`` / ``h_17`` sit on the word boundaries: a gram one
    byte into its second word, a full second word, one byte into a third.
    """

    @settings(deadline=None)
    @given(
        data=st.data(),
        widths=st.lists(
            st.one_of(st.sampled_from((8, 9, 16, 17)), st.integers(1, 20)),
            min_size=1, max_size=6, unique=True,
        ),
        equal=st.booleans(),
    )
    def test_matches_oracle_and_counts(self, data, widths, equal):
        widths = tuple(widths)
        widest = max(widths)
        n = data.draw(st.integers(1, 24))
        if equal:
            lengths = [data.draw(st.integers(widest, widest + 60))] * n
        else:
            lengths = data.draw(
                st.lists(st.integers(widest, widest + 60), min_size=n, max_size=n)
            )
        alphabet = data.draw(st.sampled_from((2, 16, 256)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        raw = [
            rng.integers(0, alphabet, size=m, dtype=np.uint8).tobytes()
            for m in lengths
        ]
        got, distinct = window_entropies(raw, widths)
        expected = np.array([[kgram_entropy(b, k) for k in widths] for b in raw])
        assert_close(got, expected)
        assert distinct.sum(axis=0).tolist() == distinct_grams(raw, widths)


class TestLayoutStore:
    """The batch kernel keeps each drain shape's layout; nobody can tell.

    ``_packed_layout`` is a bounded ``lru_cache`` keyed by (rows, window
    length, packed widths): a hit must give what a cold store gives, the
    kept arrays must never reach a caller, and the store must stay small
    whatever shapes arrive.
    """

    #: (rows, window length) of successive drains; the first shape returns.
    SHAPES = [(32, 32), (5, 32), (32, 17), (1, 5), (32, 32)]

    @staticmethod
    def drain(rows: int, length: int, seed: int) -> "list[bytes]":
        rng = np.random.default_rng(seed)
        return [
            rng.integers(0, 16, size=length, dtype=np.uint8).tobytes()
            for _ in range(rows)
        ]

    @feature_sets
    def test_alternating_shapes_equal_a_cold_store(self, name):
        features = FEATURE_SETS[name]
        shapes = [
            (rows, max(length, features.max_width)) for rows, length in self.SHAPES
        ]
        drains = [self.drain(*shape, seed=i) for i, shape in enumerate(shapes)]
        _packed_layout.cache_clear()
        warm = [entropy_vectors_batch(buffers, features) for buffers in drains]
        assert _packed_layout.cache_info().hits >= (
            1 if any(k <= 8 for k in features.widths) else 0
        )
        for buffers, got in zip(drains, warm):
            _packed_layout.cache_clear()
            cold = entropy_vectors_batch(buffers, features)
            assert (got == cold).all()
            assert_close(got, oracle(buffers, features))

    def test_mutating_a_result_does_not_reach_the_next_call(self):
        buffers = self.drain(32, 32, seed=3)
        _packed_layout.cache_clear()
        first = entropy_vectors_batch(buffers, PHI_SVM_PRIME)
        expected = first.copy()
        first[:] = -7.0
        again = entropy_vectors_batch(buffers, PHI_SVM_PRIME)
        assert (again == expected).all()
        again[:] = np.nan
        assert (entropy_vectors_batch(buffers, PHI_SVM_PRIME) == expected).all()

    def test_store_stays_bounded_over_a_thousand_shapes(self):
        _packed_layout.cache_clear()
        bound = _packed_layout.cache_info().maxsize
        assert bound is not None and bound <= 64
        shapes = [(rows, length) for rows in range(1, 26) for length in range(5, 45)]
        assert len(set(shapes)) == 1000
        for rows, length in shapes:
            buffers = [bytes(length)] * rows
            assert (entropy_vectors_batch(buffers, PHI_SVM_PRIME) == 0.0).all()
        info = _packed_layout.cache_info()
        assert info.misses == 1000 and info.currsize <= bound


class TestIncrementalFinalize:
    @feature_sets
    @settings(deadline=None)
    @given(data=st.data())
    def test_finalize_batch_matches_scalar_twin(self, name, data):
        features = FEATURE_SETS[name]
        buffers = data.draw(batches(features.max_width))
        # Fragmentation has its own suite (test_extractor_properties): two
        # chunks per flow are enough to cross a packet boundary here.
        cut = data.draw(st.integers(0, features.max_width))
        extractor = IncrementalEntropyExtractor(features, buffer_size=96)
        states = []
        for buffer in buffers:
            state = extractor.new_state()
            extractor.fold(state, buffer[:cut])
            extractor.fold(state, buffer[cut:])
            states.append(state)
        assert_close(extractor.finalize(states)[0], oracle(buffers, features))


def test_classify_buffers_golden_digest():
    """Labels of ~1,900 windows through the whole batched path, pinned.

    The tolerance above lets a feature move in its last bits; this pins
    what must not move at all. The corpus and the model are the
    benchmark's ``--quick`` ones (``bench/workloads.py``).
    """
    corpus = build_corpus(per_class=20, seed=7)
    classifier = IustitiaClassifier(
        model="svm", feature_set=PHI_SVM_PRIME, buffer_size=32
    ).fit_corpus(corpus)
    windows = [
        item.data[offset : offset + 32]
        for item in corpus
        for offset in range(0, 1024, 32)
    ]
    labels = classifier.classify_buffers(windows)
    digest = hashlib.sha256(bytes(int(label) for label in labels)).hexdigest()
    assert len(labels) == 1920
    assert digest == GOLDEN_LABELS_SHA256
