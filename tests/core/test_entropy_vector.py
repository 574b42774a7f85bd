"""Tests for entropy-vector extraction (H_F, H_b, H_b')."""

import numpy as np
import pytest

from repro.core.classifier import IustitiaClassifier, TrainingMethod
from repro.core.entropy import kgram_entropy
from repro.core.entropy_vector import (
    EntropyVector,
    entropy_vector,
    entropy_vectors_batch,
    training_windows,
)
from repro.core.features import (
    FEATURE_SETS,
    FULL_FEATURES,
    PHI_SVM_PRIME,
    FeatureSet,
)


class TestEntropyVector:
    def test_values_match_individual_features(self, sample_files):
        data = sample_files["binary"]
        vector = entropy_vector(data, PHI_SVM_PRIME)
        for width in PHI_SVM_PRIME.widths:
            assert vector[width] == pytest.approx(kgram_entropy(data, width))

    def test_full_vector_has_ten_features(self, sample_files):
        vector = entropy_vector(sample_files["text"])
        assert len(vector) == 10
        assert vector.widths == tuple(range(1, 11))

    def test_getitem_by_width_not_position(self, sample_files):
        vector = entropy_vector(sample_files["text"], FeatureSet("t", (1, 5)))
        assert vector[5] == pytest.approx(kgram_entropy(sample_files["text"], 5))
        with pytest.raises(KeyError, match="h_3"):
            vector[3]

    def test_as_array_returns_copy(self, sample_files):
        vector = entropy_vector(sample_files["text"], PHI_SVM_PRIME)
        arr = vector.as_array()
        arr[0] = -1.0
        assert vector.values[0] != -1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="values"):
            EntropyVector(values=np.zeros(3), widths=(1, 2))


class TestPrefixVector:
    """``H_b`` windows: the first ``b`` bytes of every file."""

    def test_uses_only_first_b_bytes(self, sample_files):
        data = sample_files["encrypted"]
        (window,) = training_windows([data], 64)
        assert window == data[:64]
        np.testing.assert_allclose(
            entropy_vectors_batch([window], PHI_SVM_PRIME)[0],
            entropy_vector(data[:64], PHI_SVM_PRIME).values,
        )

    def test_short_data_uses_everything(self):
        data = b"short text data here"
        assert training_windows([data], 4096) == [data]

    def test_buffer_smaller_than_widest_feature_rejected(self):
        with pytest.raises(ValueError, match="widest feature"):
            IustitiaClassifier(feature_set=PHI_SVM_PRIME, buffer_size=4)


class TestRandomOffsetVector:
    """``H_b'`` windows: ``b`` bytes at an offset drawn in ``[0, T]``."""

    def test_zero_max_header_is_prefix(self, sample_files, rng):
        data = sample_files["binary"]
        assert training_windows([data], 64, 0, rng) == training_windows([data], 64)

    def test_offset_stays_within_bounds(self, rng):
        # With max_header much larger than the file, the window must clip.
        data = bytes(range(64)) * 2
        for window in training_windows([data] * 50, 64, 10_000, rng):
            assert len(window) == 64
            assert window in data

    def test_varies_with_rng(self, sample_files):
        data = sample_files["text"]
        seen = {
            training_windows([data], 64, 512, np.random.default_rng(seed))[0]
            for seed in range(8)
        }
        assert len(seen) > 1

    def test_negative_max_header_rejected(self, sample_files, rng):
        with pytest.raises(ValueError, match="max_header"):
            training_windows([sample_files["text"]], 64, -1, rng)

    def test_buffer_validation(self, sample_files, rng):
        with pytest.raises(ValueError, match="header_threshold"):
            IustitiaClassifier(
                feature_set=PHI_SVM_PRIME,
                training=TrainingMethod.RANDOM_OFFSET,
                header_threshold=-1,
            )
        with pytest.raises(ValueError, match="cannot hold feature h_5"):
            entropy_vectors_batch(
                training_windows([sample_files["text"]], 4, 0, rng), PHI_SVM_PRIME
            )

    def test_one_draw_per_file_in_order(self, sample_files):
        files = list(sample_files.values())
        windows = training_windows(files, 32, 100, np.random.default_rng(9))
        draws = np.random.default_rng(9)
        for data, window in zip(files, windows):
            offset = int(draws.integers(0, min(100, len(data) - 32) + 1))
            assert window == data[offset : offset + 32]


class TestBatchExtraction:
    def test_matches_per_sample_on_real_files(self, sample_files):
        buffers = [data[:256] for data in sample_files.values()]
        batched = entropy_vectors_batch(buffers, FULL_FEATURES)
        for row, buffer in zip(batched, buffers):
            scalar = entropy_vector(buffer, FULL_FEATURES).values
            assert np.abs(row - scalar).max() <= 1e-12

    def test_all_named_feature_sets(self, sample_files):
        buffers = [data[:64] for data in sample_files.values()]
        for features in FEATURE_SETS.values():
            batched = entropy_vectors_batch(buffers, features)
            for row, buffer in zip(batched, buffers):
                scalar = entropy_vector(buffer, features).values
                assert np.abs(row - scalar).max() <= 1e-12

    def test_mixed_lengths_grouped_and_reordered(self, sample_files):
        # Mixed lengths share one pool; the output must still line up with
        # the input order.
        data = sample_files["binary"]
        buffers = [data[:48], data[:200], data[:48], data[:131], data[:200]]
        batched = entropy_vectors_batch(buffers, PHI_SVM_PRIME)
        for row, buffer in zip(batched, buffers):
            scalar = entropy_vector(buffer, PHI_SVM_PRIME).values
            assert np.abs(row - scalar).max() <= 1e-12

    def test_wider_than_two_words_falls_back(self, sample_files):
        # k = 17 takes three key words, in the same pooled reduction.
        features = FeatureSet("wide", (1, 17))
        buffers = [data[:64] for data in sample_files.values()]
        batched = entropy_vectors_batch(buffers, features)
        for row, buffer in zip(batched, buffers):
            scalar = entropy_vector(buffer, features).values
            assert np.abs(row - scalar).max() <= 1e-12

    def test_empty_batch(self):
        batched = entropy_vectors_batch([], PHI_SVM_PRIME)
        assert batched.shape == (0, len(PHI_SVM_PRIME))

    def test_short_buffer_named_in_error(self):
        with pytest.raises(ValueError, match="buffer 1"):
            entropy_vectors_batch([b"x" * 64, b"xy"], PHI_SVM_PRIME)


class TestClassGeometry:
    """Hypothesis 1: text < binary < encrypted in entropy space."""

    def test_h1_ordering_on_samples(self, sample_files):
        h1 = {
            name: entropy_vector(data, FeatureSet("h1", (1,)))[1]
            for name, data in sample_files.items()
        }
        assert h1["text"] < h1["binary"] < h1["encrypted"]

    def test_corpus_mean_ordering(self, small_corpus):
        from repro.core.labels import BINARY, ENCRYPTED, TEXT

        means = {}
        for nature in (TEXT, BINARY, ENCRYPTED):
            files = small_corpus.by_nature(nature)
            means[nature] = np.mean([kgram_entropy(f.data, 1) for f in files])
        assert means[TEXT] < means[BINARY] < means[ENCRYPTED]
