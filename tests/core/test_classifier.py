"""Tests for the IustitiaClassifier (feature extraction + model binding)."""

import numpy as np
import pytest

from repro.core.classifier import IustitiaClassifier, TrainingMethod
from repro.core.estimation import EntropyEstimator
from repro.core.features import PHI_SVM_PRIME
from repro.core.labels import BINARY, ENCRYPTED, TEXT, FlowNature
from repro.data.corpus import build_corpus


class TestConstruction:
    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            IustitiaClassifier(model="forest")

    def test_buffer_must_hold_widest_feature(self):
        with pytest.raises(ValueError, match="widest feature"):
            IustitiaClassifier(buffer_size=4, feature_set=PHI_SVM_PRIME)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="header_threshold"):
            IustitiaClassifier(header_threshold=-1)


class TestTraining:
    def test_fit_files_label_mismatch(self):
        clf = IustitiaClassifier(model="cart", buffer_size=32)
        with pytest.raises(ValueError, match="labels"):
            clf.fit_files([b"x" * 64], [TEXT, BINARY])

    def test_fit_empty_rejected(self):
        clf = IustitiaClassifier(model="cart", buffer_size=32)
        with pytest.raises(ValueError, match="non-empty"):
            clf.fit_files([], [])

    def test_svm_classifies_all_three_natures(self, trained_svm, small_corpus):
        predictions = {
            nature: trained_svm.classify_file(small_corpus.by_nature(nature)[0].data)
            for nature in (TEXT, BINARY, ENCRYPTED)
        }
        assert all(isinstance(p, FlowNature) for p in predictions.values())

    def test_svm_training_accuracy_high(self, trained_svm, small_corpus):
        files = [f.data for f in small_corpus]
        labels = [f.nature for f in small_corpus]
        assert trained_svm.score_files(files, labels) > 0.8

    def test_cart_training_accuracy_high(self, trained_cart, small_corpus):
        files = [f.data for f in small_corpus]
        labels = [f.nature for f in small_corpus]
        assert trained_cart.score_files(files, labels) > 0.75

    def test_whole_file_training_method(self, small_corpus):
        clf = IustitiaClassifier(
            model="cart", buffer_size=32, training=TrainingMethod.WHOLE_FILE
        ).fit_corpus(small_corpus)
        sample = small_corpus.by_nature(ENCRYPTED)[0]
        assert isinstance(clf.classify_file(sample.data), FlowNature)

    def test_random_offset_training_method(self, small_corpus):
        clf = IustitiaClassifier(
            model="cart",
            buffer_size=64,
            training=TrainingMethod.RANDOM_OFFSET,
            header_threshold=256,
            rng=np.random.default_rng(5),
        ).fit_corpus(small_corpus)
        sample = small_corpus.by_nature(TEXT)[0]
        assert isinstance(clf.classify_file(sample.data), FlowNature)


class TestTrainingEqualsServing:
    """The matrix ``fit_files`` hands the model is what serving computes.

    Training windows and flow buffers go through one kernel, so a
    training vector equals, bit for bit, the vector ``buffer_vectors``
    computes for the same bytes at classification time.
    """

    @pytest.fixture(scope="class")
    def corpus(self):
        return build_corpus(per_class=60, seed=7)

    @pytest.mark.parametrize(
        "training", [TrainingMethod.FIRST_B, TrainingMethod.RANDOM_OFFSET]
    )
    def test_fit_matrix_equals_buffer_vectors(self, corpus, training):
        clf = IustitiaClassifier(
            model="cart", buffer_size=32, training=training, header_threshold=64,
            rng=np.random.default_rng(5),
        )
        handed = []
        fit = clf._model.fit
        clf._model.fit = lambda X, y: (handed.append(X), fit(X, y))[1]
        files = [item.data for item in corpus]
        clf.fit_files(files, [item.nature for item in corpus])
        (X,) = handed
        if training is TrainingMethod.FIRST_B:
            windows = [data[:32] for data in files]
        else:
            draws = np.random.default_rng(5)
            offsets = [
                int(draws.integers(0, min(64, len(data) - 32) + 1)) for data in files
            ]
            windows = [data[o : o + 32] for data, o in zip(files, offsets)]
        assert np.array_equal(X, clf.buffer_vectors(windows))


class TestBufferClassification:
    def test_buffer_truncated_to_buffer_size(self, trained_svm, sample_files):
        data = sample_files["encrypted"]
        full = trained_svm.buffer_vector(data)
        prefix_only = trained_svm.buffer_vector(data[:32])
        np.testing.assert_allclose(full, prefix_only)

    def test_short_buffer_rejected(self, trained_svm):
        with pytest.raises(ValueError, match="cannot hold"):
            trained_svm.classify_buffer(b"abc")

    def test_encrypted_buffer_classified_encrypted(self, trained_svm, sample_files):
        assert trained_svm.classify_buffer(sample_files["encrypted"][:32]) == ENCRYPTED

    def test_most_text_buffers_classified_text(self, trained_svm, small_corpus):
        # Individual 32-byte text buffers can misclassify (the paper reports
        # a 4% text error rate); the majority must not.
        text_files = small_corpus.by_nature(TEXT)
        hits = sum(
            trained_svm.classify_buffer(f.data[:32]) == TEXT for f in text_files
        )
        assert hits > len(text_files) * 0.7

    def test_predict_vectors_batch(self, trained_svm, sample_files):
        X = np.vstack(
            [trained_svm.buffer_vector(d) for d in sample_files.values()]
        )
        predictions = trained_svm.predict_vectors(X)
        assert len(predictions) == 3
        assert all(isinstance(p, FlowNature) for p in predictions)


class TestBatchClassification:
    def test_classify_buffers_matches_per_buffer(self, trained_svm, small_corpus):
        buffers = [f.data[:40] for f in list(small_corpus)[:12]]
        batched = trained_svm.classify_buffers(buffers)
        scalar = [trained_svm.classify_buffer(b) for b in buffers]
        assert batched == scalar

    def test_classify_buffers_matches_cart(self, trained_cart, small_corpus):
        buffers = [f.data[:40] for f in list(small_corpus)[:12]]
        assert trained_cart.classify_buffers(buffers) == [
            trained_cart.classify_buffer(b) for b in buffers
        ]

    def test_buffer_vectors_match_per_buffer(self, trained_svm, small_corpus):
        buffers = [f.data[:40] for f in list(small_corpus)[:8]]
        batched = trained_svm.buffer_vectors(buffers)
        scalar = np.vstack([trained_svm.buffer_vector(b) for b in buffers])
        assert np.abs(batched - scalar).max() <= 1e-12

    def test_empty_batch(self, trained_svm):
        assert trained_svm.classify_buffers([]) == []
        vectors = trained_svm.buffer_vectors([])
        assert vectors.shape == (0, len(trained_svm.feature_set.widths))

    def test_short_buffer_named_in_error(self, trained_svm, sample_files):
        with pytest.raises(ValueError, match="buffer 1"):
            trained_svm.classify_buffers([sample_files["text"][:40], b"abc"])


class TestEstimatedClassification:
    def test_estimator_used_at_classification_time(self, small_corpus):
        # The paper benches' path: train on exact vectors, classify
        # (delta, epsilon)-estimated ones.
        clf = IustitiaClassifier(model="svm", buffer_size=1024).fit_corpus(
            small_corpus
        )
        estimator = EntropyEstimator(
            epsilon=0.25,
            delta=0.25,
            buffer_size=1024,
            features=PHI_SVM_PRIME,
            rng=np.random.default_rng(0),
        )
        X = np.vstack(
            [estimator.estimate_vector(f.data[:1024]).values for f in small_corpus]
        )
        predictions = clf.predict_vectors(X)
        labels = [f.nature for f in small_corpus]
        accuracy = np.mean([p == l for p, l in zip(predictions, labels)])
        # Estimation degrades accuracy but must stay far above chance (1/3).
        assert accuracy > 0.6
