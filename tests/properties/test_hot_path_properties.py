"""Property tests: batched hot paths match their scalar counterparts.

Every vectorized path added for throughput — batched entropy-vector
extraction, the compiled CART predictor, and the
per-level DAGSVM descent — must agree with the straightforward scalar
implementation it replaced, on arbitrary inputs.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entropy_vector import entropy_vector, entropy_vectors_batch
from repro.core.features import FEATURE_SETS
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import RbfKernel
from repro.ml.tree.cart import DecisionTreeClassifier

byte_blobs = st.binary(min_size=16, max_size=256)
unit_rows = st.lists(
    st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    min_size=1,
    max_size=24,
)


class TestBatchedExtraction:
    @pytest.mark.parametrize("name", sorted(FEATURE_SETS))
    @settings(max_examples=25, deadline=None)
    @given(blobs=st.lists(byte_blobs, min_size=1, max_size=6))
    def test_matches_per_sample_vectors(self, name, blobs):
        features = FEATURE_SETS[name]
        batched = entropy_vectors_batch(blobs, features)
        for i, blob in enumerate(blobs):
            scalar = entropy_vector(blob, features).values
            assert np.abs(batched[i] - scalar).max() <= 1e-12

    @given(blobs=st.lists(byte_blobs, min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_mixed_lengths_keep_input_order(self, blobs):
        features = FEATURE_SETS["full"]
        batched = entropy_vectors_batch(blobs, features)
        assert batched.shape == (len(blobs), len(features.widths))
        for i, blob in enumerate(blobs):
            scalar = entropy_vector(blob, features).values
            assert np.abs(batched[i] - scalar).max() <= 1e-12


@functools.lru_cache(maxsize=1)
def _fitted_cart():
    rng = np.random.default_rng(2009)
    centers = rng.random((3, 4))
    y = rng.integers(0, 3, 400)
    X = np.clip(centers[y] + rng.normal(0.0, 0.1, (400, 4)), 0.0, 1.0)
    return DecisionTreeClassifier().fit(X, y)


@functools.lru_cache(maxsize=1)
def _fitted_dagsvm():
    rng = np.random.default_rng(2009)
    centers = rng.random((3, 4))
    y = rng.integers(0, 3, 60)
    X = np.clip(centers[y] + rng.normal(0.0, 0.05, (60, 4)), 0.0, 1.0)
    clf = DagSvmClassifier(C=1000.0, kernel=RbfKernel(gamma=50.0))
    clf.fit(X, y)
    return clf


class TestCompiledCart:
    @given(rows=unit_rows)
    @settings(max_examples=50, deadline=None)
    def test_compiled_matches_node_walk(self, rows):
        clf = _fitted_cart()
        X = np.array(rows, dtype=np.float64)
        np.testing.assert_array_equal(clf.predict(X), clf.predict_nodewalk(X))

    @given(rows=unit_rows)
    @settings(max_examples=25, deadline=None)
    def test_proba_argmax_consistent(self, rows):
        clf = _fitted_cart()
        X = np.array(rows, dtype=np.float64)
        proba = clf.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        picked = clf.classes_[np.argmax(proba, axis=1)]
        # argmax tie-breaking matches the leaf majority vote used by predict
        np.testing.assert_array_equal(picked, clf.predict(X))


class TestBatchedDagsvm:
    @given(rows=unit_rows)
    @settings(max_examples=50, deadline=None)
    def test_batched_matches_scalar_walk(self, rows):
        clf = _fitted_dagsvm()
        X = np.array(rows, dtype=np.float64)
        np.testing.assert_array_equal(clf.predict(X), clf.predict_scalar(X))
