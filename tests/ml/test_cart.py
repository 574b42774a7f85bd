"""Tests for the CART decision tree."""

import numpy as np
import pytest

from repro.ml.base import NotFittedError
from repro.ml.tree.cart import CompiledTree, DecisionTreeClassifier


class TestFitPredict:
    def test_separable_data_perfect(self):
        X = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        clf = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(clf.predict(X), y)
        assert clf.depth == 1

    def test_threshold_at_midpoint(self):
        X = np.array([[0.0], [1.0]])
        clf = DecisionTreeClassifier().fit(X, [0, 1])
        assert clf.root_.threshold == pytest.approx(0.5)

    def test_three_classes(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier().fit(X, y)
        assert clf.score(X, y) > 0.9

    def test_predict_proba_rows_sum_to_one(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(max_depth=3).fit(X, y)
        probs = clf.predict_proba(X[:10])
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_labels_preserved(self):
        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array([7, 42, 7, 42])
        clf = DecisionTreeClassifier().fit(X, y)
        assert set(clf.predict(X).tolist()) == {7, 42}

    def test_single_class_gives_stump(self):
        X = np.random.default_rng(0).random((10, 3))
        clf = DecisionTreeClassifier().fit(X, np.zeros(10, dtype=int))
        assert clf.root_.is_leaf
        assert (clf.predict(X) == 0).all()

    def test_unfitted_predict_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_feature_count_checked(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(max_depth=2).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            clf.predict(np.zeros((2, X.shape[1] + 1)))


class TestHyperparameters:
    def test_max_depth_respected(self, blob_features):
        X, y = blob_features
        for depth in (1, 2, 3):
            clf = DecisionTreeClassifier(max_depth=depth).fit(X, y)
            assert clf.depth <= depth

    def test_min_samples_leaf_respected(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(min_samples_leaf=10).fit(X, y)
        for node in clf.nodes():
            if node.is_leaf:
                assert node.n_samples >= 10

    def test_min_samples_split_blocks_small_nodes(self):
        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array([0, 1, 0, 1])
        clf = DecisionTreeClassifier(min_samples_split=10).fit(X, y)
        assert clf.root_.is_leaf

    def test_min_impurity_decrease_blocks_weak_splits(self, rng):
        # Pure noise: any split's gain is tiny.
        X = rng.random((100, 3))
        y = rng.integers(0, 2, 100)
        clf = DecisionTreeClassifier(min_impurity_decrease=0.2).fit(X, y)
        assert clf.root_.is_leaf

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="criterion"):
            DecisionTreeClassifier(criterion="mse")
        with pytest.raises(ValueError, match="max_depth"):
            DecisionTreeClassifier(max_depth=0)
        with pytest.raises(ValueError, match="min_samples_split"):
            DecisionTreeClassifier(min_samples_split=1)
        with pytest.raises(ValueError, match="min_samples_leaf"):
            DecisionTreeClassifier(min_samples_leaf=0)
        with pytest.raises(ValueError, match="min_impurity_decrease"):
            DecisionTreeClassifier(min_impurity_decrease=-0.1)

    def test_entropy_criterion_works(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(criterion="entropy").fit(X, y)
        assert clf.score(X, y) > 0.9


class TestCompiledTree:
    def test_structure_mirrors_nodes(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(max_depth=4).fit(X, y)
        compiled = clf.compile()
        assert isinstance(compiled, CompiledTree)
        assert compiled.feature.size == clf.node_count
        leaves = compiled.feature < 0
        assert leaves.sum() == sum(n.is_leaf for n in clf.nodes())
        # Internal nodes point at real children; leaves carry no split.
        internal = np.flatnonzero(~leaves)
        assert (compiled.left[internal] >= 0).all()
        assert (compiled.right[internal] >= 0).all()

    def test_predict_matches_node_walk(self, blob_features, rng):
        X, y = blob_features
        clf = DecisionTreeClassifier().fit(X, y)
        probe = rng.random((500, X.shape[1]))
        np.testing.assert_array_equal(
            clf.predict(probe), clf.predict_nodewalk(probe)
        )

    def test_proba_matches_leaf_frequencies(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = clf.predict_proba(X[:25])
        for row, expected in zip(X[:25], proba):
            leaf = clf._leaf_for(row)
            counts = np.asarray(leaf.class_counts, dtype=np.float64)
            np.testing.assert_allclose(expected, counts / counts.sum())

    def test_stump_predicts(self):
        clf = DecisionTreeClassifier().fit(np.zeros((6, 2)), np.full(6, 3))
        assert (clf.predict(np.random.default_rng(1).random((10, 2))) == 3).all()

    def test_compiled_cache_invalidated_on_refit(self, blob_features, rng):
        X, y = blob_features
        clf = DecisionTreeClassifier(max_depth=4).fit(X, y)
        probe = rng.random((50, X.shape[1]))
        clf.predict(probe)  # populate the compiled cache
        clf.fit(X, (y + 1) % 3)  # new tree object -> cache must refresh
        np.testing.assert_array_equal(
            clf.predict(probe), clf.predict_nodewalk(probe)
        )

    def test_pruned_copy_compiles_independently(self, blob_features):
        from repro.ml.tree.pruning import prune_to_accuracy

        X, y = blob_features
        clf = DecisionTreeClassifier().fit(X, y)
        clf.predict(X[:5])
        pruned = prune_to_accuracy(clf, X, y, max_drop=0.05)
        np.testing.assert_array_equal(
            pruned.predict(X), pruned.predict_nodewalk(X)
        )
        # The original classifier's compiled tree is untouched.
        np.testing.assert_array_equal(clf.predict(X), clf.predict_nodewalk(X))


class TestIntrospection:
    def test_node_count_consistent(self, blob_features):
        X, y = blob_features
        clf = DecisionTreeClassifier(max_depth=4).fit(X, y)
        nodes = clf.nodes()
        leaves = [n for n in nodes if n.is_leaf]
        internal = [n for n in nodes if not n.is_leaf]
        # A binary tree has one more leaf than internal nodes.
        assert len(leaves) == len(internal) + 1

    def test_feature_usage_weights_by_height(self):
        X = np.array(
            [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5, dtype=float
        )
        y = np.array([0, 1, 1, 2] * 5)
        clf = DecisionTreeClassifier().fit(X, y)
        usage = clf.feature_usage()
        root_feature = clf.root_.feature
        # The root split gets weight 1/(0+1) = 1; deeper splits less each.
        assert usage[root_feature] >= max(usage.values()) / 2


class TestToText:
    def test_renders_thresholds_and_leaves(self):
        import numpy as np

        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        y = np.array([0, 0, 1, 1])
        clf = DecisionTreeClassifier().fit(X, y)
        text = clf.to_text()
        assert "x[0] <= 0.5" in text
        assert "class 0" in text and "class 1" in text

    def test_feature_names_used(self):
        import numpy as np

        X = np.array([[0.0, 1.0], [0.1, 0.9], [0.9, 0.1], [1.0, 0.0]])
        y = np.array([0, 0, 1, 1])
        clf = DecisionTreeClassifier().fit(X, y)
        text = clf.to_text(feature_names=["h1", "h3"])
        assert "h1" in text or "h3" in text
        assert "x[" not in text

    def test_short_names_rejected(self):
        import numpy as np

        X = np.array([[0.0, 1.0], [1.0, 0.0]] * 3)
        y = np.array([0, 1] * 3)
        clf = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError, match="no name"):
            clf.to_text(feature_names=[])

    def test_unfitted_rejected(self):
        from repro.ml.base import NotFittedError

        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().to_text()

    def test_stump_renders_single_leaf(self):
        import numpy as np

        clf = DecisionTreeClassifier().fit(np.zeros((4, 1)), np.zeros(4, dtype=int))
        text = clf.to_text()
        assert text.startswith("-> class 0")


class TestDeepDegenerateTrees:
    """Regression: near-duplicate rows grow trees past the old recursion
    limit — construction, copying, and pruning must all stay iterative."""

    @staticmethod
    def _deep_tree():
        import numpy as np

        rng = np.random.default_rng(0)
        n = 600
        # One feature, values in a hair-thin band, alternating labels:
        # splits peel off a couple of samples at a time -> depth ~ n/2.
        X = np.sort(rng.random(n) * 1e-3).reshape(-1, 1)
        y = np.arange(n) % 2
        return DecisionTreeClassifier().fit(X, y), X, y

    def test_fit_survives(self):
        clf, X, y = self._deep_tree()
        assert clf.depth > 100  # genuinely degenerate
        assert clf.score(X, y) == 1.0

    def test_copy_survives(self):
        clf, _, _ = self._deep_tree()
        copied = clf.root_.copy()
        assert copied.node_id == clf.root_.node_id

    def test_pruning_survives(self):
        from repro.ml.tree.pruning import prune_to_accuracy, pruned_copy

        clf, X, y = self._deep_tree()
        pruned = pruned_copy(clf, {clf.root_.node_id})
        assert pruned.node_count == 1
        budgeted = prune_to_accuracy(clf, X, y, max_drop=0.5)
        assert budgeted.node_count <= clf.node_count


class TestAdjacentFloatValues:
    """Regression: midpoint thresholds between adjacent representable
    floats can round up to the larger value, producing an empty split."""

    def test_adjacent_floats_terminate(self):
        import numpy as np

        lower = 0.5
        upper = np.nextafter(0.5, 1.0)  # adjacent float: midpoint == upper
        X = np.array([[lower], [upper]] * 10)
        y = np.array([0, 1] * 10)
        clf = DecisionTreeClassifier().fit(X, y)
        assert clf.score(X, y) == 1.0
        # The chosen threshold must keep both children non-empty.
        assert clf.root_.threshold == lower

    def test_noisy_near_duplicates_terminate(self):
        import numpy as np

        rng = np.random.default_rng(3)
        base = rng.random(8)
        X = np.repeat(base, 40).reshape(-1, 1)
        X += rng.integers(0, 3, X.shape) * np.finfo(float).eps
        y = rng.integers(0, 3, X.shape[0])
        clf = DecisionTreeClassifier().fit(X, y)  # must not hang
        assert clf.node_count >= 1
