"""CART classification trees.

Binary trees with axis-aligned splits ``x[feature] <= threshold``, grown by
greedy impurity minimization (Gini by default, matching the paper's CART
reference [9]). The implementation is vectorized: each node's best split is
found by sorting every feature once and evaluating all candidate thresholds
through class-count prefix sums.

Nodes keep their training class counts so that cost-complexity pruning
(:mod:`repro.ml.tree.pruning`) and the paper's feature-voting selection can
operate on fitted trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import check_fitted, check_X, check_X_y

__all__ = ["CompiledTree", "DecisionTreeClassifier", "TreeNode"]


@dataclass
class TreeNode:
    """One node of a fitted CART tree.

    ``class_counts`` are training-sample counts per class index at this
    node; leaves have ``feature is None``.
    """

    class_counts: np.ndarray
    depth: int
    feature: "int | None" = None
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    node_id: int = -1
    impurity: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    @property
    def n_samples(self) -> int:
        return int(self.class_counts.sum())

    @property
    def prediction(self) -> int:
        """Majority class index at this node."""
        return int(np.argmax(self.class_counts))

    def copy(self) -> "TreeNode":
        """Deep copy of the subtree rooted here (iterative: trees from
        degenerate data can be deeper than the recursion limit)."""

        def clone_shallow(node: "TreeNode") -> "TreeNode":
            return TreeNode(
                class_counts=node.class_counts.copy(),
                depth=node.depth,
                feature=node.feature,
                threshold=node.threshold,
                node_id=node.node_id,
                impurity=node.impurity,
            )

        root = clone_shallow(self)
        stack = [(self, root)]
        while stack:
            source, target = stack.pop()
            if source.left is not None:
                target.left = clone_shallow(source.left)
                stack.append((source.left, target.left))
            if source.right is not None:
                target.right = clone_shallow(source.right)
                stack.append((source.right, target.right))
        return root


def _gini_from_count_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise Gini impurity of an array of class-count rows."""
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.maximum(totals, 1.0)
    probs = counts / safe
    gini = 1.0 - (probs**2).sum(axis=1)
    return np.where(totals.ravel() > 0, gini, 0.0)


def _entropy_from_count_rows(counts: np.ndarray) -> np.ndarray:
    """Row-wise entropy impurity (bits) of class-count rows."""
    totals = counts.sum(axis=1, keepdims=True)
    safe = np.maximum(totals, 1.0)
    probs = counts / safe
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.where(probs > 0, np.log2(np.maximum(probs, 1e-300)), 0.0)
    entropy = -(probs * logs).sum(axis=1)
    return np.where(totals.ravel() > 0, entropy, 0.0)


_IMPURITY_ROWS = {"gini": _gini_from_count_rows, "entropy": _entropy_from_count_rows}


@dataclass(frozen=True)
class CompiledTree:
    """Flat-array form of a fitted CART tree for vectorized prediction.

    Nodes are stored in preorder; ``feature[i] == -1`` marks a leaf, in
    which case ``left``/``right`` are ``-1`` too. ``predict`` routes all
    rows of ``X`` simultaneously: each iteration advances every row still
    at an internal node one level down, so the loop runs ``depth`` times
    regardless of the number of rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    class_counts: np.ndarray
    prediction: np.ndarray
    classes: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Index (into the flat arrays) of each row's leaf."""
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            rows = np.flatnonzero(self.feature[node] >= 0)
            if rows.size == 0:
                return node
            at = node[rows]
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            node[rows] = np.where(go_left, self.left[at], self.right[at])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class labels for each row of ``X``."""
        return self.classes[self.prediction[self.apply(X)]]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-frequency estimates per row."""
        counts = self.class_counts[self.apply(X)]
        totals = np.maximum(counts.sum(axis=1, keepdims=True), 1.0)
        return counts / totals


class DecisionTreeClassifier:
    """CART classifier with Gini/entropy splitting and depth/size controls.

    Parameters mirror the usual CART knobs: ``max_depth`` bounds tree
    height, ``min_samples_split``/``min_samples_leaf`` bound node sizes,
    ``min_impurity_decrease`` requires each split to reduce weighted
    impurity by at least that much.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: "int | None" = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
    ) -> None:
        if criterion not in _IMPURITY_ROWS:
            raise ValueError(
                f"unknown criterion {criterion!r}; expected one of "
                f"{sorted(_IMPURITY_ROWS)}"
            )
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(f"min_samples_split must be >= 2, got {min_samples_split}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        if min_impurity_decrease < 0:
            raise ValueError(
                f"min_impurity_decrease must be >= 0, got {min_impurity_decrease}"
            )
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.root_: "TreeNode | None" = None
        self.classes_: "np.ndarray | None" = None
        self.n_features_: int = 0
        self._compiled_: "tuple[TreeNode, CompiledTree] | None" = None

    # -- fitting -----------------------------------------------------------

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on training data; returns self.

        Construction uses an explicit work stack rather than recursion:
        degenerate data (many near-duplicate rows) can produce trees
        hundreds of levels deep, past Python's recursion limit.
        """
        features, labels = check_X_y(X, y)
        self.classes_, encoded = np.unique(labels, return_inverse=True)
        self.n_features_ = features.shape[1]
        n_classes = self.classes_.size
        onehot = np.eye(n_classes, dtype=np.float64)[encoded]
        next_id = 0

        def make_node(idx: np.ndarray, depth: int) -> TreeNode:
            nonlocal next_id
            counts = onehot[idx].sum(axis=0)
            impurity = float(
                _IMPURITY_ROWS[self.criterion](counts.reshape(1, -1))[0]
            )
            node = TreeNode(
                class_counts=counts, depth=depth, node_id=next_id,
                impurity=impurity,
            )
            next_id += 1
            return node

        self.root_ = make_node(np.arange(features.shape[0]), 0)
        stack: list[tuple[TreeNode, np.ndarray]] = [
            (self.root_, np.arange(features.shape[0]))
        ]
        while stack:
            node, idx = stack.pop()
            if (
                idx.size < self.min_samples_split
                or node.impurity == 0.0
                or (self.max_depth is not None and node.depth >= self.max_depth)
            ):
                continue
            split = self._best_split(features[idx], onehot[idx], node.impurity)
            if split is None:
                continue
            feature, threshold, _gain = split
            mask = features[idx, feature] <= threshold
            if not (0 < int(mask.sum()) < idx.size):
                # Defensive: a split that makes no progress would loop the
                # builder forever; keep the node as a leaf instead.
                continue
            node.feature = feature
            node.threshold = threshold
            node.left = make_node(idx[mask], node.depth + 1)
            node.right = make_node(idx[~mask], node.depth + 1)
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return self

    def _best_split(
        self, X_node: np.ndarray, onehot_node: np.ndarray, parent_impurity: float
    ) -> "tuple[int, float, float] | None":
        """Best (feature, threshold, impurity decrease) for one node, or None."""
        n, n_features = X_node.shape
        impurity_rows = _IMPURITY_ROWS[self.criterion]
        best: "tuple[int, float, float] | None" = None
        best_gain = self.min_impurity_decrease
        for feature in range(n_features):
            values = X_node[:, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            prefix = np.cumsum(onehot_node[order], axis=0)
            # Candidate split after position i (1-based left size i+1):
            # need a value change and both sides >= min_samples_leaf.
            diffs = sorted_values[1:] != sorted_values[:-1]
            left_sizes = np.arange(1, n)
            valid = (
                diffs
                & (left_sizes >= self.min_samples_leaf)
                & ((n - left_sizes) >= self.min_samples_leaf)
            )
            candidates = np.flatnonzero(valid)
            if candidates.size == 0:
                continue
            left_counts = prefix[candidates]
            right_counts = prefix[-1] - left_counts
            left_n = left_counts.sum(axis=1)
            right_n = right_counts.sum(axis=1)
            weighted = (
                left_n * impurity_rows(left_counts)
                + right_n * impurity_rows(right_counts)
            ) / n
            gains = parent_impurity - weighted
            best_pos = int(np.argmax(gains))
            gain = float(gains[best_pos])
            if gain > best_gain:
                cut = candidates[best_pos]
                threshold = float(
                    (sorted_values[cut] + sorted_values[cut + 1]) / 2.0
                )
                # Guard float round-off: for adjacent representable values
                # the midpoint can equal the upper value, which would send
                # every sample left and loop forever. Split on the lower
                # value instead (x <= lower is still a valid partition).
                if threshold >= sorted_values[cut + 1]:
                    threshold = float(sorted_values[cut])
                best = (feature, threshold, gain)
                best_gain = gain
        return best

    # -- prediction --------------------------------------------------------

    def _leaf_for(self, row: np.ndarray) -> TreeNode:
        check_fitted(self, "root_")
        node = self.root_
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def compile(self) -> CompiledTree:
        """Flat-array form of the fitted tree (see :class:`CompiledTree`)."""
        check_fitted(self, "root_")
        nodes = self.nodes()
        index = {id(node): i for i, node in enumerate(nodes)}
        n = len(nodes)
        feature = np.full(n, -1, dtype=np.int64)
        threshold = np.zeros(n, dtype=np.float64)
        left = np.full(n, -1, dtype=np.int64)
        right = np.full(n, -1, dtype=np.int64)
        prediction = np.empty(n, dtype=np.int64)
        class_counts = np.empty((n, self.classes_.size), dtype=np.float64)
        for i, node in enumerate(nodes):
            prediction[i] = node.prediction
            class_counts[i] = node.class_counts
            if not node.is_leaf:
                feature[i] = node.feature
                threshold[i] = node.threshold
                left[i] = index[id(node.left)]
                right[i] = index[id(node.right)]
        return CompiledTree(
            feature=feature,
            threshold=threshold,
            left=left,
            right=right,
            class_counts=class_counts,
            prediction=prediction,
            classes=self.classes_,
        )

    def _ensure_compiled(self) -> CompiledTree:
        """Compiled form of the current tree, cached per ``root_`` object."""
        if self._compiled_ is None or self._compiled_[0] is not self.root_:
            self._compiled_ = (self.root_, self.compile())
        return self._compiled_[1]

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for each row of ``X`` (vectorized)."""
        features = check_X(X)
        check_fitted(self, "root_")
        if features.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {features.shape[1]} features, tree was fit on "
                f"{self.n_features_}"
            )
        return self._ensure_compiled().predict(features)

    def predict_nodewalk(self, X) -> np.ndarray:
        """Reference per-row node-walk prediction (the pre-compiled path).

        Kept for equivalence testing; ``predict`` is the fast path.
        """
        features = check_X(X)
        check_fitted(self, "root_")
        if features.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {features.shape[1]} features, tree was fit on "
                f"{self.n_features_}"
            )
        out = np.empty(features.shape[0], dtype=self.classes_.dtype)
        for i in range(features.shape[0]):
            out[i] = self.classes_[self._leaf_for(features[i]).prediction]
        return out

    def predict_proba(self, X) -> np.ndarray:
        """Leaf class-frequency estimates per row (columns follow classes_)."""
        features = check_X(X)
        check_fitted(self, "root_")
        return self._ensure_compiled().predict_proba(features)

    def score(self, X, y) -> float:
        """Mean accuracy on (X, y)."""
        labels = np.asarray(y).ravel()
        return float(np.mean(self.predict(X) == labels))

    # -- introspection -----------------------------------------------------

    def nodes(self) -> list[TreeNode]:
        """All nodes in preorder."""
        check_fitted(self, "root_")
        out: list[TreeNode] = []
        stack = [self.root_]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf:
                stack.append(node.right)
                stack.append(node.left)
        return out

    @property
    def node_count(self) -> int:
        return len(self.nodes())

    @property
    def depth(self) -> int:
        """Height of the fitted tree (0 for a stump that never split)."""
        return max(node.depth for node in self.nodes())

    def to_text(self, feature_names: "list[str] | None" = None) -> str:
        """Human-readable rendering of the fitted tree.

        ``feature_names`` maps column indices to labels (e.g. ``["h1",
        "h3", "h4", "h10"]`` for an entropy feature set); indices are used
        when omitted.
        """
        check_fitted(self, "root_")

        def name_of(feature: int) -> str:
            if feature_names is not None:
                if feature >= len(feature_names):
                    raise ValueError(
                        f"feature {feature} has no name in {feature_names}"
                    )
                return feature_names[feature]
            return f"x[{feature}]"

        lines: list[str] = []

        def render(node: TreeNode, indent: str) -> None:
            if node.is_leaf:
                label = self.classes_[node.prediction]
                lines.append(
                    f"{indent}-> class {label} "
                    f"(n={node.n_samples}, impurity={node.impurity:.3f})"
                )
                return
            lines.append(
                f"{indent}{name_of(node.feature)} <= {node.threshold:.4f}"
            )
            render(node.left, indent + "|   ")
            lines.append(f"{indent}{name_of(node.feature)} >  {node.threshold:.4f}")
            render(node.right, indent + "|   ")

        render(self.root_, "")
        return "\n".join(lines)

    def feature_usage(self) -> dict[int, float]:
        """Per-feature importance-style weights from split positions.

        Each internal node votes for its split feature with weight
        ``1 / (depth + 1)`` — the paper's observation that "the higher a
        feature is in a tree, the more effective" it is (Section 4.1).
        """
        usage: dict[int, float] = {}
        for node in self.nodes():
            if not node.is_leaf:
                usage[node.feature] = usage.get(node.feature, 0.0) + 1.0 / (
                    node.depth + 1
                )
        return usage
