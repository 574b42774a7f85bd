"""DAGSVM multi-class classification (Platt, Cristianini, Shawe-Taylor).

Trains one binary SVM per unordered class pair, then classifies through a
Decision Directed Acyclic Graph: start with the full candidate list, and at
each step evaluate the classifier for (first, last) candidates, eliminating
the losing class. For ``k`` classes this costs ``k - 1`` kernel evaluations
per sample instead of ``k (k - 1) / 2`` — the reason the paper picks DAGSVM
as "the fastest among other multi-class voting methods" (Section 3.2).
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fitted, check_X, check_X_y
from repro.ml.svm.binary import BinarySVC
from repro.ml.svm.kernels import Kernel, RbfKernel

__all__ = ["DagSvmClassifier"]


class DagSvmClassifier:
    """Multi-class SVM via pairwise binary SVMs and DDAG evaluation."""

    def __init__(
        self,
        C: float = 1000.0,
        kernel: "Kernel | None" = None,
        tol: float = 1e-3,
        max_iter: int = 100_000,
    ) -> None:
        self.C = C
        self.kernel = kernel if kernel is not None else RbfKernel(gamma=50.0)
        self.tol = tol
        self.max_iter = max_iter
        self.classes_: "np.ndarray | None" = None
        self.pairwise_: "dict[tuple[int, int], BinarySVC] | None" = None

    def fit(self, X, y) -> "DagSvmClassifier":
        """Train all ``k (k - 1) / 2`` pairwise SVMs; returns self."""
        features, labels = check_X_y(X, y)
        self.classes_ = np.unique(labels)
        if self.classes_.size < 2:
            raise ValueError("need at least 2 classes")
        self.pairwise_ = {}
        for a in range(self.classes_.size):
            for b in range(a + 1, self.classes_.size):
                mask = (labels == self.classes_[a]) | (labels == self.classes_[b])
                svc = BinarySVC(
                    C=self.C, kernel=self.kernel, tol=self.tol, max_iter=self.max_iter
                )
                svc.fit(features[mask], labels[mask])
                self.pairwise_[(a, b)] = svc
        return self

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for each row of ``X``.

        The DDAG descent is batched: every sample tracks its candidate
        interval ``[lo, hi]``; per DAG level, samples are grouped by their
        (lo, hi) node with one ``argsort`` over packed pair ids, and each
        pairwise machine's decision function is evaluated once over all
        rows sitting at that node. Each sample still consults exactly
        ``k - 1`` binary machines — the property the paper adopts DAGSVM
        for.
        """
        features = check_X(X)
        check_fitted(self, "pairwise_")
        n = features.shape[0]
        n_classes = self.classes_.size
        lo = np.zeros(n, dtype=np.int64)
        hi = np.full(n, n_classes - 1, dtype=np.int64)
        while True:
            active = np.flatnonzero(lo < hi)
            if active.size == 0:
                break
            pair_ids = lo[active] * n_classes + hi[active]
            order = np.argsort(pair_ids, kind="stable")
            sorted_ids = pair_ids[order]
            bounds = np.concatenate(
                (
                    [0],
                    np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1,
                    [sorted_ids.size],
                )
            )
            for start, end in zip(bounds[:-1], bounds[1:]):
                rows = active[order[start:end]]
                a, b = divmod(int(sorted_ids[start]), n_classes)
                svc = self.pairwise_[(a, b)]
                predicted_b = svc.decision_function(features[rows]) >= 0.0
                # BinarySVC maps the smaller label (class a) to the
                # negative side: positive scores eliminate class a.
                lo[rows[predicted_b]] = a + 1
                hi[rows[~predicted_b]] = b - 1
        return self.classes_[lo]

    def predict_scalar(self, X) -> np.ndarray:
        """Reference per-sample DDAG walk (one kernel call per DAG step).

        Kept for equivalence testing; ``predict`` is the batched fast path.
        """
        features = check_X(X)
        check_fitted(self, "pairwise_")
        out = np.empty(features.shape[0], dtype=self.classes_.dtype)
        for i in range(features.shape[0]):
            lo, hi = 0, self.classes_.size - 1
            row = features[i : i + 1]
            while lo < hi:
                svc = self.pairwise_[(lo, hi)]
                if float(svc.decision_function(row)[0]) >= 0.0:
                    lo += 1
                else:
                    hi -= 1
            out[i] = self.classes_[lo]
        return out

    def score(self, X, y) -> float:
        """Mean accuracy on (X, y)."""
        labels = np.asarray(y).ravel()
        return float(np.mean(self.predict(X) == labels))

    @property
    def total_support_vectors_(self) -> int:
        """Sum of support-vector counts across the pairwise machines."""
        check_fitted(self, "pairwise_")
        return sum(svc.n_support_ for svc in self.pairwise_.values())
