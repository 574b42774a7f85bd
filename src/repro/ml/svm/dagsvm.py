"""DAGSVM multi-class classification (Platt, Cristianini, Shawe-Taylor).

Trains one binary SVM per unordered class pair, then classifies through a
Decision Directed Acyclic Graph: start with the full candidate list, and at
each step evaluate the classifier for (first, last) candidates, eliminating
the losing class. For ``k`` classes a sample consults ``k - 1`` machines
instead of ``k (k - 1) / 2`` — the reason the paper picks DAGSVM as "the
fastest among other multi-class voting methods" (Section 3.2), and what
:meth:`DagSvmClassifier.predict_scalar` does literally.

:meth:`DagSvmClassifier.predict` makes the opposite trade on purpose. Once
the pairwise machines are known (end of ``fit``, or a model load) their
support vectors are stacked: the kernel is bound to all of them once, and
a block matrix holds each machine's dual coefficients in its own column
(zero outside its own support vectors). One gram and one matmul then give
*every* pairwise score of *every* row, and the DDAG is walked over the
sign table in ``k - 1`` vectorised steps. That evaluates ``k (k - 1) / 2``
machines per sample — 3 instead of 2 at the system's ``k = 3`` — in one
numpy pipeline instead of one per DDAG node. With the few dozen support
vectors entropy-vector models keep (39 in the benchmark's model), a
classify drain's cost is numpy dispatches, not flops. The trade stops
paying once the gram is flops-bound and its ``k / 2`` times more machine
evaluations show: on 32-row drains it wins up to a few hundred support
vectors per machine and loses from about a thousand per machine (DESIGN.md,
"Hot-path architecture", has the measured table).
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
        machines = {}
        for a in range(self.classes_.size):
            for b in range(a + 1, self.classes_.size):
                mask = (labels == self.classes_[a]) | (labels == self.classes_[b])
                svc = BinarySVC(
                    C=self.C, kernel=self.kernel, tol=self.tol, max_iter=self.max_iter
                )
                svc.fit(features[mask], labels[mask])
                machines[(a, b)] = svc
        self.pairwise_ = machines
        return self

    @property
    def pairwise_(self) -> "dict[tuple[int, int], BinarySVC] | None":
        """The fitted machine of every class pair (None until fitted or loaded).

        Assign the complete dict (after ``classes_``): the stack
        :meth:`predict` evaluates is built from it at assignment.
        """
        return self._pairwise

    @pairwise_.setter
    def pairwise_(self, machines: "dict[tuple[int, int], BinarySVC] | None") -> None:
        if machines is None:
            self._pairwise = None
            self._gram_against_stack = self._dual_block = self._bias_row = None
            self._column_of = None
            return
        n_classes = self.classes_.size
        pairs = [(a, b) for a in range(n_classes) for b in range(a + 1, n_classes)]
        if sorted(machines) != pairs:
            raise ValueError(
                f"need one machine per class pair {pairs}, got {sorted(machines)}"
            )
        for svc in machines.values():
            kernel = svc.kernel
            if type(kernel) is not type(self.kernel) or vars(kernel) != vars(
                self.kernel
            ):
                raise ValueError(
                    f"pairwise machine uses {kernel!r}, the ensemble {self.kernel!r}"
                )
        self._pairwise = machines
        stack = np.concatenate([machines[pair].support_vectors_ for pair in pairs])
        self._gram_against_stack = self.kernel.against(stack)
        self._dual_block = np.zeros((stack.shape[0], len(pairs)), dtype=np.float64)
        self._bias_row = np.empty(len(pairs), dtype=np.float64)
        #: ``_column_of[lo, hi - lo]`` is the score column of node (lo, hi).
        self._column_of = np.zeros((n_classes, n_classes), dtype=np.intp)
        start = 0
        for column, (a, b) in enumerate(pairs):
            svc = machines[(a, b)]
            end = start + svc.n_support_
            self._dual_block[start:end, column] = svc.dual_coef_
            self._bias_row[column] = svc.bias_
            self._column_of[a, b - a] = column
            start = end

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for each row of ``X``.

        One gram against the stacked support vectors and one matmul score
        every pairwise machine on every row; the DDAG descent then reads
        signs only. Every row sits at a node ``(lo, hi)`` whose width
        ``hi - lo`` shrinks by one per step — a score ``>= 0.0`` eliminates
        the smaller class (``lo`` advances), anything else the larger — so
        ``lo`` alone is tracked and after ``k - 1`` steps it is the answer.
        Same labels as :meth:`predict_scalar`.
        """
        features = check_X(X)
        check_fitted(self, "pairwise_")
        # BinarySVC maps the smaller label (class a) to the negative
        # side: a positive score eliminates class a.
        eliminates_lo = (
            self._gram_against_stack(features) @ self._dual_block + self._bias_row
        ) >= 0.0
        rows = np.arange(features.shape[0])
        lo = np.zeros(features.shape[0], dtype=np.intp)
        column_of = self._column_of
        for width in range(self.classes_.size - 1, 0, -1):
            lo += eliminates_lo[rows, column_of[lo, width]]
        return self.classes_[lo]

    def predict_scalar(self, X) -> np.ndarray:
        """Reference per-sample DDAG walk: ``k - 1`` machines per sample.

        The paper's evaluation order, one kernel call per DDAG node; the
        oracle :meth:`predict` is tested against.
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
