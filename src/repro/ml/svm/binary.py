"""Binary soft-margin support vector classifier."""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fitted, check_X, check_X_y
from repro.ml.svm.kernels import Kernel, RbfKernel

__all__ = ["BinarySVC"]


class BinarySVC:
    """Two-class SVM trained by SMO.

    Accepts arbitrary binary labels; the smaller label (by sort order) maps
    to ``-1`` and the larger to ``+1`` internally. Only support vectors are
    retained for prediction.
    """

    def __init__(
        self,
        C: float = 1000.0,
        kernel: "Kernel | None" = None,
        tol: float = 1e-3,
        max_iter: int = 100_000,
    ) -> None:
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.kernel = kernel if kernel is not None else RbfKernel(gamma=50.0)
        self.tol = tol
        self.max_iter = max_iter
        self.classes_: "np.ndarray | None" = None
        self.support_vectors_: "np.ndarray | None" = None
        self.dual_coef_: "np.ndarray | None" = None  # alpha_i * y_i at SVs
        self.bias_: float = 0.0
        self.converged_: bool = False
        self.iterations_: int = 0

    def fit(self, X, y) -> "BinarySVC":
        """Train on binary-labelled data; returns self."""
        # Only training runs SMO: a loaded machine never compiles it.
        from repro.ml.svm.smo import solve_smo

        features, labels = check_X_y(X, y)
        self.classes_ = np.unique(labels)
        if self.classes_.size != 2:
            raise ValueError(
                f"BinarySVC needs exactly 2 classes, got {self.classes_.size}"
            )
        signed = np.where(labels == self.classes_[0], -1.0, 1.0)
        gram = self.kernel(features, features)
        result = solve_smo(
            gram, signed, C=self.C, tol=self.tol, max_iter=self.max_iter
        )
        sv_mask = result.alpha > 1e-8
        if not np.any(sv_mask):
            # Degenerate but possible with huge tol; keep one point per class
            # so the decision function stays defined.
            sv_mask = np.zeros_like(sv_mask)
            sv_mask[np.argmax(signed)] = True
            sv_mask[np.argmin(signed)] = True
        self.support_vectors_ = features[sv_mask]
        self.dual_coef_ = (result.alpha * signed)[sv_mask]
        self.bias_ = result.bias
        self.converged_ = result.converged
        self.iterations_ = result.iterations
        return self

    @property
    def support_vectors_(self) -> "np.ndarray | None":
        """The retained support vectors (None until fitted or loaded)."""
        return self._support_vectors

    @support_vectors_.setter
    def support_vectors_(self, vectors: "np.ndarray | None") -> None:
        self._support_vectors = vectors
        # Fixed from here on: bind the kernel to them once, so a
        # decision_function call only pays for what depends on X.
        self._gram_against_support = (
            None if vectors is None else self.kernel.against(vectors)
        )

    @property
    def n_support_(self) -> int:
        """Number of retained support vectors."""
        check_fitted(self, "support_vectors_")
        return int(self.support_vectors_.shape[0])

    def decision_function(self, X) -> np.ndarray:
        """Signed margin ``f(x)``; positive means the larger class."""
        features = check_X(X)
        check_fitted(self, "support_vectors_")
        return self._gram_against_support(features) @ self.dual_coef_ + self.bias_

    def predict(self, X) -> np.ndarray:
        """Predicted labels (the original label values passed to fit)."""
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, self.classes_[1], self.classes_[0])

    def score(self, X, y) -> float:
        """Mean accuracy on (X, y)."""
        labels = np.asarray(y).ravel()
        return float(np.mean(self.predict(X) == labels))
