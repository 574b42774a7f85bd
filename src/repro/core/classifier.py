"""The Iustitia classifier: entropy-vector feature extraction + ML model.

Binds together a feature set, a training method (Section 4.3's three
options), and one of the two classification models:

* ``model="svm"`` — DAGSVM over RBF-kernel binary SVMs (gamma=50, C=1000
  by default; the paper's selected model);
* ``model="cart"`` — a CART decision tree.

Training data is a corpus of labelled files; classification operates on
raw byte buffers (a flow's buffered payload or a file prefix).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

import numpy as np

from repro.core.entropy_vector import entropy_vectors_batch, training_windows
from repro.core.features import PHI_SVM_PRIME, FeatureSet
from repro.core.labels import ALL_NATURES, FlowNature
from repro.ml.tree.cart import DecisionTreeClassifier

if TYPE_CHECKING:
    from repro.ml.svm.dagsvm import DagSvmClassifier

__all__ = ["IustitiaClassifier", "TrainingMethod"]

#: The natures as an object array indexed by label value, so a whole
#: prediction vector maps to ``FlowNature`` members in one fancy index.
_NATURES = np.array(ALL_NATURES, dtype=object)


class TrainingMethod(enum.Enum):
    """How training vectors are extracted from training files (Section 4.3)."""

    #: ``H_F``: the entire file content.
    WHOLE_FILE = "whole_file"
    #: ``H_b``: the first ``b`` bytes of the file.
    FIRST_B = "first_b"
    #: ``H_b'``: ``b`` bytes at a random offset in ``[0, T]``.
    RANDOM_OFFSET = "random_offset"


class IustitiaClassifier:
    """File/flow-nature classifier over entropy vectors.

    Vectors are computed exactly. The Section 4.4.1 (delta, epsilon)
    estimator is a separate library
    (:class:`repro.core.estimation.EntropyEstimator`): train on exact
    vectors, then hand its ``estimate_vector`` rows to
    :meth:`predict_vectors`.
    """

    def __init__(
        self,
        model: str = "svm",
        feature_set: FeatureSet = PHI_SVM_PRIME,
        buffer_size: int = 32,
        training: TrainingMethod = TrainingMethod.FIRST_B,
        header_threshold: int = 0,
        gamma: float = 50.0,
        C: float = 1000.0,
        rng: "np.random.Generator | None" = None,
    ) -> None:
        if model not in ("svm", "cart"):
            raise ValueError(f"model must be 'svm' or 'cart', got {model!r}")
        if buffer_size < feature_set.max_width:
            raise ValueError(
                f"buffer_size {buffer_size} cannot hold the widest feature "
                f"h_{feature_set.max_width}"
            )
        if header_threshold < 0:
            raise ValueError(f"header_threshold must be >= 0, got {header_threshold}")
        self.model_kind = model
        self.feature_set = feature_set
        self.buffer_size = buffer_size
        self.training = training
        self.header_threshold = header_threshold
        # Only RANDOM_OFFSET training draws; without a caller's RNG one
        # is created then, so loading a model never imports numpy.random.
        self._rng = rng
        if model == "svm":
            # Imported per SVM model: a CART classifier compiles no SVM code.
            from repro.ml.svm.dagsvm import DagSvmClassifier
            from repro.ml.svm.kernels import RbfKernel

            self._model: "DagSvmClassifier | DecisionTreeClassifier" = (
                DagSvmClassifier(C=C, kernel=RbfKernel(gamma=gamma))
            )
        else:
            self._model = DecisionTreeClassifier()

    # -- feature extraction --------------------------------------------------

    def buffer_vector(self, buffer: bytes) -> np.ndarray:
        """Classification-time entropy vector of one flow buffer (exact).

        The buffer is truncated to ``buffer_size`` bytes first (an online
        classifier never sees more).
        """
        return self.buffer_vectors([buffer])[0]

    def buffer_vectors(self, buffers) -> np.ndarray:
        """Entropy vectors of many flow buffers at once (``(n, d)`` matrix).

        The batched counterpart of :func:`buffer_vector`, through
        :func:`entropy_vectors_batch`: every feature width of the whole
        batch shares one pooled sort — the kernel training runs too.
        """
        size = self.buffer_size
        windows = [b if len(b) <= size else b[:size] for b in buffers]
        return entropy_vectors_batch(windows, self.feature_set)

    # -- training / inference ------------------------------------------------

    def fit_files(self, files, labels) -> "IustitiaClassifier":
        """Train on an iterable of byte blobs with aligned nature labels.

        Each file's window (:class:`TrainingMethod`) goes through the
        same kernel as a flow buffer at classification time.
        """
        data_list = list(files)
        label_list = [FlowNature(l) for l in labels]
        if len(data_list) != len(label_list):
            raise ValueError(
                f"{len(data_list)} files but {len(label_list)} labels"
            )
        if not data_list:
            raise ValueError("training set must be non-empty")
        max_header = None
        if self.training is TrainingMethod.RANDOM_OFFSET:
            max_header = self.header_threshold
            if self._rng is None:
                self._rng = np.random.default_rng()
        windows = training_windows(
            data_list,
            None if self.training is TrainingMethod.WHOLE_FILE else self.buffer_size,
            max_header,
            self._rng,
        )
        X = entropy_vectors_batch(windows, self.feature_set)
        y = np.array([int(l) for l in label_list], dtype=np.int64)
        self._model.fit(X, y)
        return self

    def fit_corpus(self, corpus) -> "IustitiaClassifier":
        """Train on a :class:`repro.data.corpus.Corpus` (or list of LabeledFile)."""
        files = list(corpus)
        return self.fit_files(
            [f.data for f in files], [f.nature for f in files]
        )

    def predict_vectors(self, X) -> np.ndarray:
        """Predict natures from pre-extracted entropy vectors."""
        return _NATURES[self._model.predict(X)]

    def classify_buffer(self, buffer: bytes) -> FlowNature:
        """Nature of a flow from its buffered payload."""
        vector = self.buffer_vector(buffer).reshape(1, -1)
        return FlowNature(int(self._model.predict(vector)[0]))

    def classify_buffers(self, buffers) -> list[FlowNature]:
        """Natures of many flow buffers through one batched model call.

        Equivalent to ``[classify_buffer(b) for b in buffers]`` but
        extracts all entropy vectors in one batch and runs the model's
        vectorized predict once — the engine's drain path for timeouts
        and end-of-trace uses this.
        """
        if not buffers:
            return []
        return self.predict_vectors(self.buffer_vectors(buffers)).tolist()

    def classify_file(self, data: bytes) -> FlowNature:
        """Nature of a file from its first ``buffer_size`` bytes."""
        return self.classify_buffer(bytes(data))

    def score_files(self, files, labels) -> float:
        """Mean accuracy classifying each file's first ``buffer_size`` bytes.

        Scores the whole corpus through one :meth:`classify_buffers` call,
        so extraction and prediction run on the batched paths.
        """
        data_list = list(files)
        label_list = [FlowNature(l) for l in labels]
        if len(data_list) != len(label_list):
            raise ValueError(f"{len(data_list)} files but {len(label_list)} labels")
        if not data_list:
            raise ValueError("scoring set must be non-empty")
        predictions = self.classify_buffers([bytes(d) for d in data_list])
        correct = sum(p == l for p, l in zip(predictions, label_list))
        return correct / len(data_list)
