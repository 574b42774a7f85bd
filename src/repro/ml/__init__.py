"""Machine-learning substrate, implemented from scratch.

Provides the two classifier families the paper uses — CART decision trees
(Breiman et al. 1984) and soft-margin SVMs trained by SMO with an RBF
kernel (Vapnik 1995; Platt's DAGSVM for multi-class) — plus the metrics and
cross-validation machinery of the evaluation protocol.
"""

from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    misclassification_rates,
    per_class_accuracy,
)
from repro.ml.persistence import (
    ModelFormatError,
    load_classifier,
    load_model,
    save_classifier,
    save_model,
)
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.svm import BinarySVC, DagSvmClassifier, OneVsOneSVC, RbfKernel
from repro.ml.validation import StratifiedKFold, cross_validate

__all__ = [
    "BinarySVC",
    "ModelFormatError",
    "DagSvmClassifier",
    "DecisionTreeClassifier",
    "OneVsOneSVC",
    "RbfKernel",
    "StratifiedKFold",
    "accuracy_score",
    "confusion_matrix",
    "cross_validate",
    "load_classifier",
    "load_model",
    "misclassification_rates",
    "per_class_accuracy",
    "save_classifier",
    "save_model",
]
