"""Machine-learning substrate, implemented from scratch.

Provides the two classifier families the paper uses — CART decision trees
(Breiman et al. 1984) and soft-margin SVMs trained by SMO with an RBF
kernel (Vapnik 1995; Platt's DAGSVM for multi-class) — plus the metrics and
cross-validation machinery of the evaluation protocol.
"""

from repro._lazy import lazy_exports
from repro.ml.persistence import (
    ModelFormatError,
    load_classifier,
    load_model,
    save_classifier,
    save_model,
)
from repro.ml.tree import DecisionTreeClassifier

# The SVM family loads with the first SVM model (a CART classify pass
# compiles none of it); metrics and cross-validation are evaluation
# tools.
__getattr__, __dir__ = lazy_exports(globals(), {
    "BinarySVC": "repro.ml.svm.binary",
    "DagSvmClassifier": "repro.ml.svm.dagsvm",
    "OneVsOneSVC": "repro.ml.svm.ovo",
    "RbfKernel": "repro.ml.svm.kernels",
    "StratifiedKFold": "repro.ml.validation",
    "accuracy_score": "repro.ml.metrics",
    "confusion_matrix": "repro.ml.metrics",
    "cross_validate": "repro.ml.validation",
    "misclassification_rates": "repro.ml.metrics",
    "per_class_accuracy": "repro.ml.metrics",
})

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
