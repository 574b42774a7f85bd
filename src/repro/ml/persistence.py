"""JSON (de)serialization for trained models.

Pickle executes arbitrary code on load; a flow classifier deployed at a
network boundary should not trust pickled models. This module serializes
the two model families — CART trees and DAGSVM ensembles — plus the
:class:`repro.core.classifier.IustitiaClassifier` wrapper to plain JSON:
numbers, lists, and dicts only.

Format: a top-level ``{"format": ..., "format_version": 1, ...}`` object
(files written before the ``format_version`` stamp carry the same number
under ``version`` and still load). Loading validates both tags and
reconstructs fitted estimators; any malformed input — truncated file,
non-JSON bytes, wrong format/version, missing fields — raises
:class:`ModelFormatError` rather than a bare ``KeyError`` or JSON
traceback. A payload that parses but could not serve — a non-finite
parameter (Python's ``json`` reads ``NaN`` and ``Infinity``), a split
on a feature the model does not have, classes that are not distinct
integers, or, for a classifier, a model whose width, classes or scores
do not fit the entropy vectors it will be handed — is the same error,
raised at load rather than at the first predict.

The SVM classes are imported by the functions that handle an SVM
payload, so loading a CART model compiles no SVM code.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.ml.tree.cart import DecisionTreeClassifier, TreeNode

if TYPE_CHECKING:
    from repro.ml.svm.binary import BinarySVC
    from repro.ml.svm.dagsvm import DagSvmClassifier

__all__ = [
    "ModelFormatError",
    "classifier_from_dict",
    "classifier_to_dict",
    "load_classifier",
    "save_classifier",
    "model_to_dict",
    "model_from_dict",
]

_VERSION = 1


class ModelFormatError(ValueError):
    """A model file is not a readable serialized model.

    Raised for truncated or non-JSON files, unknown format tags,
    unsupported format versions, and payloads missing required fields —
    everything a loader can diagnose better than a raw ``KeyError`` or
    ``json.JSONDecodeError``. Subclasses ``ValueError`` so existing
    ``except ValueError`` callers keep working.
    """


def _stored_version(payload: dict):
    """The payload's format version (``format_version``, legacy ``version``)."""
    if "format_version" in payload:
        return payload["format_version"]
    return payload.get("version")


def _read_json(path, what: str) -> dict:
    """Load ``path`` as a JSON object or raise :class:`ModelFormatError`."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON or UTF-8, or an over-long integer literal.
        raise ModelFormatError(
            f"{what} file {path!s} is truncated or not JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(
            f"{what} file {path!s} holds {type(payload).__name__}, "
            "expected a JSON object"
        )
    return payload


def _integer(value, what: str) -> int:
    """``value`` if it is an ``int`` (a JSON ``1.5`` or ``true`` is not)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _finite(value, what: str) -> float:
    """``value`` as a float, which must be finite."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _finite_array(value, what: str, ndim: int) -> np.ndarray:
    """A non-empty ``ndim``-D float array with finite entries only."""
    array = np.asarray(value, dtype=np.float64)
    if array.ndim != ndim or not array.size or not np.isfinite(array).all():
        raise ValueError(f"{what} must be a non-empty finite {ndim}-D array")
    return array


def _classes(value, count: "int | None" = None) -> np.ndarray:
    """Class labels: distinct integers (exactly ``count`` of them if given)."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"classes must be a non-empty list, got {value!r}")
    for label in value:
        _integer(label, "a class label")
    if len(set(value)) != len(value) or (count and len(value) != count):
        wanted = f"{count} distinct" if count else "distinct"
        raise ValueError(f"classes {value!r} are not {wanted} labels")
    return np.asarray(value, dtype=np.int64)


# -- kernels -----------------------------------------------------------------


def _kernel_to_dict(kernel) -> dict:
    from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel

    if isinstance(kernel, RbfKernel):
        return {"kind": "rbf", "gamma": kernel.gamma}
    if isinstance(kernel, LinearKernel):
        return {"kind": "linear"}
    if isinstance(kernel, PolynomialKernel):
        return {
            "kind": "poly",
            "degree": kernel.degree,
            "gamma": kernel.gamma,
            "coef0": kernel.coef0,
        }
    raise TypeError(f"cannot serialize kernel {type(kernel).__name__}")


def _kernel_from_dict(payload: dict):
    from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel

    kind = payload.get("kind")
    if kind == "rbf":
        return RbfKernel(gamma=_finite(payload["gamma"], "kernel gamma"))
    if kind == "linear":
        return LinearKernel()
    if kind == "poly":
        return PolynomialKernel(
            degree=_integer(payload["degree"], "kernel degree"),
            gamma=_finite(payload["gamma"], "kernel gamma"),
            coef0=_finite(payload["coef0"], "kernel coef0"),
        )
    raise ValueError(f"unknown kernel kind {kind!r}")


# -- CART ---------------------------------------------------------------------


def _node_to_dict(node: TreeNode) -> dict:
    payload = {
        "counts": node.class_counts.tolist(),
        "depth": node.depth,
        "id": node.node_id,
        "impurity": node.impurity,
    }
    if not node.is_leaf:
        payload["feature"] = node.feature
        payload["threshold"] = node.threshold
        payload["left"] = _node_to_dict(node.left)
        payload["right"] = _node_to_dict(node.right)
    return payload


def _node_from_dict(payload: dict, n_classes: int, n_features: int) -> TreeNode:
    counts = _finite_array(payload["counts"], "node counts", 1)
    if counts.size != n_classes or (counts < 0).any():
        raise ValueError(
            f"node counts must be {n_classes} non-negative numbers, "
            f"got {counts.tolist()}"
        )
    node = TreeNode(
        class_counts=counts,
        depth=int(payload["depth"]),
        node_id=int(payload["id"]),
        impurity=float(payload["impurity"]),
    )
    if "feature" in payload:
        feature = _integer(payload["feature"], "split feature")
        if not 0 <= feature < n_features:
            raise ValueError(
                f"split on feature {feature} of a {n_features}-feature tree"
            )
        node.feature = feature
        node.threshold = _finite(payload["threshold"], "split threshold")
        node.left = _node_from_dict(payload["left"], n_classes, n_features)
        node.right = _node_from_dict(payload["right"], n_classes, n_features)
    return node


def _cart_to_dict(clf: DecisionTreeClassifier) -> dict:
    if clf.root_ is None:
        raise ValueError("cannot serialize an unfitted tree")
    return {
        "format": "repro/cart",
        "format_version": _VERSION,
        "params": {
            "criterion": clf.criterion,
            "max_depth": clf.max_depth,
            "min_samples_split": clf.min_samples_split,
            "min_samples_leaf": clf.min_samples_leaf,
            "min_impurity_decrease": clf.min_impurity_decrease,
        },
        "classes": clf.classes_.tolist(),
        "n_features": clf.n_features_,
        "root": _node_to_dict(clf.root_),
    }


def _cart_from_dict(payload: dict) -> DecisionTreeClassifier:
    clf = DecisionTreeClassifier(**payload["params"])
    clf.classes_ = _classes(payload["classes"])
    clf.n_features_ = _integer(payload["n_features"], "n_features")
    if clf.n_features_ < 1:
        raise ValueError(f"n_features must be >= 1, got {clf.n_features_}")
    clf.root_ = _node_from_dict(
        payload["root"], clf.classes_.size, clf.n_features_
    )
    return clf


# -- SVM ------------------------------------------------------------------------


def _binary_svc_to_dict(svc: BinarySVC) -> dict:
    if svc.support_vectors_ is None:
        raise ValueError("cannot serialize an unfitted SVC")
    return {
        "C": svc.C,
        "tol": svc.tol,
        "max_iter": svc.max_iter,
        "kernel": _kernel_to_dict(svc.kernel),
        "classes": svc.classes_.tolist(),
        "support_vectors": svc.support_vectors_.tolist(),
        "dual_coef": svc.dual_coef_.tolist(),
        "bias": svc.bias_,
        "converged": svc.converged_,
        "iterations": svc.iterations_,
    }


def _binary_svc_from_dict(payload: dict) -> BinarySVC:
    from repro.ml.svm.binary import BinarySVC

    svc = BinarySVC(
        C=_finite(payload["C"], "C"),
        kernel=_kernel_from_dict(payload["kernel"]),
        tol=payload["tol"],
        max_iter=payload["max_iter"],
    )
    svc.classes_ = _classes(payload["classes"], 2)
    svc.support_vectors_ = _finite_array(
        payload["support_vectors"], "support vectors", 2
    )
    svc.dual_coef_ = _finite_array(payload["dual_coef"], "dual coefficients", 1)
    if svc.dual_coef_.size != svc.support_vectors_.shape[0]:
        raise ValueError(
            f"{svc.dual_coef_.size} dual coefficients for "
            f"{svc.support_vectors_.shape[0]} support vectors"
        )
    svc.bias_ = _finite(payload["bias"], "bias")
    svc.converged_ = bool(payload["converged"])
    svc.iterations_ = int(payload["iterations"])
    return svc


def _dagsvm_to_dict(clf: DagSvmClassifier) -> dict:
    if clf.pairwise_ is None:
        raise ValueError("cannot serialize an unfitted DAGSVM")
    return {
        "format": "repro/dagsvm",
        "format_version": _VERSION,
        "C": clf.C,
        "tol": clf.tol,
        "max_iter": clf.max_iter,
        "kernel": _kernel_to_dict(clf.kernel),
        "classes": clf.classes_.tolist(),
        "pairwise": {
            f"{a},{b}": _binary_svc_to_dict(svc)
            for (a, b), svc in clf.pairwise_.items()
        },
    }


def _dagsvm_from_dict(payload: dict) -> DagSvmClassifier:
    from repro.ml.svm.dagsvm import DagSvmClassifier

    clf = DagSvmClassifier(
        C=_finite(payload["C"], "C"),
        kernel=_kernel_from_dict(payload["kernel"]),
        tol=payload["tol"],
        max_iter=payload["max_iter"],
    )
    clf.classes_ = _classes(payload["classes"])
    if clf.classes_.size < 2:
        raise ValueError("a DAGSVM needs at least two classes")
    machines = {}
    for key, svc_payload in payload["pairwise"].items():
        a, b = key.split(",")
        machines[(int(a), int(b))] = _binary_svc_from_dict(svc_payload)
    # Assigned whole: the classifier stacks the machines for predict here.
    clf.pairwise_ = machines
    return clf


# -- public API ------------------------------------------------------------------


def model_to_dict(model) -> dict:
    """Serialize a fitted CART or DAGSVM model to a JSON-able dict."""
    from repro.ml.svm.dagsvm import DagSvmClassifier

    if isinstance(model, DecisionTreeClassifier):
        return _cart_to_dict(model)
    if isinstance(model, DagSvmClassifier):
        return _dagsvm_to_dict(model)
    raise TypeError(f"cannot serialize model {type(model).__name__}")


def model_from_dict(payload: dict):
    """Reconstruct a fitted model from :func:`model_to_dict` output.

    Raises :class:`ModelFormatError` on an unknown format tag, an
    unsupported format version, a payload missing required fields, or a
    value the estimator rejects (an unknown kernel, ragged support
    vectors, a missing pairwise machine).
    """
    if not isinstance(payload, dict):
        raise ModelFormatError(
            f"model payload is {type(payload).__name__}, expected a dict"
        )
    fmt = payload.get("format")
    version = _stored_version(payload)
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model format version {version!r}")
    if fmt == "repro/cart":
        loader = _cart_from_dict
    elif fmt == "repro/dagsvm":
        loader = _dagsvm_from_dict
    else:
        raise ModelFormatError(f"unknown model format {fmt!r}")
    try:
        return loader(payload)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelFormatError(
            f"{fmt} payload is missing or malformed at field {exc}"
        ) from exc
    except (ValueError, OverflowError) as exc:  # a value no estimator accepts
        raise ModelFormatError(f"{fmt} payload is malformed: {exc}") from exc


def classifier_to_dict(classifier) -> dict:
    """Serialize a fitted :class:`IustitiaClassifier` to a JSON-able dict.

    The same payload :func:`save_classifier` writes to disk (plain
    types only).
    """
    from repro.core.classifier import IustitiaClassifier

    if not isinstance(classifier, IustitiaClassifier):
        raise TypeError("classifier_to_dict expects an IustitiaClassifier")
    return {
        "format": "repro/iustitia",
        "format_version": _VERSION,
        "model_kind": classifier.model_kind,
        "buffer_size": classifier.buffer_size,
        "training": classifier.training.value,
        "header_threshold": classifier.header_threshold,
        "feature_widths": list(classifier.feature_set.widths),
        "feature_name": classifier.feature_set.name,
        "model": model_to_dict(classifier._model),
    }


def save_classifier(classifier, path) -> None:
    """Write a fitted :class:`IustitiaClassifier` (model + config) as JSON."""
    with open(path, "w") as handle:
        json.dump(classifier_to_dict(classifier), handle)


def classifier_from_dict(payload: dict):
    """Reconstruct a classifier from :func:`classifier_to_dict` output.

    Raises :class:`ModelFormatError` on an unknown format tag, an
    unsupported format version, a payload missing required fields, a
    setting the classifier rejects (an unknown training method or model
    kind, bad feature widths, a buffer too small for them), or an
    ``estimator`` block: the online classifier computes exactly, and a
    model saved to classify with estimated vectors must not silently
    classify with exact ones.
    """
    from repro.core.classifier import IustitiaClassifier, TrainingMethod
    from repro.core.features import FeatureSet

    if not isinstance(payload, dict):
        raise ModelFormatError(
            f"classifier payload is {type(payload).__name__}, expected a dict"
        )
    if payload.get("format") != "repro/iustitia":
        raise ModelFormatError(
            f"unknown classifier format {payload.get('format')!r}"
        )
    version = _stored_version(payload)
    if version != _VERSION:
        raise ModelFormatError(
            f"unsupported classifier format version {version!r}"
        )
    if "estimator" in payload:
        raise ModelFormatError(
            "classifier payload carries an 'estimator' block; (delta, epsilon) "
            "estimation is not part of the online classifier"
        )
    try:
        feature_set = FeatureSet(
            payload["feature_name"],
            tuple(
                _integer(width, "a feature width")
                for width in payload["feature_widths"]
            ),
        )
        classifier = IustitiaClassifier(
            model=payload["model_kind"],
            feature_set=feature_set,
            buffer_size=_integer(payload["buffer_size"], "buffer_size"),
            training=TrainingMethod(payload["training"]),
            header_threshold=_integer(
                payload["header_threshold"], "header_threshold"
            ),
        )
        model_payload = payload["model"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(
            f"classifier payload is missing or malformed at field {exc}"
        ) from exc
    except ValueError as exc:  # a setting the classifier rejects
        raise ModelFormatError(f"classifier payload is malformed: {exc}") from exc
    model = model_from_dict(model_payload)
    try:
        _check_serves(model, classifier)
    except ValueError as exc:
        raise ModelFormatError(f"classifier payload is malformed: {exc}") from exc
    classifier._model = model
    return classifier


def _check_serves(model, classifier) -> None:
    """Raise ``ValueError`` unless ``model`` labels every entropy vector.

    A loaded classifier is handed ``(n, d)`` matrices of normalized
    entropies — ``d`` its feature count, every entry in ``[0, 1]`` —
    and maps each predicted class to a flow nature. So the model must
    be the kind the classifier names, take ``d`` features, predict only
    nature indices, and, for a DAGSVM, keep every pairwise score finite
    on that domain: its support vectors (training entropy vectors) lie
    in ``[0, 1]`` and the kernel bound times ``sum |dual_coef|`` plus
    ``|bias|`` does not overflow.
    """
    from repro.core.labels import ALL_NATURES

    kind = "cart" if isinstance(model, DecisionTreeClassifier) else "svm"
    if kind != classifier.model_kind:
        raise ValueError(
            f"model_kind {classifier.model_kind!r} holds a {kind} model"
        )
    classes = model.classes_
    if classes.min() < 0 or classes.max() >= len(ALL_NATURES):
        raise ValueError(
            f"classes {classes.tolist()} are not flow natures "
            f"0..{len(ALL_NATURES) - 1}"
        )
    width = len(classifier.feature_set)
    if kind == "cart":
        if model.n_features_ != width:
            raise ValueError(
                f"the tree takes {model.n_features_} features, the feature "
                f"set has {width}"
            )
        return
    bound = _gram_bound(model.kernel, width)
    for svc in model.pairwise_.values():
        vectors = svc.support_vectors_
        if vectors.shape[1] != width:
            raise ValueError(
                f"support vectors have {vectors.shape[1]} features, the "
                f"feature set has {width}"
            )
        if vectors.min() < 0.0 or vectors.max() > 1.0:
            raise ValueError("support vectors lie outside [0, 1]")
        weight = sum(map(abs, svc.dual_coef_.tolist()))
        if not math.isfinite(bound * weight + abs(svc.bias_)):
            raise ValueError("a pairwise score can overflow on [0, 1] inputs")


def _gram_bound(kernel, width: int) -> float:
    """Largest ``|K(x, s)|`` over ``x, s`` in ``[0, 1]^width`` (inf: overflows).

    Also inf when computing the gram itself can overflow: the RBF
    exponent multiplies ``gamma`` by a squared distance of at most
    ``2 * width`` as computed.
    """
    from repro.ml.svm.kernels import LinearKernel, RbfKernel

    if isinstance(kernel, RbfKernel):
        return 1.0 if math.isfinite(kernel.gamma * 2.0 * width) else math.inf
    if isinstance(kernel, LinearKernel):
        return float(width)
    base = max(abs(kernel.coef0), abs(kernel.gamma * width + kernel.coef0))
    try:
        return base**kernel.degree
    except OverflowError:
        return math.inf


def load_classifier(path):
    """Load a classifier written by :func:`save_classifier`.

    Raises :class:`ModelFormatError` when the file is truncated, not
    JSON, or not a supported classifier payload.
    """
    return classifier_from_dict(_read_json(path, "classifier"))
