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
traceback.
"""

from __future__ import annotations

import json

import numpy as np

from repro.ml.svm.binary import BinarySVC
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.ml.tree.cart import DecisionTreeClassifier, TreeNode

__all__ = [
    "ModelFormatError",
    "classifier_from_dict",
    "classifier_to_dict",
    "load_classifier",
    "load_model",
    "save_classifier",
    "save_model",
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(
            f"{what} file {path!s} is truncated or not JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(
            f"{what} file {path!s} holds {type(payload).__name__}, "
            "expected a JSON object"
        )
    return payload


# -- kernels -----------------------------------------------------------------


def _kernel_to_dict(kernel) -> dict:
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
    kind = payload.get("kind")
    if kind == "rbf":
        return RbfKernel(gamma=payload["gamma"])
    if kind == "linear":
        return LinearKernel()
    if kind == "poly":
        return PolynomialKernel(
            degree=payload["degree"], gamma=payload["gamma"], coef0=payload["coef0"]
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


def _node_from_dict(payload: dict) -> TreeNode:
    node = TreeNode(
        class_counts=np.asarray(payload["counts"], dtype=np.float64),
        depth=int(payload["depth"]),
        node_id=int(payload["id"]),
        impurity=float(payload["impurity"]),
    )
    if "feature" in payload:
        node.feature = int(payload["feature"])
        node.threshold = float(payload["threshold"])
        node.left = _node_from_dict(payload["left"])
        node.right = _node_from_dict(payload["right"])
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
    clf.classes_ = np.asarray(payload["classes"])
    clf.n_features_ = int(payload["n_features"])
    clf.root_ = _node_from_dict(payload["root"])
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
    svc = BinarySVC(
        C=payload["C"],
        kernel=_kernel_from_dict(payload["kernel"]),
        tol=payload["tol"],
        max_iter=payload["max_iter"],
    )
    svc.classes_ = np.asarray(payload["classes"])
    svc.support_vectors_ = np.asarray(payload["support_vectors"], dtype=np.float64)
    svc.dual_coef_ = np.asarray(payload["dual_coef"], dtype=np.float64)
    svc.bias_ = float(payload["bias"])
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
    clf = DagSvmClassifier(
        C=payload["C"],
        kernel=_kernel_from_dict(payload["kernel"]),
        tol=payload["tol"],
        max_iter=payload["max_iter"],
    )
    clf.classes_ = np.asarray(payload["classes"])
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
    except ValueError as exc:  # a value no estimator accepts
        raise ModelFormatError(f"{fmt} payload is malformed: {exc}") from exc


def save_model(model, path) -> None:
    """Write a fitted model as JSON."""
    with open(path, "w") as handle:
        json.dump(model_to_dict(model), handle)


def load_model(path):
    """Load a model written by :func:`save_model`.

    Raises :class:`ModelFormatError` when the file is truncated, not
    JSON, or not a supported model payload.
    """
    return model_from_dict(_read_json(path, "model"))


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
            payload["feature_name"], tuple(payload["feature_widths"])
        )
        classifier = IustitiaClassifier(
            model=payload["model_kind"],
            feature_set=feature_set,
            buffer_size=payload["buffer_size"],
            training=TrainingMethod(payload["training"]),
            header_threshold=payload["header_threshold"],
        )
        model_payload = payload["model"]
    except (KeyError, TypeError) as exc:
        raise ModelFormatError(
            f"classifier payload is missing or malformed at field {exc}"
        ) from exc
    except ValueError as exc:  # a setting the classifier rejects
        raise ModelFormatError(f"classifier payload is malformed: {exc}") from exc
    classifier._model = model_from_dict(model_payload)
    return classifier


def load_classifier(path):
    """Load a classifier written by :func:`save_classifier`.

    Raises :class:`ModelFormatError` when the file is truncated, not
    JSON, or not a supported classifier payload.
    """
    return classifier_from_dict(_read_json(path, "classifier"))
