"""Tests for JSON model persistence (pickle-free round trips)."""

import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.classifier import IustitiaClassifier, TrainingMethod
from repro.ml.persistence import (
    ModelFormatError,
    classifier_to_dict,
    load_classifier,
    load_model,
    model_from_dict,
    model_to_dict,
    save_classifier,
    save_model,
)
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel
from repro.ml.tree.cart import DecisionTreeClassifier

#: The SVM and CART models the benchmark workloads train
#: (``build_corpus(per_class=60, seed=7)``, ``b = 32``, PHI_SVM_PRIME /
#: PHI_CART_PRIME), written by ``save_model`` of the release whose
#: classifier still carried a (delta, epsilon) estimator.
SAVED_MODELS = Path(__file__).parent / "saved_models"
SVM = "workload_svm.json"
CART = "workload_cart.json"


@pytest.fixture(scope="module")
def fitted_models(blob_features):
    X, y = blob_features
    cart = DecisionTreeClassifier(max_depth=5).fit(X, y)
    svm = DagSvmClassifier(C=100.0, kernel=RbfKernel(gamma=20.0)).fit(X, y)
    return cart, svm, X, y


class TestCartRoundTrip:
    def test_predictions_identical(self, fitted_models, tmp_path):
        cart, _, X, _ = fitted_models
        path = tmp_path / "cart.json"
        save_model(cart, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(X), cart.predict(X))

    def test_structure_preserved(self, fitted_models, tmp_path):
        cart, _, _, _ = fitted_models
        path = tmp_path / "cart.json"
        save_model(cart, path)
        loaded = load_model(path)
        assert loaded.node_count == cart.node_count
        assert loaded.depth == cart.depth
        assert loaded.max_depth == cart.max_depth

    def test_file_is_plain_json(self, fitted_models, tmp_path):
        cart, _, _, _ = fitted_models
        path = tmp_path / "cart.json"
        save_model(cart, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro/cart"

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError, match="unfitted"):
            model_to_dict(DecisionTreeClassifier())


class TestDagSvmRoundTrip:
    def test_predictions_identical(self, fitted_models, tmp_path):
        _, svm, X, _ = fitted_models
        path = tmp_path / "svm.json"
        save_model(svm, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(X), svm.predict(X))

    def test_support_vectors_preserved(self, fitted_models, tmp_path):
        _, svm, _, _ = fitted_models
        path = tmp_path / "svm.json"
        save_model(svm, path)
        loaded = load_model(path)
        assert loaded.total_support_vectors_ == svm.total_support_vectors_

    def test_kernel_parameters_preserved(self, fitted_models, tmp_path):
        _, svm, _, _ = fitted_models
        path = tmp_path / "svm.json"
        save_model(svm, path)
        loaded = load_model(path)
        assert loaded.kernel.gamma == svm.kernel.gamma

    def test_linear_and_poly_kernels_round_trip(self, blob_features):
        X, y = blob_features
        for kernel in (LinearKernel(), PolynomialKernel(degree=2)):
            svm = DagSvmClassifier(C=10.0, kernel=kernel).fit(X, y)
            loaded = model_from_dict(model_to_dict(svm))
            np.testing.assert_array_equal(loaded.predict(X), svm.predict(X))


class TestErrorHandling:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown model format"):
            model_from_dict({"format": "repro/forest", "version": 1})

    def test_wrong_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            model_from_dict({"format": "repro/cart", "version": 99})

    def test_non_model_rejected(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            model_to_dict(object())


class TestModelFormatError:
    def test_format_version_stamped(self, fitted_models, tmp_path):
        cart, svm, _, _ = fitted_models
        for name, model in (("cart.json", cart), ("svm.json", svm)):
            path = tmp_path / name
            save_model(model, path)
            payload = json.loads(path.read_text())
            assert payload["format_version"] == 1

    def test_classifier_format_version_stamped(self, small_corpus, tmp_path):
        clf = IustitiaClassifier(model="cart", buffer_size=64).fit_corpus(
            small_corpus
        )
        path = tmp_path / "clf.json"
        save_classifier(clf, path)
        assert json.loads(path.read_text())["format_version"] == 1

    def test_legacy_version_key_still_loads(self, fitted_models):
        cart, _, X, _ = fitted_models
        payload = model_to_dict(cart)
        payload["version"] = payload.pop("format_version")
        loaded = model_from_dict(payload)
        np.testing.assert_array_equal(loaded.predict(X), cart.predict(X))

    def test_truncated_file_raises_model_format_error(
        self, fitted_models, tmp_path
    ):
        cart, _, _, _ = fitted_models
        path = tmp_path / "cart.json"
        save_model(cart, path)
        truncated = tmp_path / "truncated.json"
        truncated.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ModelFormatError, match="truncated or not JSON"):
            load_model(truncated)

    def test_non_json_file_raises_model_format_error(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x80\x04not a model")
        with pytest.raises(ModelFormatError, match="truncated or not JSON"):
            load_model(path)
        with pytest.raises(ModelFormatError, match="truncated or not JSON"):
            load_classifier(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ModelFormatError, match="expected a JSON object"):
            load_model(path)

    def test_missing_model_field_raises_model_format_error(self, fitted_models):
        cart, _, _, _ = fitted_models
        payload = model_to_dict(cart)
        del payload["root"]
        with pytest.raises(ModelFormatError, match="missing or malformed"):
            model_from_dict(payload)

    def test_missing_classifier_field_raises_model_format_error(
        self, small_corpus, tmp_path
    ):
        clf = IustitiaClassifier(model="cart", buffer_size=64).fit_corpus(
            small_corpus
        )
        path = tmp_path / "clf.json"
        save_classifier(clf, path)
        payload = json.loads(path.read_text())
        del payload["model"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="missing or malformed"):
            load_classifier(broken)

    @pytest.mark.parametrize(
        "name, damage",
        [
            pytest.param(SVM, lambda p: p.update(training="sideways"),
                         id="unknown-training"),
            pytest.param(SVM, lambda p: p.update(model_kind="forest"),
                         id="unknown-model-kind"),
            pytest.param(SVM, lambda p: p["model"]["kernel"].update(kind="sigmoid"),
                         id="unknown-kernel"),
            pytest.param(SVM, lambda p: p.update(feature_widths=[0, 2]),
                         id="zero-width"),
            pytest.param(SVM, lambda p: p.update(buffer_size=4),
                         id="buffer-below-widest"),
            pytest.param(
                SVM,
                lambda p: p["model"]["pairwise"]["0,1"]["support_vectors"][0].pop(),
                id="ragged-support-vectors",
            ),
            pytest.param(SVM, lambda p: p["model"].update(pairwise={}),
                         id="empty-pairwise"),
            # Each of these loaded before, then crashed or mislabelled at
            # the first predict.
            pytest.param(CART, lambda p: p["model"].update(n_features=2),
                         id="cart-n-features-below-widths"),
            pytest.param(CART, lambda p: p["model"]["root"].update(feature=7),
                         id="cart-split-feature-out-of-range"),
            pytest.param(CART, lambda p: p["model"]["root"].update(feature=1.5),
                         id="cart-split-feature-not-integer"),
            pytest.param(SVM, lambda p: p["model"].update(classes=[0, 1, 9]),
                         id="svm-class-not-a-nature"),
            pytest.param(CART, lambda p: p["model"].update(classes=[0.5, 1, 2]),
                         id="cart-class-not-integer"),
            pytest.param(CART, lambda p: p["model"].update(classes=[0, 1, 7]),
                         id="cart-class-not-a-nature"),
            pytest.param(
                SVM,
                lambda p: p["model"]["pairwise"]["0,1"]["support_vectors"][0]
                .__setitem__(0, float("nan")),
                id="nan-support-vector",
            ),
            pytest.param(
                SVM,
                lambda p: p["model"]["pairwise"]["0,2"]["dual_coef"]
                .__setitem__(0, float("inf")),
                id="infinite-dual-coef",
            ),
            pytest.param(
                SVM, lambda p: p["model"]["pairwise"]["1,2"].update(bias=float("nan")),
                id="nan-bias",
            ),
            pytest.param(
                CART, lambda p: p["model"]["root"].update(threshold=float("-inf")),
                id="infinite-threshold",
            ),
        ],
    )
    def test_rejected_settings_raise_model_format_error(
        self, tmp_path, name, damage
    ):
        payload = json.loads((SAVED_MODELS / name).read_text())
        damage(payload)
        path = tmp_path / "damaged.json"
        # ``json.dumps`` writes NaN / Infinity tokens, which ``json`` reads.
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="malformed"):
            repro.load_model(path)

    def test_model_format_error_is_value_error(self):
        # Callers with existing `except ValueError` handling keep working.
        assert issubclass(ModelFormatError, ValueError)


class TestClassifierRoundTrip:
    def test_full_classifier(self, small_corpus, tmp_path):
        clf = IustitiaClassifier(model="cart", buffer_size=64).fit_corpus(
            small_corpus
        )
        path = tmp_path / "iustitia.json"
        save_classifier(clf, path)
        loaded = load_classifier(path)
        assert loaded.buffer_size == 64
        assert loaded.feature_set.widths == clf.feature_set.widths
        assert loaded.training == TrainingMethod.FIRST_B
        sample = small_corpus.files[0]
        assert loaded.classify_file(sample.data) == clf.classify_file(sample.data)

    def test_estimator_block_rejected(self, tmp_path):
        path = tmp_path / "estimated.json"
        payload = json.loads((SAVED_MODELS / "workload_cart.json").read_text())
        payload["estimator"] = {"epsilon": 0.3, "delta": 0.6, "buffer_size": 1024}
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="'estimator' block"):
            load_classifier(path)

    @pytest.mark.parametrize("name", ["workload_svm.json", "workload_cart.json"])
    def test_saved_workload_models_load_unchanged(self, name):
        path = SAVED_MODELS / name
        loaded = load_classifier(path)
        assert classifier_to_dict(loaded) == json.loads(path.read_text())

    def test_non_classifier_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="IustitiaClassifier"):
            save_classifier("not a classifier", tmp_path / "x.json")

    def test_unknown_classifier_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "other", "version": 1}))
        with pytest.raises(ValueError, match="unknown classifier format"):
            load_classifier(path)
