"""Differential tests: the stacked DDAG evaluation against the scalar walk.

``DagSvmClassifier.predict`` scores every pairwise machine with one gram
against the stacked support vectors and walks the DDAG over the sign
table; ``predict_scalar`` consults ``k - 1`` machines per sample, one
``decision_function`` call per node, as the paper describes it. Same
labels, for every class count and kernel, however the model came to be
(fitted, re-fitted, loaded, unpickled).
"""

import json
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.classifier import IustitiaClassifier
from repro.ml.persistence import model_from_dict, model_to_dict
from repro.ml.svm import binary, dagsvm
from repro.ml.svm.binary import BinarySVC
from repro.ml.svm.dagsvm import DagSvmClassifier
from repro.ml.svm.kernels import LinearKernel, PolynomialKernel, RbfKernel

KERNELS = {
    "rbf": lambda: RbfKernel(gamma=4.0),
    "poly": lambda: PolynomialKernel(degree=2, gamma=1.0, coef0=1.0),
    "linear": LinearKernel,
}

#: Closer to zero than this, a pairwise score's sign is summation order.
SCORE_MARGIN = 1e-9


def blobs(rng, n_classes: int, per_class: int = 8, dims: int = 3):
    """``n_classes`` Gaussian blobs in the unit cube, labels not 0..k-1."""
    centres = rng.uniform(0.0, 1.0, size=(n_classes, dims))
    X = np.vstack(
        [centre + 0.07 * rng.standard_normal((per_class, dims)) for centre in centres]
    )
    y = np.repeat(3 + 4 * np.arange(n_classes), per_class)
    return X, y


def fit(kernel: str, X, y) -> DagSvmClassifier:
    return DagSvmClassifier(C=10.0, kernel=KERNELS[kernel](), max_iter=5_000).fit(X, y)


@st.composite
def problems(draw):
    """(fitted classifier, 1-64 query rows), drawn from one seed."""
    n_classes = draw(st.sampled_from((2, 3, 4, 5)))
    kernel = draw(st.sampled_from(sorted(KERNELS)))
    n_rows = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clf = fit(kernel, *blobs(rng, n_classes))
    queries = rng.uniform(-0.2, 1.2, size=(n_rows, 3))
    # A score within rounding of zero may land on either side of it in
    # the two evaluations (39-term matmul column vs a machine's own dot).
    scores = [svc.decision_function(queries) for svc in clf.pairwise_.values()]
    assume(np.abs(scores).min() > SCORE_MARGIN)
    return clf, queries


@settings(deadline=None)
@given(problem=problems())
def test_stacked_predict_equals_scalar_walk(problem):
    clf, queries = problem
    predicted = clf.predict(queries)
    assert predicted.dtype == clf.classes_.dtype
    assert (predicted == clf.predict_scalar(queries)).all()


@settings(deadline=None)
@given(problem=problems())
def test_unpickled_classifier_predicts_the_same(problem):
    clf, queries = problem
    clone = pickle.loads(pickle.dumps(clf))
    assert (clone.predict(queries) == clf.predict(queries)).all()


def machine(support_vectors, dual_coef, bias, classes) -> BinarySVC:
    """A binary machine with chosen parameters, bound as a model load binds it."""
    svc = BinarySVC(C=1.0, kernel=LinearKernel())
    svc.classes_ = np.asarray(classes)
    svc.support_vectors_ = np.asarray(support_vectors, dtype=np.float64)
    svc.dual_coef_ = np.asarray(dual_coef, dtype=np.float64)
    svc.bias_ = float(bias)
    return svc


def test_exactly_zero_score_goes_where_the_scalar_walk_sends_it():
    clf = DagSvmClassifier(C=1.0, kernel=LinearKernel())
    clf.classes_ = np.array([10, 20, 30])
    clf.pairwise_ = {
        # f(x) = x0 - x1: exactly 0.0 on the diagonal, in any summation order.
        (0, 2): machine([[1.0, 0.0], [0.0, 1.0]], [1.0, -1.0], 0.0, (10, 30)),
        (0, 1): machine([[1.0, 0.0]], [1.0], 0.0, (10, 20)),
        (1, 2): machine([[1.0, 0.0]], [1.0], -1.0, (20, 30)),
    }
    on_the_boundary = np.array([[0.5, 0.5]])
    assert clf.pairwise_[(0, 2)].decision_function(on_the_boundary)[0] == 0.0
    # ``>= 0.0`` eliminates the smaller class (10); node (1, 2) then reads
    # x0 - 1 = -0.5 and eliminates the larger (30).
    assert clf.predict_scalar(on_the_boundary).tolist() == [20]
    assert clf.predict(on_the_boundary).tolist() == [20]
    just_below = np.array([[0.5, 0.75]])  # x0 - x1 < 0: class 30 goes, (0, 1) decides
    assert clf.predict(just_below).tolist() == clf.predict_scalar(just_below).tolist() == [20]


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_saved_and_loaded_model_predicts_what_the_fitted_one_does(
    tmp_path, kernel, n_classes
):
    rng = np.random.default_rng(n_classes)
    clf = fit(kernel, *blobs(rng, n_classes))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(clf)))
    loaded = model_from_dict(json.loads(path.read_text()))
    queries = rng.uniform(-0.2, 1.2, size=(64, 3))
    assert (loaded.predict(queries) == clf.predict(queries)).all()
    assert (loaded.predict(queries) == loaded.predict_scalar(queries)).all()


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_second_fit_replaces_the_stack(kernel):
    rng = np.random.default_rng(11)
    first, second = blobs(rng, 5), blobs(rng, 3, per_class=12)
    clf = fit(kernel, *first)
    clf.fit(*second)
    fresh = fit(kernel, *second)
    queries = rng.uniform(-0.2, 1.2, size=(64, 3))
    assert clf.classes_.tolist() == fresh.classes_.tolist()
    assert (clf.predict(queries) == fresh.predict(queries)).all()
    assert (clf.predict(queries) == clf.predict_scalar(queries)).all()
    # No stale support vector, no stale machine: the stack is the new fit's.
    assert clf._dual_block.shape == (clf.total_support_vectors_, 3)


def test_machines_must_cover_every_pair_and_share_the_kernel():
    rng = np.random.default_rng(3)
    clf = fit("rbf", *blobs(rng, 3))
    machines = dict(clf.pairwise_)
    with pytest.raises(ValueError, match="one machine per class pair"):
        clf.pairwise_ = {pair: machines[pair] for pair in [(0, 1), (0, 2)]}
    machines[(1, 2)] = machine([[1.0, 0.0, 0.0]], [1.0], 0.0, clf.classes_[1:])
    with pytest.raises(ValueError, match="LinearKernel"):
        clf.pairwise_ = machines


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``check_X`` (wherever the SVM code reads it) and of the RBF gram."""
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for module in (dagsvm, binary):
        monkeypatch.setattr(module, "check_X", counting("check_X", module.check_X))
    # ``Kernel.against`` binds ``self._gram`` when the machines become
    # known, so the wrapper must be in place before the fit.
    monkeypatch.setattr(RbfKernel, "_gram", counting("gram", RbfKernel._gram))
    return calls


def test_one_gram_and_one_check_per_predict_vectors_call(counted):
    rng = np.random.default_rng(7)
    X, y = blobs(rng, 3, dims=4)
    classifier = IustitiaClassifier(model="svm")
    classifier._model.fit(X, y % 3)  # natures are 0, 1, 2
    counted.clear()

    natures = classifier.predict_vectors(rng.uniform(0.0, 1.0, size=(32, 4)))

    assert len(natures) == 32
    assert counted == Counter(check_X=1, gram=1)


def test_nan_row_raises_once(counted):
    rng = np.random.default_rng(9)
    clf = fit("rbf", *blobs(rng, 3))
    queries = rng.uniform(0.0, 1.0, size=(8, 3))
    queries[5, 1] = np.nan
    counted.clear()
    with pytest.raises(ValueError, match="NaN"):
        clf.predict(queries)
    # Rejected by the one validation, before any kernel work.
    assert counted == Counter(check_X=1)
