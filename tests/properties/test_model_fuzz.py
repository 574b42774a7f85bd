"""Fuzz: a damaged model file is a ``ModelFormatError`` or a working model.

Both saved workload models (``tests/ml/saved_models``) are damaged at
the byte level (bits flipped, bytes overwritten, cut short) and at the
structure level (a value anywhere in the JSON tree replaced by any JSON
value — ``NaN`` and ``Infinity`` included, which Python's ``json``
reads — or deleted). ``load_model`` may raise ``ModelFormatError`` and
nothing else; a model that loads must label a finite ``[0, 1]`` matrix
of its own width with flow natures, and raise no warning doing so.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.core.labels import ALL_NATURES
from repro.ml.persistence import ModelFormatError

SAVED = Path(__file__).parent.parent / "ml" / "saved_models"
NAMES = ["workload_svm.json", "workload_cart.json"]
ORIGINALS = {name: (SAVED / name).read_bytes() for name in NAMES}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("model_fuzz") / "damaged.json"


def load_or_reject(path: Path, data: bytes):
    """The loaded classifier, or None for a ``ModelFormatError``."""
    path.write_bytes(data)
    try:
        return repro.load_model(path)
    except ModelFormatError:
        return None


def assert_serves(classifier, seed: int) -> None:
    """Flow natures, without a warning, for a finite [0, 1] matrix."""
    width = len(classifier.feature_set)
    rng = np.random.default_rng(seed)
    X = np.vstack([np.zeros(width), np.ones(width), rng.random((6, width))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = classifier.predict_vectors(X)
    assert len(labels) == len(X)
    assert all(label in ALL_NATURES for label in labels)


@st.composite
def byte_damage(draw) -> bytes:
    """A saved model with a few bytes flipped or overwritten, maybe cut."""
    data = bytearray(ORIGINALS[draw(st.sampled_from(NAMES))])
    for _ in range(draw(st.integers(1, 4))):
        index = draw(st.integers(0, len(data) - 1))
        if draw(st.booleans()):
            data[index] ^= 1 << draw(st.integers(0, 7))
        else:
            data[index] = draw(st.sampled_from(b'0123456789-+.eE,:[]{}"nNIa \x00\xff'))
    if draw(st.booleans()):
        del data[draw(st.integers(0, len(data))):]
    return bytes(data)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1000, 1000)
    | st.floats(allow_nan=True, allow_infinity=True)
    # Near-misses of what the loaders expect, and an integer no float holds.
    | st.sampled_from([7, 1.5, 1e300, 10**400, "0,1", "1,2", "rbf", "cart", "svm"])
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)


def slots(node, out: list) -> list:
    """Every ``(container, key)`` in a JSON tree, parents first."""
    items = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in items:
        out.append((node, key))
        slots(child, out)
    return out


@st.composite
def structural_damage(draw) -> bytes:
    """A saved model with one to three values replaced or deleted."""
    payload = json.loads(ORIGINALS[draw(st.sampled_from(NAMES))])
    for _ in range(draw(st.integers(1, 3))):
        found = slots(payload, [])
        if not found:
            break
        container, key = found[draw(st.integers(0, len(found) - 1))]
        if draw(st.booleans()):
            container[key] = draw(json_values)
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    return json.dumps(payload).encode()


@given(data=byte_damage(), seed=st.integers(0, 2**32 - 1))
def test_byte_damage_is_rejected_or_served(scratch, data, seed):
    classifier = load_or_reject(scratch, data)
    if classifier is not None:
        assert_serves(classifier, seed)


@given(data=structural_damage(), seed=st.integers(0, 2**32 - 1))
def test_structural_damage_is_rejected_or_served(scratch, data, seed):
    classifier = load_or_reject(scratch, data)
    if classifier is not None:
        assert_serves(classifier, seed)


@pytest.mark.parametrize("name", NAMES)
def test_undamaged_models_serve(scratch, name):
    classifier = load_or_reject(scratch, ORIGINALS[name])
    assert classifier is not None
    assert_serves(classifier, 0)
