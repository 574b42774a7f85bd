"""Memory accounting for the classifier's per-flow state.

Formalizes the space model behind the paper's Table 3 and Figure 5,
reverse-engineered from the paper's own numbers:

* **exact calculation** — the flow buffer itself plus one small counter
  per *distinct observed* k-gram across the feature set
  (b=1024, alpha ~= 1911 counters: ``1024 + 2 x 1911 ~= 4.9 KB``, the
  paper's 5.1 KB; b=32: ~200 B, the paper's 195 B);
* **(delta, epsilon)-estimation** — ``g x z`` counters only, with *no*
  buffer: the streaming estimator never retains the stream
  (epsilon=0.25, delta=0.75 over the SVM set: 662 counters ~= 1.3 KB,
  the paper's 1.6 KB);
* **CDB** — 194 bits per classified flow (see :mod:`repro.core.cdb`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.cdb import RECORD_BYTES
from repro.core.entropy_vector import require_window_lengths, window_entropies
from repro.core.features import FeatureSet

if TYPE_CHECKING:  # the estimation study is not on the classify path
    from repro.core.estimation import EstimationBudget

__all__ = [
    "DEFAULT_COUNTER_BYTES",
    "distinct_counters",
    "estimation_space_bytes",
    "exact_space_bytes",
    "flow_state_bytes",
    "window_state_bytes",
]

#: Counter width: 2 bytes count up to 65535 occurrences, enough for any
#: buffer the paper considers (max 8 KB).
DEFAULT_COUNTER_BYTES = 2


def distinct_counters(buffer: "bytes | bytearray", features: FeatureSet) -> int:
    """Number of non-zero k-gram counters an exact calculation touches.

    This is the empirical ``alpha`` of Formula (3): one counter per
    distinct observed k-gram, summed over the feature set (``h_1``
    included — exact calculation counts single bytes too), as the window
    kernel counts them on its way to the vector.
    """
    windows = [bytes(buffer)]
    require_window_lengths(windows, features.max_width)
    _, distinct = window_entropies(windows, tuple(features.widths))
    return int(distinct.sum())


def exact_space_bytes(
    buffer: "bytes | bytearray",
    features: FeatureSet,
    counter_bytes: int = DEFAULT_COUNTER_BYTES,
) -> int:
    """Per-flow bytes for exact entropy-vector calculation.

    Buffer + counters: the buffer must be retained (every feature width
    re-scans it), and each distinct observed k-gram needs a counter.
    """
    if counter_bytes < 1:
        raise ValueError(f"counter_bytes must be >= 1, got {counter_bytes}")
    return len(buffer) + counter_bytes * distinct_counters(buffer, features)


def estimation_space_bytes(
    budget: EstimationBudget,
    features: FeatureSet,
    counter_bytes: int = DEFAULT_COUNTER_BYTES,
) -> int:
    """Per-flow bytes for (delta, epsilon)-estimated entropy vectors.

    Counters only — the streaming estimator processes each byte once and
    never stores the flow buffer. ``h_1`` is still computed exactly but
    its flat count array is tiny and bounded by the buffer's distinct
    bytes; we charge the 256-entry worst case.
    """
    if counter_bytes < 1:
        raise ValueError(f"counter_bytes must be >= 1, got {counter_bytes}")
    h1_counters = 256 if 1 in features.widths else 0
    return counter_bytes * (budget.total_counters(features) + h1_counters)


def window_state_bytes(
    distinct: "np.ndarray", held_bytes: "np.ndarray"
) -> "np.ndarray":
    """Engine-telemetry per-flow state of a classify drain, CDB included.

    ``distinct[i]`` is window ``i``'s distinct-gram total — the non-zero
    counters of its §4.4 tables, as the window kernel counted them on
    its way to the vector — and ``held_bytes[i]`` the payload bytes the
    flow holds besides: the whole window on the buffered path (so a flow
    is charged :func:`flow_state_bytes` of its window), only the
    ``max_width - 1`` byte boundary carry on the Section-4.4
    fold-at-arrival shape, whose count tables never retain the payload.
    Plus the 194-bit CDB record the flow occupies once labelled; float64
    bytes per flow, comparable one-for-one with the paper's ~200 B
    Table-3 figure.
    """
    return (
        DEFAULT_COUNTER_BYTES * np.asarray(distinct, dtype=np.float64)
        + np.asarray(held_bytes, dtype=np.float64)
        + RECORD_BYTES
    )


def flow_state_bytes(
    window: "bytes | bytearray",
    features: FeatureSet,
    counter_bytes: int = DEFAULT_COUNTER_BYTES,
) -> float:
    """Total per-flow state the engine held to classify ``window``.

    The paper's ~200 B headline (Table 3, b=32) counts the buffering-time
    state — buffer plus exact-calculation counters — *and* the CDB record
    the flow occupies once labelled; this is the engine-telemetry view of
    that number, charged at classification time for the window actually
    examined.
    """
    return exact_space_bytes(window, features, counter_bytes) + RECORD_BYTES
