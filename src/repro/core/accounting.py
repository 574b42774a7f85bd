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
    "incremental_flow_state_bytes",
    "incremental_flow_state_bytes_array",
    "incremental_space_bytes",
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


def incremental_space_bytes(
    num_counters: int,
    carry_bytes: int,
    counter_bytes: int = DEFAULT_COUNTER_BYTES,
) -> int:
    """Per-flow bytes of the paper's Section-4.4 fold-at-arrival shape.

    Counters plus the ``max_width - 1`` boundary carry only: a flow
    whose packets fold into k-gram count tables on arrival never retains
    the payload, so the buffer term of :func:`exact_space_bytes`
    disappears. ``num_counters`` is the number of *non-zero* counters
    such tables would hold (the empirical ``alpha``), and
    ``carry_bytes`` the trailing bytes kept to stitch grams across
    packet boundaries. This is a *model*: the incremental extractor
    charges it for each window it classifies, while what the process
    holds is that window (at most ``b`` bytes, extracted once at the
    drain — measured faster than folding tables per packet, DESIGN.md
    "Fold batching").
    """
    if num_counters < 0:
        raise ValueError(f"num_counters must be >= 0, got {num_counters}")
    if carry_bytes < 0:
        raise ValueError(f"carry_bytes must be >= 0, got {carry_bytes}")
    if counter_bytes < 1:
        raise ValueError(f"counter_bytes must be >= 1, got {counter_bytes}")
    return counter_bytes * num_counters + carry_bytes


def incremental_flow_state_bytes(
    num_counters: int,
    carry_bytes: int,
    counter_bytes: int = DEFAULT_COUNTER_BYTES,
) -> float:
    """Engine-telemetry view of incremental per-flow state, CDB included.

    The exact (not sampled) counterpart of :func:`flow_state_bytes` for
    the incremental extractor: modelled counter tables + boundary carry
    + the 194-bit CDB record the flow occupies once labelled. Comparable
    one-for-one against the paper's ~200 B Table-3 figure and against
    the buffered baseline's :func:`flow_state_bytes`.
    """
    return (
        incremental_space_bytes(num_counters, carry_bytes, counter_bytes)
        + RECORD_BYTES
    )


def incremental_flow_state_bytes_array(
    num_counters: "np.ndarray",
    carry_bytes: "np.ndarray",
    counter_bytes: int = DEFAULT_COUNTER_BYTES,
) -> "np.ndarray":
    """Vectorized :func:`incremental_flow_state_bytes` over a whole batch.

    Under exact accounting the engine charges every classified flow; one
    arithmetic pass over the batch keeps that honest without a Python
    call per flow. ``num_counters[i]`` / ``carry_bytes[i]`` describe
    flow ``i``; returns float64 state bytes per flow, CDB record
    included.
    """
    if counter_bytes < 1:
        raise ValueError(f"counter_bytes must be >= 1, got {counter_bytes}")
    counters = np.asarray(num_counters, dtype=np.float64)
    carries = np.asarray(carry_bytes, dtype=np.float64)
    if counters.size and float(counters.min(initial=0.0)) < 0:
        raise ValueError("num_counters must be >= 0")
    if carries.size and float(carries.min(initial=0.0)) < 0:
        raise ValueError("carry_bytes must be >= 0")
    return counter_bytes * counters + carries + RECORD_BYTES


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
