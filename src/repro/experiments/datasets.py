"""Standard datasets for the benchmark suite.

Every bench draws from the same seeded corpus and trace so results are
comparable across benches and runs. Feature extraction (the entropy
vectors of every file) is cached in-process because it dominates wall
time; caches key on the exact extraction parameters.

Scale note: the paper's pool has ~90k files and its cross-validation draws
6000 files per fold; this harness defaults to 100 files per class with
2-16 KB sizes, which keeps the full bench suite in CPU-minutes while
preserving every reported effect (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.entropy_vector import entropy_vectors_batch, training_windows
from repro.core.features import FeatureSet
from repro.core.labels import FlowNature
from repro.data.corpus import Corpus, build_corpus
from repro.net.trace import Trace
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace

__all__ = [
    "DEFAULT_PER_CLASS",
    "DEFAULT_SEED",
    "feature_matrix",
    "standard_corpus",
    "standard_trace",
]

DEFAULT_PER_CLASS = 100
DEFAULT_SEED = 2009


@functools.lru_cache(maxsize=8)
def standard_corpus(
    per_class: int = DEFAULT_PER_CLASS,
    seed: int = DEFAULT_SEED,
    min_size: int = 2048,
    max_size: int = 16384,
) -> Corpus:
    """The shared seeded corpus (cached)."""
    return build_corpus(
        per_class=per_class, seed=seed, min_size=min_size, max_size=max_size
    )


@functools.lru_cache(maxsize=8)
def standard_trace(
    n_flows: int = 800,
    duration: float = 80.0,
    seed: int = DEFAULT_SEED,
    app_header_probability: float = 0.0,
) -> Trace:
    """The shared synthetic gateway trace (cached)."""
    return generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=n_flows,
            duration=duration,
            seed=seed,
            app_header_probability=app_header_probability,
        )
    )


@functools.lru_cache(maxsize=64)
def _cached_features(
    per_class: int,
    seed: int,
    min_size: int,
    max_size: int,
    widths: tuple[int, ...],
    prefix: "int | None",
    offset_cap: int,
) -> tuple[np.ndarray, np.ndarray]:
    corpus = standard_corpus(per_class, seed, min_size, max_size)
    windows = training_windows(
        [labeled.data for labeled in corpus],
        prefix,
        offset_cap if offset_cap > 0 else None,
        np.random.default_rng(seed + 1),
    )
    X = entropy_vectors_batch(windows, FeatureSet("matrix", widths))
    return X, np.array([int(labeled.nature) for labeled in corpus], dtype=np.int64)


def feature_matrix(
    widths: "tuple[int, ...]" = tuple(range(1, 11)),
    per_class: int = DEFAULT_PER_CLASS,
    seed: int = DEFAULT_SEED,
    min_size: int = 2048,
    max_size: int = 16384,
    prefix: "int | None" = None,
    offset_cap: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` of entropy vectors over the standard corpus (cached).

    ``prefix=None`` extracts H_F (whole files); an integer extracts H_b
    (first ``prefix`` bytes); adding ``offset_cap > 0`` extracts H_b'
    (window of ``prefix`` bytes at a random offset in ``[0, offset_cap]``).
    Labels are ``int(FlowNature)`` values.
    """
    if prefix is None and offset_cap:
        raise ValueError("offset_cap requires a prefix length")
    X, y = _cached_features(
        per_class, seed, min_size, max_size, tuple(widths), prefix, offset_cap
    )
    return X.copy(), y.copy()


def natures_of(y: np.ndarray) -> list[FlowNature]:
    """Decode an integer label vector into FlowNature values."""
    return [FlowNature(int(v)) for v in y]
