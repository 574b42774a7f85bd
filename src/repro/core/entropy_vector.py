"""Entropy vectors: H_F, H_b, and H_b' extraction (Sections 3.1 and 4.3).

An entropy vector of a byte sequence is the vector ``<h_k : k in widths>``
of normalized k-gram entropies. The paper distinguishes three ways to take
the bytes the vector is computed from:

* ``H_F``  — the whole file.
* ``H_b``  — the first ``b`` bytes (what an online classifier sees once its
  flow buffer fills).
* ``H_b'`` — ``b`` consecutive bytes starting at a random offset in
  ``[0, T]``, modelling an unknown application-layer header of at most
  ``T`` bytes that has been (approximately) skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.entropy import (
    PACKED_MAX_K,
    PooledLayout,
    _as_byte_array,
    entropy_from_counts,
    kgram_count_values,
    kgram_entropy,
    pooled_kgram_entropies,
)
from repro.core.features import FULL_FEATURES, FeatureSet

__all__ = [
    "EntropyVector",
    "entropy_vector",
    "entropy_vectors_batch",
    "prefix_vector",
    "random_offset_vector",
]

_LN2 = math.log(2.0)

#: Drain shapes whose pooled layout is kept (least recently used goes).
_LAYOUT_STORE_SIZE = 32


@dataclass(frozen=True)
class EntropyVector:
    """An extracted entropy vector and the feature widths it was built from."""

    values: np.ndarray
    widths: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.widths),):
            raise ValueError(
                f"got {self.values.shape[0]} values for {len(self.widths)} widths"
            )

    def __len__(self) -> int:
        return len(self.widths)

    def __getitem__(self, width: int) -> float:
        """Value of feature ``h_width`` (by width, not by position)."""
        try:
            idx = self.widths.index(width)
        except ValueError:
            raise KeyError(f"h_{width} is not in this vector (widths={self.widths})")
        return float(self.values[idx])

    def as_array(self) -> np.ndarray:
        """The raw feature vector (copy), for feeding a classifier."""
        return np.array(self.values, dtype=np.float64)


def entropy_vector(
    data: "bytes | bytearray | np.ndarray",
    features: FeatureSet = FULL_FEATURES,
) -> EntropyVector:
    """Exact entropy vector of ``data`` over ``features``.

    Requires ``len(data) >= features.max_width``; an online caller should
    size its flow buffer at least that large.
    """
    values = np.array(
        [kgram_entropy(data, k) for k in features.widths], dtype=np.float64
    )
    return EntropyVector(values=values, widths=tuple(features.widths))


def _entropies_from_change(
    change: np.ndarray, k: int, n_elements: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Per-row ``(h_k, distinct grams)`` from a run-start mask over sorted k-grams.

    ``change[r, j]`` is True where row ``r``'s j-th grouped gram starts a
    new run. Run lengths are the k-gram multiplicities ``m_ik``; the
    flattened run-start positions never cross a row boundary because
    ``change[:, 0]`` is always True, so one ``np.bincount`` over run rows
    reduces ``sum m_ik log m_ik`` for the whole batch.
    """
    n_rows = change.shape[0]
    distinct = change.sum(axis=1)
    starts = np.flatnonzero(change.ravel())
    runs = np.diff(np.append(starts, n_rows * n_elements))
    # Runs of length 1 contribute 1 * log(1) = 0: drop them before the log.
    repeated = runs > 1
    runs = runs[repeated]
    rows_of_run = starts[repeated] // n_elements
    s_k = np.bincount(rows_of_run, weights=runs * np.log(runs), minlength=n_rows)
    h_k = (math.log(n_elements) - s_k / n_elements) / (8.0 * k * _LN2)
    h_k = np.clip(h_k, 0.0, 1.0)
    # Match entropy_from_counts: a single distinct element is exactly zero.
    h_k[distinct == 1] = 0.0
    return h_k, distinct


@lru_cache(maxsize=_LAYOUT_STORE_SIZE)
def _packed_layout(n_rows: int, m: int, small: "tuple[int, ...]") -> PooledLayout:
    """The pooled layout of ``n_rows`` windows of ``m`` bytes over ``small``.

    Group ``(width, row)``, width-major. Classify drains repeat a handful
    of shapes (``max_batch`` full windows, mostly), so the layout is
    built at a shape's first drain and kept.
    """
    return PooledLayout(
        np.repeat([m - k + 1 for k in small], n_rows),
        np.repeat(np.asarray(small, dtype=np.float64), n_rows),
        8 * max(small),
    )


def _group_entropies(
    mat: np.ndarray, widths: "tuple[int, ...]"
) -> "tuple[np.ndarray, list[np.ndarray]]":
    """``(entropies, distinct-gram blocks)`` of a 2-D uint8 buffer matrix.

    The entropies are ``(n_rows, len(widths))``; the blocks are what
    :func:`distinct_totals` sums, handed on as the reductions produced
    them so that a caller who does not read them pays nothing.

    Packed keys are built incrementally (width ``k`` reuses the width
    ``k - 1`` keys). Every width up to ``PACKED_MAX_K`` — ``h_1``
    included, its key is the byte itself — is pooled into one
    :func:`~repro.core.entropy.pooled_kgram_entropies` call (group =
    (width, row)): one sort for the whole matrix, whatever the number of
    widths. Widths in ``(8, 16]`` split each gram into a (first ``k - 8``
    bytes, last 8 bytes) two-word key grouped with one ``np.lexsort``;
    wider grams fall back to the per-row void-view path.
    """
    n_rows, m = mat.shape
    out = np.empty((n_rows, len(widths)), dtype=np.float64)
    counted: "list[np.ndarray]" = []
    small = [k for k in widths if k <= PACKED_MAX_K]
    two_word = [k for k in widths if PACKED_MAX_K < k <= 2 * PACKED_MAX_K]
    column_of = {k: column for column, k in enumerate(widths)}
    pack_targets = set(small)
    if two_word:
        pack_targets.add(PACKED_MAX_K)
        pack_targets.update(k - PACKED_MAX_K for k in two_word)
    packs: dict[int, np.ndarray] = {}
    if pack_targets:
        keys = wide = mat.astype(np.uint64)
        packs[1] = wide
        for k in range(2, max(pack_targets) + 1):
            n_k = m - k + 1
            keys = keys[:, :n_k] << 8
            keys |= wide[:, k - 1 : k - 1 + n_k]
            if k in pack_targets:
                packs[k] = keys
    if small:
        pooled, distinct = pooled_kgram_entropies(
            np.concatenate([packs[k].ravel() for k in small]),
            _packed_layout(n_rows, m, tuple(small)),
        )
        counted.append(distinct.reshape(len(small), n_rows))
        for k, column in zip(small, pooled.reshape(len(small), n_rows)):
            out[:, column_of[k]] = column
    for k in two_word:
        n_k = m - k + 1
        head = k - PACKED_MAX_K
        lo = packs[PACKED_MAX_K][:, head : head + n_k]
        hi = packs[head][:, :n_k]
        order = np.lexsort((lo, hi), axis=-1)
        lo_sorted = np.take_along_axis(lo, order, axis=1)
        hi_sorted = np.take_along_axis(hi, order, axis=1)
        change = np.empty((n_rows, n_k), dtype=bool)
        change[:, 0] = True
        change[:, 1:] = (hi_sorted[:, 1:] != hi_sorted[:, :-1]) | (
            lo_sorted[:, 1:] != lo_sorted[:, :-1]
        )
        out[:, column_of[k]], distinct = _entropies_from_change(change, k, n_k)
        counted.append(distinct)
    for k in widths:
        if k > 2 * PACKED_MAX_K:
            multiplicities = [kgram_count_values(row, k) for row in mat]
            out[:, column_of[k]] = [
                entropy_from_counts(m_k, k) for m_k in multiplicities
            ]
            counted.append(np.array([m_k.size for m_k in multiplicities]))
    return out, counted


def _uneven_packed_entropies(
    windows: list, lengths: "list[int]", widths: "tuple[int, ...]"
) -> "tuple[np.ndarray, list[np.ndarray]]":
    """:func:`_group_entropies` for windows of mixed lengths, all widths packed.

    The timeout / FIN / end-of-stream drain: one join, one incremental
    pack over the joined bytes, one layout (flows fill their windows
    unevenly, so it is per drain) and one pooled sort, however many
    distinct lengths the drain holds. The pack runs across window
    boundaries; a gram is kept iff it ends inside the window it starts in.
    """
    n = len(windows)
    sizes = np.asarray(lengths)
    wide = np.frombuffer(b"".join(windows), dtype=np.uint8).astype(np.uint64)
    #: Bytes from each position to the end of its own window.
    room = np.repeat(np.cumsum(sizes), sizes) - np.arange(wide.size)
    packs: dict[int, np.ndarray] = {}
    keys = wide
    for k in range(1, max(widths) + 1):
        if k > 1:
            keys = keys[:-1] << 8
            keys |= wide[k - 1 :]
        if k in widths:
            packs[k] = keys[room[: keys.size] >= k]
    pooled, distinct = pooled_kgram_entropies(
        np.concatenate([packs[k] for k in widths]),
        PooledLayout(
            np.concatenate([sizes - (k - 1) for k in widths]),
            np.repeat(np.asarray(widths, dtype=np.float64), n),
            8 * max(widths),
        ),
    )
    return (
        np.ascontiguousarray(pooled.reshape(len(widths), n).T),
        [distinct.reshape(len(widths), n)],
    )


def distinct_totals(counted: "list[np.ndarray]", n: int) -> np.ndarray:
    """Distinct grams of each of ``n`` windows, summed over all widths.

    ``counted`` is the second result of :func:`window_entropies`: blocks
    of per-window counts, ``(n,)`` for one width or ``(widths, n)`` for
    several. The total is the number of non-zero counters an exact
    calculation of the window's vector touches (the paper's ``alpha``).
    """
    totals = np.zeros(n, dtype=np.int64)
    for block in counted:
        totals += block if block.ndim == 1 else block.sum(axis=0)
    return totals


def window_entropies(
    windows: list, widths: "tuple[int, ...]"
) -> "tuple[np.ndarray, list[np.ndarray]]":
    """``(entropy vectors, distinct-gram blocks)`` of byte windows.

    The one window kernel behind :func:`entropy_vectors_batch` and the
    incremental extractor's finalize. The vectors are ``(n, d)``; the
    blocks hold the distinct-gram counts the reductions pass on their
    way to the entropies — the non-zero counters of the paper's §4.4
    table, which the incremental extractor's state accounting totals
    with :func:`distinct_totals` and the batch path leaves unread.
    ``windows`` are ``bytes`` / ``bytearray``, each at least
    ``max(widths)`` long. Which path runs follows from the lengths seen:
    equal-length windows (the usual classify drain: every window full)
    become one matrix on a cached layout; uneven windows pool into one
    sort when every width packs, and group by length otherwise.
    """
    n = len(windows)
    lengths = list(map(len, windows))
    if len(set(lengths)) == 1:
        mat = np.frombuffer(b"".join(windows), dtype=np.uint8)
        return _group_entropies(mat.reshape(n, lengths[0]), widths)
    if n and max(widths) <= PACKED_MAX_K:
        return _uneven_packed_entropies(windows, lengths, widths)
    # Some width too wide to pack (or nothing at all): one matrix per length.
    by_length: dict[int, list[int]] = {}
    for i, length in enumerate(lengths):
        by_length.setdefault(length, []).append(i)
    out = np.empty((n, len(widths)), dtype=np.float64)
    totals = np.empty(n, dtype=np.int64)
    for length, rows in by_length.items():
        mat = np.frombuffer(b"".join([windows[i] for i in rows]), dtype=np.uint8)
        out[rows], counted = _group_entropies(mat.reshape(len(rows), length), widths)
        totals[rows] = distinct_totals(counted, len(rows))
    return out, [totals]


def require_window_lengths(windows, max_width: int) -> None:
    """Raise for the first of ``windows`` too short to hold ``h_max_width``."""
    if windows and min(map(len, windows)) < max_width:
        index, size = next(
            (i, len(w)) for i, w in enumerate(windows) if len(w) < max_width
        )
        raise ValueError(
            f"buffer {index} has {size} bytes, cannot hold feature "
            f"h_{max_width}"
        )


def entropy_vectors_batch(
    buffers, features: FeatureSet = FULL_FEATURES
) -> np.ndarray:
    """Entropy vectors of many buffers at once, as an ``(n, d)`` matrix.

    Row ``i`` equals ``entropy_vector(buffers[i], features).values`` to
    within 1e-12 (summation order differs; everything else is identical).
    Equal-length buffers become one matrix through a single ``b"".join``,
    and every packed feature width shares one pooled sort — across
    mixed-length inputs too (:func:`window_entropies`).
    """
    windows = [
        b if type(b) is bytes else _as_byte_array(b).tobytes() for b in buffers
    ]
    require_window_lengths(windows, features.max_width)
    return window_entropies(windows, tuple(features.widths))[0]


def prefix_vector(
    data: "bytes | bytearray", buffer_size: int, features: FeatureSet = FULL_FEATURES
) -> EntropyVector:
    """``H_b``: entropy vector of the first ``buffer_size`` bytes.

    When the data is shorter than ``buffer_size`` the whole sequence is
    used, mirroring a flow that ends before its buffer fills.
    """
    if buffer_size < features.max_width:
        raise ValueError(
            f"buffer_size {buffer_size} is smaller than the widest feature "
            f"h_{features.max_width}"
        )
    return entropy_vector(bytes(data[:buffer_size]), features)


def random_offset_vector(
    data: "bytes | bytearray",
    buffer_size: int,
    max_header: int,
    rng: np.random.Generator,
    features: FeatureSet = FULL_FEATURES,
) -> EntropyVector:
    """``H_b'``: entropy vector of ``buffer_size`` bytes at a random offset.

    The offset is uniform in ``[0, max_header]`` (the paper's threshold
    ``T``), clipped so the window stays inside ``data``. Models training and
    classification where an unknown application header of at most ``T``
    bytes precedes the payload.
    """
    if max_header < 0:
        raise ValueError(f"max_header must be >= 0, got {max_header}")
    if buffer_size < features.max_width:
        raise ValueError(
            f"buffer_size {buffer_size} is smaller than the widest feature "
            f"h_{features.max_width}"
        )
    limit = max(0, min(max_header, len(data) - buffer_size))
    offset = int(rng.integers(0, limit + 1))
    window = bytes(data[offset : offset + buffer_size])
    return entropy_vector(window, features)
