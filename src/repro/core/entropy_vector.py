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

:func:`training_windows` cuts those windows; one kernel,
:func:`window_entropies`, turns any windows — training files and flow
buffers alike — into vectors. :func:`entropy_vector` is Formula (1) one
buffer and one width at a time: the oracle the kernel is tested
against, and the per-buffer calculation Table 3 and Figure 5 time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.core.entropy import (
    PACKED_MAX_K,
    PooledLayout,
    _as_byte_array,
    kgram_entropy,
    pooled_kgram_entropies,
)
from repro.core.features import FULL_FEATURES, FeatureSet

__all__ = [
    "EntropyVector",
    "entropy_vector",
    "entropy_vectors_batch",
    "training_windows",
    "window_entropies",
]

#: Drain shapes whose pooled layout is kept (least recently used goes).
_LAYOUT_STORE_SIZE = 32

#: Bytes of windows handed to the kernel in one call: whole-file
#: training windows go in chunks of at most this much (or one window),
#: which bounds the kernel's key and sort scratch. Groups never mix, so
#: chunking changes no value.
_CHUNK_BYTES = 1 << 15


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


@lru_cache(maxsize=_LAYOUT_STORE_SIZE)
def _packed_layout(n_rows: int, m: int, widths: "tuple[int, ...]") -> PooledLayout:
    """The pooled layout of ``n_rows`` windows of ``m`` bytes over ``widths``.

    Group ``(width, row)``, width-major. Classify drains repeat a handful
    of shapes (``max_batch`` full windows, mostly), so the layout is
    built at a shape's first drain and kept.
    """
    return PooledLayout(
        np.repeat([m - k + 1 for k in widths], n_rows),
        np.repeat(np.asarray(widths, dtype=np.float64), n_rows),
        8 * max(widths),
    )


def _gram_words(
    data: np.ndarray, widths: "tuple[int, ...]"
) -> "list[list[np.ndarray]]":
    """Per width, the ``uint64`` key words of every gram along ``data``'s last axis.

    Every gram is ``W = ceil(max(widths) / 8)`` big-endian words, most
    significant first, so comparing words in order compares gram bytes
    (a narrower gram's high words are zero). Word ``j`` of a width-``k``
    gram packs its bytes from ``k - 8 (W - j)`` (clipped at 0) to
    ``k - 8 (W - j - 1)``: the 8-byte pack at an offset, or for the top
    word a narrower pack. Packs are built incrementally (width ``j``
    reuses the width ``j - 1`` pack) up to the widest a word needs.
    """
    n_words = -(-max(widths) // PACKED_MAX_K)
    tops = {k - PACKED_MAX_K * ((k - 1) // PACKED_MAX_K) for k in widths}
    if n_words > 1:
        tops.add(PACKED_MAX_K)
    size = data.shape[-1]
    keys = wide = data.astype(np.uint64)
    packs = {1: wide}
    for j in range(2, max(tops) + 1):
        keys = keys[..., : size - j + 1] << 8
        keys |= wide[..., j - 1 :]
        if j in tops:
            packs[j] = keys
    grams = []
    for k in widths:
        n_k = size - k + 1
        words = []
        for low in range(k - PACKED_MAX_K * n_words, k, PACKED_MAX_K):
            if low >= 0:
                words.append(packs[PACKED_MAX_K][..., low : low + n_k])
            elif low > -PACKED_MAX_K:
                words.append(packs[low + PACKED_MAX_K][..., :n_k])
            else:
                words.append(np.zeros(data.shape[:-1] + (n_k,), dtype=np.uint64))
        grams.append(words)
    return grams


def window_entropies(
    windows: list, widths: "tuple[int, ...]"
) -> "tuple[np.ndarray, np.ndarray]":
    """``(entropy vectors, distinct grams)`` of byte windows.

    The one window kernel: every vector the classifier trains on or
    classifies — through :func:`entropy_vectors_batch` or the
    incremental extractor's finalize — is one
    :func:`~repro.core.entropy.pooled_kgram_entropies` call here, one
    sort for every width of every window (group = (width, window)). The
    vectors are ``(n, d)``; the distinct grams, ``(d, n)``, are the
    counts the reduction passes on its way — the non-zero counters of
    the paper's §4.4 table: ``.sum(axis=0)`` is each window's ``alpha``,
    which state accounting charges. ``windows`` are ``bytes`` / ``bytearray``,
    each at least ``max(widths)`` long. How the keys are laid out
    follows from the lengths seen: equal-length windows (the usual
    classify drain: every window full) become one matrix on a cached
    layout; uneven ones are joined and packed across window boundaries,
    a gram kept iff it ends inside the window it starts in.
    """
    n, d = len(windows), len(widths)
    if not n:
        return np.empty((0, d)), np.zeros((d, 0), dtype=np.int64)
    lengths = list(map(len, windows))
    joined = np.frombuffer(b"".join(windows), dtype=np.uint8)
    if len(set(lengths)) == 1:
        grams = _gram_words(joined.reshape(n, lengths[0]), widths)
        keys = tuple(np.concatenate([w.ravel() for w in word]) for word in zip(*grams))
        layout = _packed_layout(n, lengths[0], widths)
    else:
        sizes = np.asarray(lengths)
        #: Bytes from each position to the end of its own window.
        room = np.repeat(np.cumsum(sizes), sizes) - np.arange(joined.size)
        grams = _gram_words(joined, widths)
        ends = [room[: words[0].size] >= k for k, words in zip(widths, grams)]
        keys = tuple(
            np.concatenate([w[end] for w, end in zip(word, ends)])
            for word in zip(*grams)
        )
        layout = PooledLayout(
            np.concatenate([sizes - (k - 1) for k in widths]),
            np.repeat(np.asarray(widths, dtype=np.float64), n),
            8 * max(widths),
        )
    pooled, distinct = pooled_kgram_entropies(keys, layout)
    return np.ascontiguousarray(pooled.reshape(d, n).T), distinct.reshape(d, n)


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


def _chunks(windows: list):
    """``windows`` in order, cut into runs of at most ``_CHUNK_BYTES`` bytes."""
    chunk, size = [], 0
    for window in windows:
        if chunk and size + len(window) > _CHUNK_BYTES:
            yield chunk
            chunk, size = [], 0
        chunk.append(window)
        size += len(window)
    yield chunk


def entropy_vectors_batch(
    buffers, features: FeatureSet = FULL_FEATURES
) -> np.ndarray:
    """Entropy vectors of many buffers at once, as an ``(n, d)`` matrix.

    Row ``i`` equals ``entropy_vector(buffers[i], features).values`` to
    within 1e-12 (summation order differs; everything else is identical).
    The buffers go through :func:`window_entropies` a chunk of at most
    ``_CHUNK_BYTES`` at a time; a classify drain is one chunk.
    """
    windows = [
        b if type(b) is bytes else _as_byte_array(b).tobytes() for b in buffers
    ]
    require_window_lengths(windows, features.max_width)
    widths = tuple(features.widths)
    return np.vstack([window_entropies(chunk, widths)[0] for chunk in _chunks(windows)])


def training_windows(
    files,
    size: "int | None" = None,
    max_header: "int | None" = None,
    rng: "np.random.Generator | None" = None,
) -> list:
    """The window of each training file a vector is computed from, in order.

    ``H_F`` (``size=None``): the whole file. ``H_b``: its first ``size``
    bytes — all of it when shorter, like a flow that ends before its
    buffer fills. ``H_b'`` (``max_header`` given): ``size`` bytes at an
    offset uniform in ``[0, max_header]`` (the paper's threshold ``T``),
    clipped so the window stays inside the file; one ``rng`` draw per
    file, in order. Models training where an unknown application header
    of at most ``T`` bytes precedes the payload.
    """
    if size is None:
        return list(files)
    if max_header is None:
        return [data[:size] for data in files]
    if max_header < 0:
        raise ValueError(f"max_header must be >= 0, got {max_header}")
    windows = []
    for data in files:
        limit = max(0, min(max_header, len(data) - size))
        offset = int(rng.integers(0, limit + 1))
        windows.append(data[offset : offset + size])
    return windows
