"""Normalized k-gram entropy (Formula 1 of the paper).

A file (or flow buffer) ``F`` of ``m`` bytes is treated as a sequence of
``m - k + 1`` overlapping elements, each element being ``k`` consecutive
bytes, over the element set ``f_k`` of all ``|f_k| = 2^(8k)`` possible
k-byte strings. The *normalized* entropy uses logarithm base ``|f_k|`` so
that values live in ``[0, 1]`` ("element/symbol" units):

    h_k = log(m - k + 1) - (1 / (m - k + 1)) * sum_i m_ik log m_ik
          ------------------------------------------------------   (base |f_k|)

where ``m_ik`` is the count of the i-th element. We compute in natural logs
and divide by ``ln(2^(8k)) = 8k ln 2``.

Counting is vectorized with numpy: k-grams are materialized as a sliding
window over the byte array and counted through a void-dtype ``np.unique``,
which is orders of magnitude faster than a Python-level Counter for the
corpus-scale sweeps in the benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PACKED_MAX_K",
    "byte_entropy",
    "encode_kgram_stream",
    "entropy_from_counts",
    "kgram_count_values",
    "kgram_counts",
    "kgram_entropy",
    "max_normalized_entropy",
    "PooledLayout",
    "packed_kgram_keys",
    "pooled_kgram_entropies",
    "pooled_kgram_runs",
]

_LN2 = math.log(2.0)

#: Widest k-gram whose big-endian polynomial pack fits a uint64 key.
PACKED_MAX_K = 8


def _as_bytes_like(
    data: "bytes | bytearray | memoryview | np.ndarray",
) -> "bytes | bytearray | memoryview | np.ndarray":
    """``data`` as one C-contiguous buffer of bytes, uncopied when it is one.

    The payload rule of every entry point that takes bytes: ``bytes`` /
    ``bytearray``, any other buffer (a ``memoryview``, contiguous or
    not, included) and ``uint8`` arrays pass; anything else — an array
    of another dtype, a ``str``, a list of ints — is a ``TypeError``.
    """
    if isinstance(data, (bytes, bytearray)):
        return data
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8:
            raise TypeError(f"numpy input must be uint8, got {data.dtype}")
        return data.ravel()
    view = data if isinstance(data, memoryview) else memoryview(data)
    return view if view.contiguous else bytes(view)


def _as_byte_array(data: "bytes | bytearray | memoryview | np.ndarray") -> np.ndarray:
    """View ``data`` as a 1-D uint8 array without copying when possible."""
    data = _as_bytes_like(data)
    if isinstance(data, np.ndarray):
        return data
    return np.frombuffer(data, dtype=np.uint8)


def kgram_count_values(
    data: "bytes | bytearray | np.ndarray", k: int
) -> np.ndarray:
    """Counts of each *distinct observed* k-gram in ``data`` (values only).

    This is the hot path for entropy: the identities of the k-grams are not
    needed, only their multiplicities ``m_ik``. Raises ``ValueError`` when
    ``data`` holds fewer than ``k`` bytes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = _as_byte_array(data)
    if arr.size < k:
        raise ValueError(f"need at least k={k} bytes, got {arr.size}")
    if k == 1:
        counts = np.bincount(arr, minlength=256)
        return counts[counts > 0]
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    voids = np.ascontiguousarray(windows).view(np.dtype((np.void, k))).ravel()
    _, counts = np.unique(voids, return_counts=True)
    return counts


def packed_kgram_keys(arr: np.ndarray, k: int) -> np.ndarray:
    """Big-endian polynomial pack of every k-gram into one ``uint64`` key.

    ``arr`` may be 1-D (one buffer) or 2-D (a batch of equal-length
    buffers, one per row); the pack runs over the last axis. Key order is
    the lexicographic order of the gram bytes, so sorted keys enumerate
    grams exactly as the void-view ``np.unique`` does. Requires
    ``k <= PACKED_MAX_K`` (8 bytes fill the 64-bit key).
    """
    if not 1 <= k <= PACKED_MAX_K:
        raise ValueError(f"k must be in [1, {PACKED_MAX_K}], got {k}")
    n = arr.shape[-1] - k + 1
    wide = arr.astype(np.uint64)
    keys = wide[..., :n].copy()
    for j in range(1, k):
        keys <<= np.uint64(8)
        keys |= wide[..., j : j + n]
    return keys


def encode_kgram_stream(
    data: "bytes | bytearray | np.ndarray", k: int
) -> np.ndarray:
    """Encode the k-gram stream of ``data`` as an array of comparable codes.

    What the streaming estimators (:mod:`repro.streaming.entropy_stream`)
    consume: for ``k <= PACKED_MAX_K`` each k-gram packs big-endian into
    a ``uint64`` (:func:`packed_kgram_keys`, the keys the pooled kernel
    sorts); wider grams fall back to a void-dtype view. Either encoding
    supports elementwise ``==`` against a scalar, which is all suffix
    counting needs.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = _as_byte_array(data)
    if arr.size < k:
        raise ValueError(f"need at least k={k} bytes, got {arr.size}")
    if k <= PACKED_MAX_K:
        return packed_kgram_keys(arr, k)
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    return np.ascontiguousarray(windows).view(np.dtype((np.void, k))).ravel()


def _run_bounds(words: "tuple[np.ndarray, ...]") -> np.ndarray:
    """Where the runs of a sorted sequence of multi-word keys begin, plus its end.

    ``words`` are the keys' words, sorted together; a run ends where any
    word changes. ``bounds[i]`` is the position of run ``i``'s first
    element and ``bounds[-1]`` the sequence's size, so
    ``bounds[1:] - bounds[:-1]`` are the run lengths.
    """
    n = words[0].size
    flags = np.empty(n + 1, dtype=bool)
    flags[0] = flags[n] = True
    inner = flags[1:n]
    np.not_equal(words[0][1:], words[0][:-1], out=inner)
    for word in words[1:]:
        inner |= word[1:] != word[:-1]
    return np.flatnonzero(flags)


def kgram_counts(
    data: "bytes | bytearray | np.ndarray", k: int
) -> tuple[list[bytes], np.ndarray]:
    """Distinct k-grams of ``data`` with their counts.

    Returns ``(grams, counts)`` where ``grams`` is a list of ``bytes`` of
    length ``k`` (sorted lexicographically) and ``counts`` the matching
    multiplicities. Prefer :func:`kgram_count_values` when the gram
    identities are not needed.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = _as_byte_array(data)
    if arr.size < k:
        raise ValueError(f"need at least k={k} bytes, got {arr.size}")
    if k == 1:
        counts = np.bincount(arr, minlength=256)
        present = np.flatnonzero(counts)
        return [bytes([value]) for value in present.tolist()], counts[present]
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    voids = np.ascontiguousarray(windows).view(np.dtype((np.void, k))).ravel()
    uniques, counts = np.unique(voids, return_counts=True)
    return [u.tobytes() for u in uniques], counts


def entropy_from_counts(counts: "np.ndarray | list[int]", k: int) -> float:
    """Normalized entropy ``h_k`` from k-gram multiplicities.

    ``counts`` are the non-zero ``m_ik`` values; their sum is the number of
    elements ``N = m - k + 1``. Implements Formula (1) with logarithm base
    ``2^(8k)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    arr = np.asarray(counts, dtype=np.float64).ravel()
    arr = arr[arr > 0]
    if arr.size == 0:
        raise ValueError("counts must contain at least one positive value")
    if arr.size == 1:
        # One distinct element: exactly zero (avoids ln(N) - ln(N) residue).
        return 0.0
    n_elements = arr.sum()
    # S_k = sum_i m_ik log m_ik  (natural log)
    s_k = float((arr * np.log(arr)).sum())
    entropy_nats = math.log(n_elements) - s_k / n_elements
    h_k = entropy_nats / (8.0 * k * _LN2)
    # Round-off can push an exactly-uniform sequence a hair past the ideal.
    return min(max(h_k, 0.0), 1.0)


class PooledLayout:
    """What a pooled reduction knows before it sees a key: its shape.

    ``lengths[g]`` keys belong to group ``g`` (the keys arrive group
    after group), group ``g`` is normalized by feature width
    ``widths[g]``, and ``key_bits`` are the bits the widest key occupies
    (``8 * max k``, past 64 for multi-word keys). Everything
    :func:`pooled_kgram_runs` and :func:`pooled_kgram_entropies` need
    that depends on those alone is computed here, once: the group id of
    every key position — also pre-shifted above the key bits when a
    one-word key leaves room for it, so one ``uint64`` sort groups by
    ``(group, key)`` — and per group the element count, its logarithm
    and the ``8 k ln 2`` denominator, plus a ``c log c`` table over
    every possible multiplicity. A caller whose drains repeat a shape
    builds its layout once and reuses it
    (:mod:`repro.core.entropy_vector` does); the arrays are never
    written after construction and never handed out.
    """

    __slots__ = (
        "n_groups", "groups", "shifted",
        "n_elements", "log_n", "denominators", "c_log_c",
    )

    def __init__(
        self, lengths: np.ndarray, widths: np.ndarray, key_bits: int
    ) -> None:
        n_groups = self.n_groups = lengths.size
        #: Group of every key position — and, keys of one group being
        #: contiguous before and after the sort, of every sorted position.
        #: The narrowest dtype that holds them: a stable sort on 8 or 16
        #: bits is a radix sort.
        self.groups = np.repeat(
            np.arange(n_groups, dtype=np.min_scalar_type(max(n_groups - 1, 0))),
            lengths,
        )
        if key_bits < 64 and n_groups <= (1 << (64 - key_bits)):
            self.shifted = self.groups.astype(np.uint64) << np.uint64(key_bits)
        else:
            self.shifted = None
        self.n_elements = np.maximum(lengths, 1).astype(np.float64)
        self.log_n = np.log(self.n_elements)
        self.denominators = 8.0 * _LN2 * widths
        multiplicity = np.arange(int(lengths.max(initial=0)) + 1, dtype=np.float64)
        multiplicity[0] = 1.0
        self.c_log_c = multiplicity * np.log(multiplicity)


def pooled_kgram_runs(
    keys: "tuple[np.ndarray, ...]", layout: PooledLayout
) -> "tuple[np.ndarray, np.ndarray]":
    """``(group-of-run, multiplicity)`` of gram keys pooled by group.

    ``keys`` are the words of every group's gram keys, most significant
    first: ``ceil(k / 8)`` ``uint64`` words hold a width-``k`` gram
    big-endian, so word order is byte order. Each word is the
    concatenation over groups, group after group as ``layout``
    describes. One sort over ``(group, key)`` recovers the multiplicity
    runs of every group at once — a group being whatever the caller
    stripes together, typically one feature width of one flow (keys of
    different widths may collide numerically; the group id keeps their
    runs apart). Runs come back in ``(group, key)`` order. A one-word
    key with bit headroom carries the group id in its high bits and
    sorts in place — an order of magnitude cheaper than the
    group-primary lexsort that ``k >= 8`` keys need.
    """
    if layout.shifted is not None:
        ordered = keys[0] | layout.shifted
        ordered.sort()
        words = (ordered,)
    else:
        # ``np.lexsort((*keys[::-1], groups))``'s order, one stable pass
        # per key from the least significant — bar the first: keys tied
        # on every word are one run, whatever their order.
        order = np.argsort(keys[-1])
        for key in (*keys[-2::-1], layout.groups):
            order = order.take(np.argsort(key.take(order), kind="stable"))
        words = (layout.groups, *(word.take(order) for word in keys))
    bounds = _run_bounds(words)
    starts = bounds[:-1]
    return layout.groups.take(starts), bounds[1:] - starts


def pooled_kgram_entropies(
    keys: "tuple[np.ndarray, ...]", layout: PooledLayout
) -> "tuple[np.ndarray, np.ndarray]":
    """``(h_k, distinct grams)`` per group of pooled gram keys: Formula (1), one sort.

    The one entropy reduction behind the window kernel
    (:func:`repro.core.entropy_vector.window_entropies`), and so behind
    every vector the classifier trains on or classifies — the batched
    counterpart of :func:`entropy_from_counts`, any feature width.
    :func:`pooled_kgram_runs` turns the pooled keys into per-group
    multiplicities ``m_ik``; two ``np.bincount`` reductions
    (``sum m log m``, distinct grams) then emit every group's entropy,
    group ``g`` normalized by its own width — which is what lets a
    caller pool *every* feature width of a batch into one call. Arguments as for :func:`pooled_kgram_runs`. A group
    with a single distinct gram is exactly 0.0, and so is a group with
    no keys at all — callers validate that every flow holds at least
    ``k`` bytes. The distinct-gram count per group (the non-zero
    counters a flow's state holds) is returned beside the entropies, so
    state accounting needs no sort of its own.
    """
    n_groups = layout.n_groups
    run_groups, run_counts = pooled_kgram_runs(keys, layout)
    s_k = np.bincount(
        run_groups, weights=layout.c_log_c.take(run_counts), minlength=n_groups
    )
    distinct = np.bincount(run_groups, minlength=n_groups)
    h = (layout.log_n - s_k / layout.n_elements) / layout.denominators
    # One distinct element is exactly zero (avoids ln(N) - ln(N) residue);
    # empty groups are zero too.
    h[distinct <= 1] = 0.0
    return np.clip(h, 0.0, 1.0, out=h), distinct


def kgram_entropy(data: "bytes | bytearray | np.ndarray", k: int) -> float:
    """Normalized entropy ``h_k`` of ``data`` (Formula 1).

    ``h_k`` is 0 when every k-gram is identical and approaches
    ``log(m - k + 1) / (8k log 2)`` when all k-grams are distinct; the
    absolute maximum of 1 requires every element of ``f_k`` to appear
    equally often, which a short buffer cannot achieve (the paper's features
    are used comparatively, so this is by design).
    """
    return entropy_from_counts(kgram_count_values(data, k), k)


def byte_entropy(data: "bytes | bytearray | np.ndarray") -> float:
    """Normalized single-byte entropy, ``h_1``."""
    return kgram_entropy(data, 1)


def max_normalized_entropy(m: int, k: int) -> float:
    """Upper bound on ``h_k`` for a buffer of ``m`` bytes.

    All ``N = m - k + 1`` k-grams distinct gives
    ``h_k = log(N) / (8k log 2)``, capped at 1. Useful for tests and for
    reasoning about feature scales at small buffer sizes (Section 4.2).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < k:
        raise ValueError(f"need m >= k, got m={m}, k={k}")
    n_elements = m - k + 1
    if n_elements == 1:
        return 0.0
    return min(math.log(n_elements) / (8.0 * k * _LN2), 1.0)
