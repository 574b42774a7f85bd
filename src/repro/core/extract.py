"""Per-flow feature extraction (Section 4.4's "on the fly" claim).

The online story of the paper rests on entropy vectors computed over the
first ``b`` bytes of a flow with ~200 B of per-flow state. A
:class:`FeatureExtractor` owns everything between packet arrival and the
feature matrix handed to the model:

* what per-flow state a buffering flow carries (:meth:`new_state`),
* how an arriving payload chunk updates it (:meth:`fold`), and how many
  flows' pending chunks update at once (:meth:`fold_batch`),
* how a batch of ready flows becomes an ``(n, d)`` entropy-vector matrix
  (:meth:`finalize`), and
* how many bytes that state is charged (:meth:`state_bytes`).

Two implementations, one window kernel
(:func:`repro.core.entropy_vector.window_entropies`) behind both:

* :class:`BatchEntropyExtractor` — the state is the raw byte buffer, all
  of it; the engine re-windows it at readiness (header stripping,
  threshold skipping, the random-skip defense) and finalize hands the
  windows, cut to ``buffer_size``, to the kernel. The default.
* :class:`IncrementalEntropyExtractor` — the paper's Section-4.4 shape:
  the state is the flow's first ``buffer_size`` bytes and nothing past
  them, so there is nothing to re-window; finalize hands the windows to
  the kernel, and the distinct-gram counts the kernel passes on its way
  are what :meth:`~IncrementalEntropyExtractor.state_bytes` charges —
  the §4.4 counter-table model of the window, the ~200 B figure. The
  vectors are identical to the batch path's on the same first ``b``
  bytes however packets fragment them.

Extractors are selected by registered name through
:class:`repro.core.config.EngineConfig(extractor=...)`.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import (
    flow_state_bytes,
    incremental_flow_state_bytes_array,
)
from repro.core.entropy import _as_bytes_like
from repro.core.entropy_vector import (
    entropy_vectors_batch,
    require_window_lengths,
    window_entropies,
)
from repro.core.features import FeatureSet

__all__ = [
    "EXTRACTORS",
    "BatchEntropyExtractor",
    "BufferedFlowState",
    "FeatureExtractor",
    "IncrementalEntropyExtractor",
    "IncrementalFlowState",
    "extractor_class",
    "make_extractor",
]


class FeatureExtractor:
    """Base/protocol of the per-flow feature pipeline.

    Concrete extractors are constructed once per engine (they are
    flyweights: all per-flow data lives in the state objects they mint)
    and must set three class attributes:

    * ``name`` — registry key, reported in telemetry labels;
    * ``retains_payload`` — True when the state keeps raw bytes the
      engine may re-window at readiness (header stripping / skipping
      need the payload; pure streaming extractors set False and the
      engine classifies straight from state);
    * ``exact_state_accounting`` — True when :meth:`state_bytes` is
      cheap enough to charge every flow (the engine then records the
      state-size histogram exactly instead of sampling).

    A payload chunk is anything :func:`repro.core.entropy._as_bytes_like`
    takes — ``bytes`` / ``bytearray`` / ``memoryview`` (contiguous or
    not) or a ``uint8`` array; anything else is a ``TypeError``, on
    every extractor and both fold entry points.
    """

    name: str = "abstract"
    retains_payload: bool = True
    exact_state_accounting: bool = False

    def __init__(self, feature_set: FeatureSet, buffer_size: int) -> None:
        if buffer_size < feature_set.max_width:
            raise ValueError(
                f"buffer_size {buffer_size} cannot hold the widest feature "
                f"h_{feature_set.max_width}"
            )
        self.feature_set = feature_set
        self.buffer_size = buffer_size

    def new_state(self):
        """Fresh per-flow state for a flow that just started buffering."""
        raise NotImplementedError

    def fold(self, state, payload: "bytes | memoryview") -> None:
        """Absorb one arriving payload chunk into the flow's state."""
        raise NotImplementedError

    def fold_batch(self, states: list, payloads: list) -> None:
        """Absorb many flows' pending chunks in one call.

        ``payloads[i]`` is either a single bytes-like chunk or a list of
        chunks in arrival order for ``states[i]``. Semantically identical
        to calling :meth:`fold` per chunk per flow (the engine's
        fold-batching stage relies on that equivalence).
        """
        for state, chunks in zip(states, payloads):
            if isinstance(chunks, (bytes, bytearray, memoryview, np.ndarray)):
                self.fold(state, chunks)
            else:
                for chunk in chunks:
                    self.fold(state, chunk)

    def folded_bytes(self, state) -> int:
        """Bytes of classification window the state has absorbed so far."""
        raise NotImplementedError

    def raw_window(self, state) -> bytes:
        """The retained raw payload (only when ``retains_payload``)."""
        raise NotImplementedError

    def finalize(self, payloads: list) -> np.ndarray:
        """Feature matrix of a ready batch.

        ``payloads`` are what the engine queued per flow: frozen windows
        (``bytes``) when ``retains_payload``, otherwise the per-flow
        state objects themselves.
        """
        raise NotImplementedError

    def state_bytes(self, payload) -> float:
        """Exact per-flow state size for the accounting histogram."""
        raise NotImplementedError

    def state_bytes_batch(self, payloads: list) -> "list[float] | np.ndarray":
        """:meth:`state_bytes` of every flow the engine charges in a drain."""
        return [self.state_bytes(payload) for payload in payloads]


class BufferedFlowState:
    """Per-flow state of the batch path: the raw payload buffer."""

    __slots__ = ("buffer",)

    def __init__(self) -> None:
        self.buffer = bytearray()


class BatchEntropyExtractor(FeatureExtractor):
    """The buffered baseline: accumulate payload, extract at drain time.

    The state retains every payload byte (up to the engine's buffering
    target), which is what allows re-windowing at readiness — header
    stripping, threshold skipping, and the random-skip defense all need
    the raw bytes. Finalize runs the window kernel on each window's
    first ``buffer_size`` bytes — the engine binds that to the smaller of
    its own and the classifier's window, so the vectors are the ones
    ``classifier.buffer_vectors`` computes.
    """

    name = "batch"
    retains_payload = True
    exact_state_accounting = False

    def new_state(self) -> BufferedFlowState:
        return BufferedFlowState()

    def fold(self, state: BufferedFlowState, payload) -> None:
        # What a feed delivers per packet — ``bytes`` in memory, a
        # contiguous ``memoryview`` off a capture — passes the rule without
        # a frame spent on it (test_packet_path_guard counts them; the
        # call read -1.5% ``packets_per_s`` on ``gateway-pcap``).
        kind = type(payload)
        if kind is not bytes and not (kind is memoryview and payload.contiguous):
            payload = _as_bytes_like(payload)
        state.buffer.extend(payload)

    def folded_bytes(self, state: BufferedFlowState) -> int:
        return len(state.buffer)

    def raw_window(self, state: BufferedFlowState) -> bytes:
        return bytes(state.buffer)

    def finalize(self, payloads: "list[bytes]") -> np.ndarray:
        size = self.buffer_size
        windows = [w if len(w) <= size else w[:size] for w in payloads]
        return entropy_vectors_batch(windows, self.feature_set)

    def state_bytes(self, payload: bytes) -> float:
        return flow_state_bytes(payload, self.feature_set)


class IncrementalFlowState:
    """Per-flow state of the incremental path: the capped window.

    ``window`` holds the flow's first ``buffer_size`` payload bytes, in
    arrival order, and never more. ``distinct`` is the number of
    distinct k-grams in it across all feature widths — the non-zero
    counters of the paper's §4.4 table — as the last
    :meth:`~IncrementalEntropyExtractor.finalize_batch` counted it on
    its way to the entropies; ``None`` for a state never finalized, or
    folded into since.
    """

    __slots__ = ("window", "distinct")

    def __init__(self) -> None:
        self.window = bytearray()
        self.distinct: "int | None" = None


class IncrementalEntropyExtractor(FeatureExtractor):
    """Keep a flow's first ``buffer_size`` bytes; extract once, at the drain.

    :meth:`fold` appends to the window until it is full and ignores
    everything after (the batch path truncates its window identically),
    so the state is bounded by ``buffer_size`` whatever the flow sends.
    :meth:`finalize_batch` is Formula (1) over the whole ready batch at
    once, through the window kernel the batch extractor shares
    (:func:`~repro.core.entropy_vector.window_entropies`): one pooled
    sort, which also counts each flow's distinct grams — the counter
    tables of the paper's Section 4.4, whose size (plus a
    ``max_width - 1`` byte boundary carry) is what :meth:`state_bytes`
    charges, the model behind the ~200 B figure.

    Nothing past the window survives, so this extractor cannot re-window
    at readiness: the engine rejects configurations that need the raw
    bytes back (header stripping, threshold skipping, random skip).
    """

    name = "incremental"
    retains_payload = False
    exact_state_accounting = True

    def new_state(self) -> IncrementalFlowState:
        return IncrementalFlowState()

    # -- folding ------------------------------------------------------------

    def _absorb(self, state: IncrementalFlowState, payload) -> None:
        """Append ``payload`` to the window, up to ``buffer_size`` bytes."""
        chunk = _as_bytes_like(payload)
        room = self.buffer_size - len(state.window)
        if room > 0 and len(chunk):
            state.window.extend(chunk[:room])
            state.distinct = None

    def fold(self, state: IncrementalFlowState, payload) -> None:
        self._absorb(state, payload)

    def fold_batch(self, states: list, payloads: list) -> None:
        # Not through ``self.fold``: whoever wraps both entry points to
        # count chunks (the bench tracer does) would count these twice.
        absorb = self._absorb
        for state, chunks in zip(states, payloads):
            if isinstance(chunks, (bytes, bytearray, memoryview, np.ndarray)):
                absorb(state, chunks)
            else:
                for chunk in chunks:
                    absorb(state, chunk)

    def folded_bytes(self, state: IncrementalFlowState) -> int:
        return len(state.window)

    def raw_window(self, state) -> bytes:
        raise TypeError(
            "IncrementalEntropyExtractor retains no payload past the capped "
            "window; there is no raw window to re-cut"
        )

    # -- finalizing ---------------------------------------------------------

    def vector(self, state: IncrementalFlowState) -> np.ndarray:
        """Entropy vector of one flow's window."""
        return self.finalize_batch([state])[0]

    def finalize_batch(
        self, states: "list[IncrementalFlowState]"
    ) -> np.ndarray:
        """Entropy-vector matrix of a whole ready batch.

        Leaves each flow's distinct-gram total on ``state.distinct``.
        """
        states = list(states)
        windows = [state.window for state in states]
        require_window_lengths(windows, self.feature_set.max_width)
        out, distinct = window_entropies(windows, tuple(self.feature_set.widths))
        totals = distinct.sum(axis=0).tolist()
        for state, total in zip(states, totals):
            state.distinct = total
        return out

    def finalize(self, payloads: "list[IncrementalFlowState]") -> np.ndarray:
        return self.finalize_batch(payloads)

    # -- accounting ---------------------------------------------------------

    def state_bytes(self, payload: IncrementalFlowState) -> float:
        return float(self.state_bytes_batch([payload])[0])

    def state_bytes_batch(
        self, states: "list[IncrementalFlowState]"
    ) -> np.ndarray:
        """Modelled per-flow state bytes of a whole batch.

        ``2 B`` per distinct gram, the ``max_width - 1`` bytes (or the
        whole window, when shorter) that stitch grams across packet
        boundaries, and the CDB record: the §4.4 counter-table model of
        the window, not the bytes the process holds (the window itself,
        at most ``buffer_size``). The engine charges right after
        :meth:`finalize_batch`, which left the totals on the states; a
        state that lacks one goes through the kernel first.
        """
        states = list(states)
        stale = [state for state in states if state.distinct is None]
        if stale:
            self.finalize_batch(stale)
        carry = self.feature_set.max_width - 1
        return incremental_flow_state_bytes_array(
            [state.distinct for state in states],
            [min(carry, len(state.window)) for state in states],
        )


#: Extractors selectable by name via ``EngineConfig(extractor=...)``.
EXTRACTORS: "dict[str, type[FeatureExtractor]]" = {
    BatchEntropyExtractor.name: BatchEntropyExtractor,
    IncrementalEntropyExtractor.name: IncrementalEntropyExtractor,
}


def extractor_class(name: str) -> "type[FeatureExtractor]":
    """The class registered as ``name``: what ``EngineConfig.extractor`` may be."""
    if not isinstance(name, str):
        raise TypeError(
            "extractor must be a registered name "
            f"({', '.join(sorted(EXTRACTORS))}), got {type(name).__name__}"
        )
    try:
        return EXTRACTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown extractor {name!r}; expected one of "
            f"{', '.join(sorted(EXTRACTORS))}"
        ) from None


def make_extractor(
    name: str, feature_set: FeatureSet, buffer_size: int
) -> FeatureExtractor:
    """The extractor registered as ``name``, bound to one engine's window."""
    return extractor_class(name)(feature_set, buffer_size)
