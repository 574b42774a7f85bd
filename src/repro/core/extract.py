"""Per-flow feature extraction (Section 4.4's "on the fly" claim).

The online story of the paper rests on entropy vectors computed over the
first ``b`` bytes of a flow with ~200 B of per-flow state. The engine
buffers a flow's payload until the flow is ready, on either extractor
(one ``bytearray`` per pending flow); a :class:`FeatureExtractor` owns
what happens next:

* how a batch of ready flows becomes an ``(n, d)`` entropy-vector
  matrix, and how many bytes each flow's state is charged — both from
  one window-kernel call per drain (:meth:`~FeatureExtractor.finalize`);
* whether the engine may re-window the buffered payload at readiness
  (``retains_payload``).

Two implementations, one window kernel
(:func:`repro.core.entropy_vector.window_entropies`) behind both:

* :class:`BatchEntropyExtractor` — the engine re-windows the buffer at
  readiness (header stripping, threshold skipping, the random-skip
  defense) and finalize hands the windows, cut to ``buffer_size``, to
  the kernel; a flow is charged its window plus its counters. The
  default.
* :class:`IncrementalEntropyExtractor` — the paper's Section-4.4 shape:
  the state is the flow's first ``buffer_size`` bytes and nothing past
  them (:meth:`~IncrementalEntropyExtractor.fold_batch` fills it at the
  drain), so there is nothing to re-window; a flow is charged its
  counters and a boundary carry — the §4.4 counter-table model of the
  window, the ~200 B figure. The vectors are identical to the batch
  path's on the same first ``b`` bytes however packets fragment them.

Extractors are selected by registered name through
:class:`repro.core.config.EngineConfig(extractor=...)`.
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import window_state_bytes
from repro.core.entropy import _as_bytes_like
from repro.core.entropy_vector import require_window_lengths, window_entropies
from repro.core.features import FeatureSet

__all__ = [
    "EXTRACTORS",
    "BatchEntropyExtractor",
    "FeatureExtractor",
    "IncrementalEntropyExtractor",
    "IncrementalFlowState",
    "extractor_class",
    "make_extractor",
]


class FeatureExtractor:
    """Base/protocol of the per-flow feature pipeline.

    Concrete extractors are constructed once per engine (they are
    flyweights: all per-flow data lives on the engine's
    :class:`~repro.engine.types.PendingFlow`) and set two class
    attributes:

    * ``name`` — registry key, reported in telemetry labels;
    * ``retains_payload`` — True when the engine re-windows a flow's
      buffered payload at readiness (header stripping / skipping need
      the raw bytes); a streaming extractor sets False, and the engine
      classifies from a state the extractor mints.

    They also say which byte windows the payloads the engine queued are
    (:meth:`windows`) and how many of those bytes a flow's state is
    charged for holding (:attr:`held_bytes`); :meth:`finalize` does the
    rest.
    """

    name: str = "abstract"
    retains_payload: bool = True

    def __init__(self, feature_set: FeatureSet, buffer_size: int) -> None:
        if buffer_size < feature_set.max_width:
            raise ValueError(
                f"buffer_size {buffer_size} cannot hold the widest feature "
                f"h_{feature_set.max_width}"
            )
        self.feature_set = feature_set
        self.buffer_size = buffer_size
        self._widths = tuple(feature_set.widths)

    @property
    def held_bytes(self) -> int:
        """Most payload bytes a flow's state is charged for holding."""
        raise NotImplementedError

    def windows(self, payloads: list) -> list:
        """The byte windows :meth:`finalize` hands the kernel."""
        raise NotImplementedError

    def finalize(self, payloads: list) -> "tuple[np.ndarray, np.ndarray]":
        """Feature matrix and per-flow state bytes of a ready batch.

        ``payloads`` are what the engine queued per flow: frozen windows
        (``bytes``) when ``retains_payload``, otherwise the per-flow
        state objects. Both results come from one window-kernel call:
        the ``(n, d)`` entropy vectors and, from the distinct-gram
        counts the kernel passes on its way, each flow's state bytes —
        2 B per distinct gram, the payload it holds (up to
        :attr:`held_bytes`) and the CDB record
        (:func:`~repro.core.accounting.window_state_bytes`).
        """
        windows = self.windows(payloads)
        require_window_lengths(windows, self.feature_set.max_width)
        vectors, distinct = window_entropies(windows, self._widths)
        held = np.fromiter(map(len, windows), np.int64, len(windows))
        return vectors, window_state_bytes(
            distinct.sum(axis=0), np.minimum(held, self.held_bytes)
        )

    def state_bytes(self, payload) -> float:
        """State bytes of one queued payload, as :meth:`finalize` charges it."""
        return float(self.finalize([payload])[1][0])


class BatchEntropyExtractor(FeatureExtractor):
    """The buffered baseline: the engine buffers payload, extracts at the drain.

    The engine keeps every payload byte of a buffering flow (up to its
    buffering target), which is what allows re-windowing at readiness —
    header stripping, threshold skipping, and the random-skip defense
    all need the raw bytes. Finalize runs the window kernel on each
    window's first ``buffer_size`` bytes — the engine binds that to the
    smaller of its own and the classifier's window, so the vectors are
    the ones ``classifier.buffer_vectors`` computes — and charges each
    flow the window itself on top of its counters (the exact-calculation
    space of :func:`~repro.core.accounting.flow_state_bytes`).
    """

    name = "batch"
    retains_payload = True

    @property
    def held_bytes(self) -> int:
        """The whole window: at most ``buffer_size`` bytes."""
        return self.buffer_size

    def windows(self, payloads: "list[bytes]") -> "list[bytes]":
        size = self.buffer_size
        return [w if len(w) <= size else w[:size] for w in payloads]


class IncrementalFlowState:
    """Per-flow state of the incremental path: the capped window.

    ``window`` holds the flow's first ``buffer_size`` payload bytes, in
    arrival order, and never more.
    """

    __slots__ = ("window",)

    def __init__(self) -> None:
        self.window = bytearray()


class IncrementalEntropyExtractor(FeatureExtractor):
    """Keep a flow's first ``buffer_size`` bytes; extract once, at the drain.

    :meth:`fold` appends to the window until it is full and ignores
    everything after (the batch path truncates its window identically),
    so the state is bounded by ``buffer_size`` whatever the flow sends.
    :meth:`finalize` is Formula (1) over the whole ready batch at once,
    through the window kernel the batch extractor shares
    (:func:`~repro.core.entropy_vector.window_entropies`): one pooled
    sort, which also counts each flow's distinct grams — the counter
    tables of the paper's Section 4.4, whose size (plus a
    ``max_width - 1`` byte boundary carry) is what each flow is charged,
    the model behind the ~200 B figure.

    Nothing past the window survives, so this extractor cannot re-window
    at readiness: the engine rejects configurations that need the raw
    bytes back (header stripping, threshold skipping, random skip).
    """

    name = "incremental"
    retains_payload = False

    def new_state(self) -> IncrementalFlowState:
        """An empty state, for a flow the engine found ready."""
        return IncrementalFlowState()

    @property
    def held_bytes(self) -> int:
        """The ``max_width - 1`` byte boundary carry only.

        The bytes that stitch grams across packet boundaries (or the
        whole window, when shorter): with the counters, the §4.4
        counter-table model of the window — not the bytes the process
        holds (the window itself, at most ``buffer_size``).
        """
        return self.feature_set.max_width - 1

    def windows(self, payloads: "list[IncrementalFlowState]") -> "list[bytearray]":
        return [state.window for state in payloads]

    # -- folding ------------------------------------------------------------

    def _absorb(self, state: IncrementalFlowState, payload) -> None:
        """Append ``payload`` to the window, up to ``buffer_size`` bytes."""
        chunk = _as_bytes_like(payload)
        room = self.buffer_size - len(state.window)
        if room > 0 and len(chunk):
            state.window.extend(chunk[:room])

    def fold(self, state: IncrementalFlowState, payload) -> None:
        """Absorb one payload chunk into the flow's state.

        A chunk is anything :func:`repro.core.entropy._as_bytes_like`
        takes — ``bytes`` / ``bytearray`` / ``memoryview`` (contiguous or
        not) or a ``uint8`` array; anything else is a ``TypeError``.
        """
        self._absorb(state, payload)

    def fold_batch(self, states: list, payloads: list) -> None:
        """Absorb many flows' chunks in one call.

        ``payloads[i]`` is either a single chunk or a list of chunks in
        arrival order for ``states[i]``: the same as :meth:`fold` per
        chunk per flow.
        """
        # Not through ``self.fold``: whoever wraps both entry points to
        # count chunks (the bench tracer does) would count these twice.
        absorb = self._absorb
        for state, chunks in zip(states, payloads):
            if isinstance(chunks, (bytes, bytearray, memoryview, np.ndarray)):
                absorb(state, chunks)
            else:
                for chunk in chunks:
                    absorb(state, chunk)


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
