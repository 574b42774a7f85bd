"""Pluggable per-flow feature extraction (Section 4.4's "on the fly" claim).

The online story of the paper rests on entropy vectors computed over the
first ``b`` bytes of a flow with ~200 B of per-flow state. A
:class:`FeatureExtractor` owns everything between packet arrival and the
feature matrix handed to the model:

* what per-flow state a buffering flow carries (:meth:`new_state`),
* how an arriving payload chunk updates it (:meth:`fold`), and how many
  flows' pending chunks update at once (:meth:`fold_batch`),
* how a batch of ready flows becomes an ``(n, d)`` entropy-vector matrix
  (:meth:`finalize`), and
* how many bytes that state actually costs (:meth:`state_bytes`).

Two implementations:

* :class:`BatchEntropyExtractor` — the historical path: the state *is*
  the raw byte buffer; finalize runs the batched sliding-window kernels
  (:func:`repro.core.entropy_vector.entropy_vectors_batch`, or the
  classifier's (delta, epsilon) estimator). Retaining the payload is what
  enables header stripping, threshold skipping, and the random-skip
  defense, so this remains the default.
* :class:`IncrementalEntropyExtractor` — the paper's Section-4.4 shape:
  per-flow state is one k-gram counter table per feature width plus the
  trailing ``max_width - 1`` boundary bytes (so grams spanning packet
  boundaries are counted); each arriving packet folds in immediately and
  **no payload is retained**. The counter tables are array-backed:
  widths up to :data:`~repro.core.entropy.PACKED_MAX_K` (``h_1``
  included — its "pack" is the byte itself) keep packed ``uint64``
  gram-key runs as lists of zero-copy views into each fold call's pack
  array; duplicates are resolved by one batch-wide sort at finalize.
  Only widths above ``PACKED_MAX_K`` — alphabets too huge to pack —
  fall back to Python dicts. Folding is therefore a handful of numpy
  calls per packet, :meth:`fold_batch` amortizes even those across
  every packet of a drain tick (one ``b"".join`` assembles the batch
  context, one :func:`~repro.core.entropy.packed_kgram_keys` pass per
  width covers it, and each touched flow just appends its views), and
  :meth:`finalize_batch` computes the entire ``(n, d)`` matrix through
  one pooled grouped-entropy reduction across all packed widths. The
  result is vector-identical to the batch path on the same first-``b``
  bytes regardless of how packets fragment them.

Extractors are selected by name through
:class:`repro.core.config.EngineConfig(extractor=...)`; third-party
fragment features (HEDGE-style byte-frequency tests, compression probes)
can plug in by implementing the same protocol (``fold_batch`` has a
scalar-loop default).
"""

from __future__ import annotations

import numpy as np

from repro.core.accounting import (
    flow_state_bytes,
    incremental_flow_state_bytes,
    incremental_flow_state_bytes_array,
)
from repro.core.entropy import (
    PACKED_MAX_K,
    PooledLayout,
    encode_kgram_stream,
    entropy_from_counts,
    packed_kgram_keys,
    pooled_kgram_entropies,
)
from repro.core.features import FeatureSet

__all__ = [
    "EXTRACTORS",
    "BatchEntropyExtractor",
    "BufferedFlowState",
    "FeatureExtractor",
    "IncrementalEntropyExtractor",
    "IncrementalFlowState",
    "make_extractor",
]

def _payload_array(payload) -> np.ndarray:
    """View a payload chunk as uint8 without copying when possible.

    Accepts ``bytes``/``bytearray``/``memoryview``/``np.ndarray``; a
    contiguous memoryview (the zero-copy pcap ingest path) is viewed in
    place.
    """
    if isinstance(payload, np.ndarray):
        return payload.ravel()
    if isinstance(payload, memoryview) and not payload.contiguous:
        payload = bytes(payload)
    return np.frombuffer(payload, dtype=np.uint8)


_EMPTY_KEYS = np.empty(0, dtype=np.uint64)


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
        fold-batching stage relies on that equivalence); this default
        simply loops, subclasses override with a vectorized pass.
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

    def finalize(self, payloads: list, classifier) -> np.ndarray:
        """Feature matrix of a ready batch.

        ``payloads`` are what the engine queued per flow: frozen windows
        (``bytes``) when ``retains_payload``, otherwise the per-flow
        state objects themselves. ``classifier`` is the engine's
        :class:`~repro.core.classifier.IustitiaClassifier`, supplied so
        payload-retaining extractors can reuse its (possibly estimated)
        vector path.
        """
        raise NotImplementedError

    def state_bytes(self, payload) -> float:
        """Exact per-flow state size for the accounting histogram."""
        raise NotImplementedError


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
    the raw bytes. Finalize delegates to the classifier's batched vector
    path, so estimation-mode classifiers keep working unchanged.
    """

    name = "batch"
    retains_payload = True
    exact_state_accounting = False

    def new_state(self) -> BufferedFlowState:
        return BufferedFlowState()

    def fold(self, state: BufferedFlowState, payload) -> None:
        state.buffer.extend(payload)

    def folded_bytes(self, state: BufferedFlowState) -> int:
        return len(state.buffer)

    def raw_window(self, state: BufferedFlowState) -> bytes:
        return bytes(state.buffer)

    def finalize(self, payloads: "list[bytes]", classifier) -> np.ndarray:
        return classifier.buffer_vectors(payloads)

    def state_bytes(self, payload: bytes) -> float:
        return flow_state_bytes(payload, self.feature_set)


class IncrementalFlowState:
    """Per-flow state of the incremental path: counters, no payload.

    ``keys`` holds, per width up to ``PACKED_MAX_K``, the list of
    packed-``uint64`` gram-key runs the flow has folded so far — each
    run a zero-copy view into the pack array of the fold call that
    produced it, so folding appends a view to a Python list instead of
    scattering into a per-flow buffer (multiplicities are recovered at
    finalize, where the whole batch concatenates in one call anyway);
    ``filled`` tracks the total keys per width. ``wide`` holds one dict
    per width above ``PACKED_MAX_K`` mapping gram bytes -> multiplicity
    (the huge-alphabet fallback); ``carry`` keeps the trailing
    ``max_width - 1`` bytes of the folded stream, so grams spanning a
    packet boundary are counted exactly once; ``folded`` counts window
    bytes absorbed (capped at the extractor's ``buffer_size``).
    ``distinct`` is the number of distinct grams across all widths —
    :attr:`num_counters` — as the last
    :meth:`~IncrementalEntropyExtractor.finalize_batch` counted it on
    its way to the entropies; ``None`` for a state never finalized, or
    folded into since.

    The *logical* footprint — what :meth:`IncrementalEntropyExtractor.
    state_bytes` charges against the paper's ~200 B claim — is the
    distinct-counter count plus the carry, independent of this
    view-list representation.
    """

    __slots__ = ("keys", "filled", "wide", "carry", "folded", "distinct")

    def __init__(self, n_packed: int, n_wide: int) -> None:
        self.keys: "list[list[np.ndarray]]" = [[] for _ in range(n_packed)]
        self.filled: "list[int]" = [0] * n_packed
        # The empty tuple is shared — only all-packed feature sets hit
        # this path, and states are minted once per flow on a hot path.
        self.wide: "tuple[dict, ...]" = (
            tuple({} for _ in range(n_wide)) if n_wide else ()
        )
        self.carry = b""
        self.folded = 0
        self.distinct: "int | None" = None

    @property
    def carry_len(self) -> int:
        """Length of the boundary carry (``max_width - 1`` max)."""
        return len(self.carry)

    @property
    def num_counters(self) -> int:
        """Non-zero k-gram counters currently held (the paper's alpha)."""
        if self.distinct is not None:
            return self.distinct
        total = sum(len(table) for table in self.wide)
        for runs, filled in zip(self.keys, self.filled):
            if filled:
                total += int(np.unique(np.concatenate(runs)).size)
        return total


class IncrementalEntropyExtractor(FeatureExtractor):
    """Fold k-gram counts at packet arrival; finalize from counters only.

    Each :meth:`fold` packs the new chunk's k-grams (prefixed with the
    boundary carry) through the same big-endian convention the batch
    kernels use and appends the key run to the per-width view lists — a
    few numpy calls per packet, no Python-level per-gram work.
    :meth:`fold_batch` goes further: the pending chunks of *many* flows
    are joined into one context (each behind its flow's carry), every
    width is packed in one :func:`~repro.core.entropy.packed_kgram_keys`
    pass over the whole batch, and each flow's in-flow gram run lands in
    its state as a single appended view. The first ``buffer_size``
    window bytes are absorbed; later bytes are ignored (the batch path
    truncates its window identically).

    :meth:`finalize_batch` is Formula (1) over the accumulated counts
    for the whole ready batch at once: one sort over ``(width, flow,
    gram-key)`` recovers every multiplicity and one grouped ``bincount``
    reduction emits every packed feature column
    (:func:`~repro.core.entropy.pooled_kgram_entropies`, the reduction
    the batch extractor's window kernel shares). No payload
    is ever retained, so per-flow state is the counters plus a
    ``max_width - 1`` byte carry, the representation behind the paper's
    ~200 B figure.

    Because no payload survives, this extractor cannot re-window at
    readiness: the engine rejects configurations that need the raw bytes
    back (header stripping, threshold skipping, random skip, or
    (delta, epsilon) estimation).
    """

    name = "incremental"
    retains_payload = False
    exact_state_accounting = True

    def __init__(self, feature_set: FeatureSet, buffer_size: int) -> None:
        super().__init__(feature_set, buffer_size)
        # Width 1 rides the packed path too: its "packed key" is the byte
        # value itself, so h_1 needs no dedicated counter array and folds
        # through the exact same append machinery as the other widths.
        self._packed_widths = tuple(
            k for k in feature_set.widths if k <= PACKED_MAX_K
        )
        self._wide_widths = tuple(
            k for k in feature_set.widths if k > PACKED_MAX_K
        )
        self._carry_bytes = feature_set.max_width - 1
        # Bits the widest packed key occupies: what is left of the word
        # is the pooled reduction's headroom for its group ids.
        self._key_bits = 8 * max(self._packed_widths, default=0)
        self._n_packed = len(self._packed_widths)
        self._n_wide = len(self._wide_widths)

    def new_state(self) -> IncrementalFlowState:
        return IncrementalFlowState(self._n_packed, self._n_wide)

    # -- folding ------------------------------------------------------------

    @staticmethod
    def _fold_wide(table: dict, segment: np.ndarray, k: int) -> None:
        """Dict-fallback fold of one wide-gram (k > 8) context segment."""
        codes = encode_kgram_stream(segment, k)
        uniques, multiplicities = np.unique(codes, return_counts=True)
        for code, count in zip(uniques, multiplicities.tolist()):
            key = code.tobytes()
            table[key] = table.get(key, 0) + count

    def fold(self, state: IncrementalFlowState, payload) -> None:
        remaining = self.buffer_size - state.folded
        if remaining <= 0:
            return
        chunk = _payload_array(payload)[:remaining]
        if chunk.size == 0:
            return
        carry_len = len(state.carry)
        # The k-grams introduced by this chunk are exactly the width-k
        # windows of (last k-1 folded bytes + chunk): each contains at
        # least one new byte, and every new-byte-containing window of
        # the full stream appears once.
        if carry_len:
            ctx = np.empty(carry_len + chunk.size, dtype=np.uint8)
            ctx[:carry_len] = np.frombuffer(state.carry, dtype=np.uint8)
            ctx[carry_len:] = chunk
        else:
            ctx = chunk
        for slot, k in enumerate(self._packed_widths):
            start = carry_len - (k - 1)
            if start < 0:
                start = 0
            if ctx.size - start >= k:
                segment = ctx[start:] if start else ctx
                keys = packed_kgram_keys(segment, k)
                state.keys[slot].append(keys)
                state.filled[slot] += keys.size
        for slot, k in enumerate(self._wide_widths):
            start = max(carry_len - (k - 1), 0)
            if ctx.size - start >= k:
                self._fold_wide(state.wide[slot], ctx[start:], k)
        if self._carry_bytes:
            tail = min(self._carry_bytes, ctx.size)
            state.carry = ctx[ctx.size - tail :].tobytes()
        state.folded += chunk.size
        state.distinct = None

    def fold_batch(self, states: list, payloads: list) -> None:
        """One vectorized fold pass over many flows' pending chunks.

        Each flow's chunks are absorbed in arrival order behind its
        boundary carry, exactly as per-chunk :meth:`fold` calls would.
        The whole batch context is assembled with one ``b"".join`` (the
        chunks are bytes-likes — zero-copy memoryviews on the pcap
        path), every width is packed in one pass over it, and each
        flow's gram run lands in its state as one appended view — the
        Python-level cost is O(flows), not O(packets x widths), and no
        per-flow numpy scatter happens at all.
        """
        live: "list[IncrementalFlowState]" = []
        parts: "list[bytes | bytearray | memoryview]" = []
        carry_lens: "list[int]" = []
        # Per-flow context boundaries in the concatenated batch, as plain
        # Python ints: offsets[i]..offsets[i+1] is flow i's (carry +
        # chunks) segment. Indexing int lists is several times cheaper
        # than indexing numpy scalars in the per-flow loop below.
        offsets: "list[int]" = [0]
        buffer_size = self.buffer_size
        total = 0
        for state, chunks in zip(states, payloads):
            remaining = buffer_size - state.folded
            if remaining <= 0:
                continue
            if isinstance(chunks, (bytes, bytearray, memoryview, np.ndarray)):
                chunks = (chunks,)
            flow_len = 0
            flow_parts = []
            for chunk in chunks:
                if remaining <= 0:
                    break
                if isinstance(chunk, np.ndarray):
                    chunk = np.ascontiguousarray(
                        chunk.ravel(), dtype=np.uint8
                    ).data
                elif isinstance(chunk, memoryview) and not chunk.contiguous:
                    chunk = bytes(chunk)
                size = len(chunk)
                if not size:
                    continue
                if size > remaining:
                    chunk = chunk[:remaining]
                    size = remaining
                flow_parts.append(chunk)
                flow_len += size
                remaining -= size
            if not flow_len:
                continue
            carry = state.carry
            carry_len = len(carry)
            if carry_len:
                parts.append(carry)
            parts.extend(flow_parts)
            live.append(state)
            carry_lens.append(carry_len)
            total += carry_len + flow_len
            offsets.append(total)
        if not live:
            return
        joined = b"".join(parts)
        big = np.frombuffer(joined, dtype=np.uint8)
        # One packing pass per width over the whole batch; keys spanning
        # flow boundaries exist in these arrays but the per-flow views
        # below never cover them.
        packed = [
            (slot, k - 1, packed_kgram_keys(big, k))
            for slot, k in enumerate(self._packed_widths)
            if big.size >= k
        ]
        wide_widths = self._wide_widths
        carry_bytes = self._carry_bytes
        # One fused pass per flow: append every width's key-run view,
        # fold the wide dicts, refresh the carry, advance the byte
        # count. At small fold batches this loop body is the hot path —
        # nothing in it allocates beyond a view and the carry bytes.
        for i, state in enumerate(live):
            start = offsets[i]
            end = offsets[i + 1]
            carry_len = carry_lens[i]
            keys_by_slot = state.keys
            filled_by_slot = state.filled
            for slot, shift, all_keys in packed:
                lo = start + (carry_len - shift if carry_len > shift else 0)
                hi = end - shift
                if hi > lo:
                    keys_by_slot[slot].append(all_keys[lo:hi])
                    filled_by_slot[slot] += hi - lo
            for slot, k in enumerate(wide_widths):
                lo = start + max(carry_len - (k - 1), 0)
                if end - lo >= k:
                    self._fold_wide(state.wide[slot], big[lo:end], k)
            if carry_bytes:
                # bytes-level slice of the joined buffer: cheaper than a
                # uint8 view + tobytes round-trip per flow.
                state.carry = joined[max(end - carry_bytes, start) : end]
            state.folded += end - start - carry_len
            state.distinct = None

    def folded_bytes(self, state: IncrementalFlowState) -> int:
        return state.folded

    def raw_window(self, state) -> bytes:
        raise TypeError(
            "IncrementalEntropyExtractor retains no payload; there is no "
            "raw window to recover"
        )

    # -- finalizing ---------------------------------------------------------

    def _pooled_keys(
        self, states: "list[IncrementalFlowState]"
    ) -> "tuple[np.ndarray, PooledLayout]":
        """``(keys, layout)`` of every packed width of every flow, pooled.

        Group ``slot * n + flow`` stripes all packed widths of the batch
        into one id space, laid out group after group — the input of
        :func:`~repro.core.entropy.pooled_kgram_entropies`, whose single sort
        then covers the whole batch across *all* widths at once. Flows
        fill their windows unevenly, so the layout is per drain.
        """
        n_slots = self._n_packed
        lengths = np.fromiter(
            (
                state.filled[slot]
                for slot in range(n_slots)
                for state in states
            ),
            dtype=np.int64,
            count=n_slots * len(states),
        )
        parts = [
            run
            for slot in range(n_slots)
            for state in states
            for run in state.keys[slot]
        ]
        layout = PooledLayout(
            lengths,
            np.repeat(
                np.asarray(self._packed_widths, dtype=np.float64), len(states)
            ),
            self._key_bits,
        )
        return (np.concatenate(parts) if parts else _EMPTY_KEYS), layout

    def vector(self, state: IncrementalFlowState) -> np.ndarray:
        """Entropy vector of one flow from its accumulated counters."""
        return self.finalize_batch([state])[0]

    def finalize_batch(
        self, states: "list[IncrementalFlowState]"
    ) -> np.ndarray:
        """Entropy-vector matrix of a whole ready batch from counters only."""
        states = list(states)
        min_needed = self.feature_set.max_width
        for state in states:
            if state.folded < min_needed:
                raise ValueError(
                    f"state holds {state.folded} bytes, cannot produce "
                    f"feature h_{min_needed}"
                )
        n = len(states)
        out = np.empty((n, len(self.feature_set.widths)), dtype=np.float64)
        if n == 0:
            return out
        n_slots = self._n_packed
        #: Distinct grams per flow over every width: the reduction counts
        #: them on its way, state accounting reads them back.
        totals = [0] * n
        if n_slots:
            # All packed widths in one pooled reduction: each
            # (width, flow) stripe is normalized by its own width, so one
            # sort + two bincounts produce every packed feature column
            # of the batch.
            h_packed, distinct = pooled_kgram_entropies(
                *self._pooled_keys(states)
            )
            h_packed = h_packed.reshape(n_slots, n)
            totals = distinct.reshape(n_slots, n).sum(axis=0).tolist()
        packed_slot = 0
        wide_slot = 0
        for column, k in enumerate(self.feature_set.widths):
            if k <= PACKED_MAX_K:
                out[:, column] = h_packed[packed_slot]
                packed_slot += 1
            else:
                for i, state in enumerate(states):
                    table = state.wide[wide_slot]
                    totals[i] += len(table)
                    counts = np.fromiter(
                        table.values(), dtype=np.float64, count=len(table)
                    )
                    out[i, column] = entropy_from_counts(counts, k)
                wide_slot += 1
        for state, total in zip(states, totals):
            state.distinct = total
        return out

    def finalize(
        self, payloads: "list[IncrementalFlowState]", classifier
    ) -> np.ndarray:
        return self.finalize_batch(payloads)

    # -- accounting ---------------------------------------------------------

    def counters(self, state: IncrementalFlowState) -> "dict[int, dict]":
        """Per-width ``{gram-key: multiplicity}`` views (testing/debug).

        Width-1 keys are byte values, packed widths (``2..8``) use the
        big-endian integer pack, and wide widths the raw gram bytes —
        directly comparable against a dict-folding reference.
        """
        tables: "dict[int, dict]" = {}
        for slot, k in enumerate(self._packed_widths):
            runs = state.keys[slot]
            uniques, counts = np.unique(
                np.concatenate(runs) if runs else _EMPTY_KEYS,
                return_counts=True,
            )
            tables[k] = dict(zip(uniques.tolist(), counts.tolist()))
        for slot, k in enumerate(self._wide_widths):
            tables[k] = dict(state.wide[slot])
        return tables

    def state_bytes(self, payload: IncrementalFlowState) -> float:
        return incremental_flow_state_bytes(
            payload.num_counters, len(payload.carry)
        )

    def state_bytes_batch(
        self, states: "list[IncrementalFlowState]"
    ) -> np.ndarray:
        """Exact per-flow state bytes of a whole batch.

        The engine charges every classified flow under exact accounting,
        right after :meth:`finalize_batch` — whose pooled reduction left
        each flow's distinct-gram total on its state, so this is a read
        per flow and one arithmetic pass, no sort.
        """
        states = list(states)
        return incremental_flow_state_bytes_array(
            [state.num_counters for state in states],
            [len(state.carry) for state in states],
        )


#: Extractors selectable by name via ``EngineConfig(extractor=...)``.
EXTRACTORS: "dict[str, type[FeatureExtractor]]" = {
    BatchEntropyExtractor.name: BatchEntropyExtractor,
    IncrementalEntropyExtractor.name: IncrementalEntropyExtractor,
}


def make_extractor(
    spec, feature_set: FeatureSet, buffer_size: int
) -> FeatureExtractor:
    """Resolve an ``EngineConfig.extractor`` spec into a bound extractor.

    ``spec`` is a registry name (``"batch"`` / ``"incremental"``), an
    extractor *class*, or any callable factory accepting
    ``(feature_set, buffer_size)`` — the hook for third-party fragment
    features.
    """
    if isinstance(spec, FeatureExtractor):
        raise TypeError(
            "pass an extractor name or factory, not an instance: extractors "
            "are bound to one engine's feature set and buffer size"
        )
    if isinstance(spec, str):
        try:
            factory = EXTRACTORS[spec]
        except KeyError:
            raise ValueError(
                f"unknown extractor {spec!r}; expected one of "
                f"{', '.join(sorted(EXTRACTORS))}"
            ) from None
    elif callable(spec):
        factory = spec
    else:
        raise TypeError(
            f"extractor must be a name or a factory, got {type(spec).__name__}"
        )
    extractor = factory(feature_set, buffer_size)
    for attr in ("new_state", "fold", "folded_bytes", "finalize", "state_bytes"):
        if not callable(getattr(extractor, attr, None)):
            raise TypeError(
                f"{type(extractor).__name__} does not implement the "
                f"FeatureExtractor protocol (missing {attr})"
            )
    return extractor
