"""Configuration of the online Iustitia pipeline and staged engine.

Two config objects, one nesting the other:

* :class:`IustitiaConfig` — the paper's pipeline knobs (buffer size
  ``b``, feature set, header handling, CDB purging, the Section-4.6
  defenses);
* :class:`EngineConfig` — the staged engine's operational knobs
  (micro-batch size, telemetry) plus the pipeline knobs users
  actually sweep (``buffer_size``, ``buffer_timeout``),
  consolidated from what used to be scattered keyword arguments across
  ``StagedEngine`` and the classifier.

``EngineConfig`` resolves to a fully-validated ``IustitiaConfig`` on
construction (its ``pipeline`` field), so one frozen object carries
everything an engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.features import PHI_SVM_PRIME, FeatureSet

__all__ = ["EngineConfig", "IustitiaConfig"]


@dataclass(frozen=True)
class IustitiaConfig:
    """Per-flow classification knobs (``EngineConfig.pipeline``).

    Defaults follow the paper's headline configuration: a 32-byte buffer
    classified with exact entropy vectors over the memory-preferred SVM
    feature set, known application headers stripped, unknown headers
    handled by threshold skipping when ``header_threshold > 0``.
    """

    #: Payload bytes buffered per new flow before classification (``b``).
    buffer_size: int = 32
    #: Entropy features extracted from the buffer.
    feature_set: FeatureSet = PHI_SVM_PRIME
    #: Maximum unknown-application-header bytes to skip (``T``; 0 = none).
    header_threshold: int = 0
    #: Strip known HTTP/SMTP/POP3/IMAP headers before classification.
    strip_known_headers: bool = True
    #: CDB purging coefficient ``n`` (paper's optimum: 4).
    purge_coefficient: float = 4.0
    #: Inserts between CDB inactivity sweeps (paper: 5000).
    purge_trigger_flows: int = 5000
    #: Give up and classify a partial buffer after this inactivity (seconds).
    buffer_timeout: float = 10.0
    #: Section 4.6 defense 1: skip a per-flow uniform-random number of
    #: bytes in ``[0, random_skip_max]`` before classification, so an
    #: attacker cannot know which bytes the classifier will examine
    #: (0 disables).
    random_skip_max: int = 0
    #: Section 4.6 defense 2: a CDB hit on a record older than this many
    #: seconds deletes the record, forcing reclassification from the
    #: flow's current bytes (0 disables).
    reclassify_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.buffer_size < self.feature_set.max_width:
            raise ValueError(
                f"buffer_size {self.buffer_size} cannot hold the widest "
                f"feature h_{self.feature_set.max_width}"
            )
        if self.header_threshold < 0:
            raise ValueError(
                f"header_threshold must be >= 0, got {self.header_threshold}"
            )
        if self.buffer_timeout <= 0:
            raise ValueError(
                f"buffer_timeout must be positive, got {self.buffer_timeout}"
            )
        if self.random_skip_max < 0:
            raise ValueError(
                f"random_skip_max must be >= 0, got {self.random_skip_max}"
            )
        if self.reclassify_interval < 0:
            raise ValueError(
                f"reclassify_interval must be >= 0, got {self.reclassify_interval}"
            )


@dataclass(frozen=True)
class EngineConfig:
    """All knobs of :class:`repro.StagedEngine`, in one frozen object.

    ``buffer_size`` (the paper's ``b``) and ``buffer_timeout`` default to
    the values of ``pipeline`` when one is given (and to the
    :class:`IustitiaConfig` defaults otherwise); setting them here wins
    over the template. After construction ``pipeline`` is always a fully
    resolved, validated :class:`IustitiaConfig` — engines read their
    pipeline knobs from it and their staging knobs from this object.
    The one exception is ``buffer_size`` with no ``pipeline`` given and
    none set here: it stays ``None``, ``pipeline.buffer_size`` holds the
    default 32 as a placeholder, and the engine serves the window its
    classifier was trained on (``classifier.buffer_size``). A
    ``pipeline`` template always fixes ``b``: its own, 32 if it sets none.
    """

    #: Payload bytes buffered per new flow before classification (``b``);
    #: ``None`` with no ``pipeline``: the classifier's own ``b``. Any
    #: ``pipeline`` template fills it (32 unless the template sets one).
    buffer_size: "int | None" = None
    #: Give up and classify a partial buffer after this inactivity (seconds).
    buffer_timeout: "float | None" = None
    #: Ready flows per micro-batched classify drain, at most. A smaller
    #: batch drains once its oldest flow has waited a few drain costs of
    #: wall time (:data:`repro.engine.batcher.DRAIN_WAIT_COSTS`).
    max_batch: int = 32
    #: Instrument the engine with a :class:`repro.MetricsRegistry`.
    telemetry: bool = True
    #: Per-flow feature pipeline: ``"batch"`` buffers raw payload and
    #: extracts at drain time (default; required for header stripping /
    #: skipping and random skip); ``"incremental"`` keeps only the first
    #: ``b`` bytes of a flow, extracts once at the classify drain and
    #: charges the paper's ~200 B counter-table model of that window. A
    #: name registered in :data:`repro.core.extract.EXTRACTORS`.
    extractor: str = "batch"
    #: Execution runtime: ``"serial"``, the only one; the engine runs
    #: every stage inline, in arrival order.
    runtime: str = "serial"
    #: Template for the remaining pipeline knobs (feature set, header
    #: handling, CDB purging, Section-4.6 defenses).
    pipeline: "IustitiaConfig | None" = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if not isinstance(self.runtime, str):
            raise TypeError(
                f"runtime must be 'serial', got {type(self.runtime).__name__}"
            )
        if self.runtime != "serial":
            raise ValueError(f"unknown runtime {self.runtime!r}; expected 'serial'")
        from repro.core.extract import extractor_class

        extractor_class(self.extractor)
        base = self.pipeline if self.pipeline is not None else IustitiaConfig()
        resolved = replace(
            base,
            buffer_size=(
                self.buffer_size if self.buffer_size is not None
                else base.buffer_size
            ),
            buffer_timeout=(
                self.buffer_timeout if self.buffer_timeout is not None
                else base.buffer_timeout
            ),
        )
        # replace() re-runs IustitiaConfig validation on the merged values.
        if self.pipeline is not None:
            # A template's b fills an unset field; without one, an unset
            # b stays None for the engine to take from its classifier.
            object.__setattr__(self, "buffer_size", resolved.buffer_size)
        object.__setattr__(self, "buffer_timeout", resolved.buffer_timeout)
        object.__setattr__(self, "pipeline", resolved)
