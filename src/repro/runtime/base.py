"""The Runtime protocol: the contract between engine facade and executor.

A runtime never owns flow state — the engine's
:class:`~repro.engine.pipeline.FlowPipeline` does. The runtime only
decides *where* each pipeline call executes and how drained batches of
ready flows reach the engine's classify/apply machinery. The
facade calls exactly four things on the hot path and lifecycle:

* :meth:`Runtime.dispatch` — one packet, with its flow ID;
* :meth:`Runtime.flush` — buffer-timeout sweep at a sample point;
* :meth:`Runtime.finish` — end of stream, everything pending classifies;
* :meth:`Runtime.close` — release execution resources (no-op for serial).

In exchange the runtime may call back into the engine's coordinator
surface: ``engine.pipeline``, ``engine.classify_apply(batch, now)``
(or its parts: ``pipeline.fold_for(batch)`` +
``engine.classify_labels(batch, now)`` + ``pipeline.apply(...)`` +
``engine.emit``), and forwards a CDB-hit payload packet to
``engine.sinks`` itself.

This module also hosts the **runtime registry**: runtimes register a
name → factory pair via :func:`register` (the built-in serial runtime
registers itself on import), ``EngineConfig(runtime=...)`` resolves through
:func:`make_runtime`, and :func:`available` lists what a given process
can run — third-party runtimes plug in without engine edits.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["Runtime", "available", "make_runtime", "register"]

#: name → factory ``(engine_config) -> Runtime``. Mutated only through
#: :func:`register`; ``repro.runtime.RUNTIMES`` aliases this dict.
_REGISTRY: dict = {}


def register(name: str, factory) -> None:
    """Register a runtime factory under ``name``.

    ``factory`` is any callable ``(engine_config) -> Runtime``; it
    receives the full (frozen) ``EngineConfig`` and may read whichever
    knobs it understands (``max_batch``, ``max_delay``, ...).
    Registration is idempotent for the same factory object; a *different*
    factory under an existing name raises ``ValueError`` — shadowing a
    runtime silently would change engine behaviour at a distance.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"runtime name must be a non-empty string, got {name!r}")
    if not callable(factory):
        raise TypeError(
            f"runtime factory for {name!r} must be callable, "
            f"got {type(factory).__name__}"
        )
    current = _REGISTRY.get(name)
    if current is not None and current is not factory:
        raise ValueError(
            f"runtime {name!r} is already registered; pick another name "
            "(shadowing a registered runtime is not allowed)"
        )
    _REGISTRY[name] = factory


def available() -> "tuple[str, ...]":
    """Registered runtime names, sorted (what ``runtime=...`` accepts)."""
    return tuple(sorted(_REGISTRY))


def make_runtime(engine_config) -> "Runtime":
    """Resolve an ``EngineConfig.runtime`` spec to a runtime instance."""
    spec = engine_config.runtime
    if isinstance(spec, str):
        try:
            factory = _REGISTRY[spec]
        except KeyError:
            raise ValueError(
                f"unknown runtime {spec!r}; expected one of "
                f"{', '.join(available())} (third-party runtimes must call "
                "repro.runtime.register first)"
            ) from None
        return factory(engine_config)
    if callable(spec):
        return spec(engine_config)
    raise TypeError(
        "runtime must be a registry name or a factory callable, "
        f"got {type(spec).__name__}"
    )


@runtime_checkable
class Runtime(Protocol):
    """Drives an engine's flow pipeline (see module docstring)."""

    #: Registry-style name, for telemetry and benchmark reports.
    name: str

    def bind(self, engine) -> None:
        """Attach to an engine (called once, from the engine constructor)."""

    def dispatch(self, packet, flow_id: bytes, now: float, is_close: bool):
        """Run one packet through the pipeline; returns the label if known."""

    def flush(self, now: float) -> int:
        """Classify pending flows inactive beyond ``buffer_timeout``.

        Returns how many flows expired.
        """

    def finish(self, now: float) -> None:
        """End of stream: classify everything pending, then quiesce."""

    def close(self) -> None:
        """Release any execution resources (idempotent)."""
