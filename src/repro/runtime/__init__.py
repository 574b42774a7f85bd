"""Execution runtimes: how an engine's flow pipeline is driven.

The staged engine keeps its per-packet stages in one
:class:`repro.engine.pipeline.FlowPipeline`; a *runtime* decides who
executes it and when:

* :class:`SerialRuntime` (the only built-in) drives it inline on the
  calling thread, in arrival order — packet-for-packet equivalent to
  the fused engine (proven by the staged-equivalence suite).

Selection goes through the **runtime registry**: the built-in registers
itself on import, :func:`register` adds third-party runtimes with
no engine edits, :func:`available` lists what this process can run, and
``EngineConfig(runtime=<name>)`` resolves through :func:`make_runtime`.
A callable ``(engine_config) -> Runtime`` is also accepted directly as
the ``runtime`` field. :data:`RUNTIMES` aliases the live registry
mapping.
"""

from repro.runtime import base as _base
from repro.runtime.base import Runtime, available, make_runtime, register
from repro.runtime.serial import SerialRuntime

__all__ = [
    "RUNTIMES",
    "Runtime",
    "SerialRuntime",
    "available",
    "make_runtime",
    "register",
]

#: Live name → factory registry (importing a runtime module registers
#: it here; see :func:`repro.runtime.register`).
RUNTIMES = _base._REGISTRY
