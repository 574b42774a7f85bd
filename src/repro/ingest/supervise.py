"""Ingest supervision: re-read a capture through transient I/O faults.

The streaming layer is fail-fast at every seam — a source raises, the
stream ends. :class:`SupervisedSource` is the one exception, sized to
the one source that exists: a zero-argument factory that re-reads a
capture from the start (a :class:`~repro.PcapFileSource` over a
file). On an ``OSError`` — raised by the pass or by the factory opening
it — it closes the broken pass, backs off, opens a fresh pass and
discards the packets it already delivered, so the supervised stream is
exactly-once end to end. Anything that is not an ``OSError`` — a
:class:`~repro.net.pcap.PcapError` included — is a bug or damaged
input, never retried.

Per-packet dispatch faults are the engine's business, not this
module's: see ``StagedEngine.process_source(on_error=...)``.
"""

from __future__ import annotations

import time
from typing import Callable, Iterator

__all__ = ["SupervisedSource"]

#: The backoff before restart *n* of a failure streak (1-based) is
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (n - 1))`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 5.0


class SupervisedSource:
    """Restart a re-readable packet source on ``OSError``, exactly once.

    ``factory`` returns a fresh :class:`~repro.PacketSource` per
    pass; every pass starts from the first packet and the wrapper skips
    the :attr:`delivered` ones. ``max_attempts`` bounds the
    *consecutive* failure streak: the failure after it re-raises, and
    any delivery resets the streak, so a long stream absorbs any number
    of isolated faults. ``sleep`` is the backoff seam for tests. With a
    ``registry``, ``ingest_restarts_total`` reads :attr:`restarts` and
    the ``ingest_consecutive_failures`` gauge reads
    :attr:`consecutive_failures`, both labeled ``source=name``.

    :meth:`close` is terminal, like the concrete sources: a closed
    supervisor yields nothing forever.
    """

    def __init__(
        self,
        factory: "Callable[[], object]",
        *,
        max_attempts: int = 3,
        sleep: "Callable[[float], None]" = time.sleep,
        registry=None,
        name: "str | None" = None,
    ) -> None:
        if not callable(factory):
            raise TypeError(
                "factory must be a zero-arg callable returning a fresh "
                f"PacketSource, got {type(factory).__name__}"
            )
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self._factory = factory
        self.max_attempts = max_attempts
        self.restarts = 0
        self.consecutive_failures = 0
        self.delivered = 0
        self._sleep = sleep
        self._inner = None
        self._closed = False
        if registry is not None:
            source = name or "supervised"
            registry.counter(
                "ingest_restarts_total",
                help="Source restarts performed by the supervisor after an "
                "I/O error",
                reader=lambda: self.restarts,
                source=source,
            )
            registry.gauge(
                "ingest_consecutive_failures",
                help="Current consecutive-failure streak of the supervised "
                "source (0 after a successful delivery)",
                reader=lambda: self.consecutive_failures,
                source=source,
            )

    def __enter__(self) -> "SupervisedSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __iter__(self) -> Iterator:
        while not self._closed:
            skip = self.delivered
            try:
                self._inner = self._factory()
                for packet in self._inner:
                    if skip:
                        skip -= 1
                        continue
                    self.delivered += 1
                    self.consecutive_failures = 0
                    yield packet
                    if self._closed:
                        return
                return  # clean end of stream
            except Exception as exc:
                self.consecutive_failures += 1
                if (not isinstance(exc, OSError)
                        or self.consecutive_failures > self.max_attempts):
                    raise
                self._restart()

    def _restart(self) -> None:
        """Close the broken pass (if one opened) and back off."""
        broken, self._inner = self._inner, None
        if broken is not None:
            try:
                broken.close()
            except Exception:
                pass  # the source already failed; closing is best effort
        self.restarts += 1
        self._sleep(
            min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (self.consecutive_failures - 1))
        )

    def close(self) -> None:
        """Close the active pass and end supervision (terminal)."""
        self._closed = True
        inner, self._inner = self._inner, None
        if inner is not None:
            inner.close()
