"""Ingest supervision: retry policies, error policies, supervised sources.

The streaming layer (:mod:`repro.ingest`) is deliberately fail-fast at
every seam — a source raises, the stream ends; a dispatch raises,
``process_source`` raises. A classifier *monitor* has the opposite
contract: it must keep classifying through transient faults (flapping
file systems, decode storms) while still surfacing real bugs
immediately. This module makes that behavior explicit instead of
accidental, with three pieces:

* :class:`RetryPolicy` — *when to try again*: how many consecutive
  failures to tolerate, how long to back off between attempts
  (exponential with a cap, deterministic injectable jitter), and which
  exception types are retryable at all. Unknown exception types are
  **fatal by default** — a retry loop must never paper over a bug.
* :class:`ErrorPolicy` — *what to do with a packet whose dispatch
  failed*: ``fail-fast`` (raise, today's behavior and still the
  default), ``degrade`` (count the error, drop the packet, keep the
  stream alive), or ``dead-letter`` (hand ``(packet, exc)`` to a
  callback — a spool file, an alert queue — then continue).
* :class:`SupervisedSource` — a :class:`~repro.ingest.PacketSource`
  wrapper that restarts or reconnects a failing inner source under a
  :class:`RetryPolicy`, with honest accounting: restarts, the current
  consecutive-failure streak, and packets delivered, all mirrored into
  :class:`~repro.ingest.metrics.SupervisionMetrics` when a registry is
  bound.

Supervision never *re-delivers* on its own: after a restart the wrapper
resumes iterating whatever the inner source (or its factory) provides.
Sources with reconnect semantics (the scripted fault harness)
continue where they left off; for pass-from-the-start sources (a pcap
file re-read by a factory) pass ``skip_delivered=True`` and the wrapper
discards the packets it already yielded, making the supervised stream
exactly-once end to end.

Everything is injectable (``sleep``, jitter) so every retry path is
provable in tests without a single wall-clock sleep — see
``tests/ingest/faults.py`` for the scripted fault harness that drives
them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.ingest.metrics import SupervisionMetrics

__all__ = ["ErrorPolicy", "RetryPolicy", "SupervisedSource"]

#: Exception types retried by default: transient I/O. ``TimeoutError``
#: and ``ConnectionError`` are ``OSError`` subclasses, so one entry
#: covers pipes and file systems flapping.
DEFAULT_RETRYABLE: "tuple[type[BaseException], ...]" = (OSError,)


@dataclass(frozen=True)
class RetryPolicy:
    """When — and how patiently — to restart a failing source.

    ``max_attempts`` bounds the *consecutive* failure streak: the
    supervisor restarts after each retryable failure until ``attempts``
    failures have occurred with no successful delivery in between, then
    re-raises. Any successful delivery resets the streak, so a
    long-lived stream can absorb arbitrarily many isolated faults.

    The backoff before attempt *n* (1-based) is
    ``min(backoff_cap, backoff_base * backoff_factor ** (n - 1))``,
    plus ``jitter(n, delay)`` seconds when a jitter callable is given.
    Jitter is injectable (not sampled from a hidden RNG) so tests and
    reproductions stay deterministic; pass e.g.
    ``lambda n, d, r=random.Random(7): r.uniform(0, d / 4)`` for the
    classic decorrelated spread in production.

    ``fatal`` types are checked before ``retryable`` (so a specific
    subclass can opt out of a retryable base), and anything matching
    neither is fatal — retrying an unknown exception would turn bugs
    into silent packet loss.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 5.0
    jitter: "Callable[[int, float], float] | None" = None
    retryable: "tuple[type[BaseException], ...]" = DEFAULT_RETRYABLE
    fatal: "tuple[type[BaseException], ...]" = ()

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0:
            raise ValueError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"backoff_cap ({self.backoff_cap}) must be >= backoff_base "
                f"({self.backoff_base})"
            )

    def is_retryable(self, exc: BaseException) -> bool:
        """Whether ``exc`` warrants a restart (fatal types win ties)."""
        if isinstance(exc, self.fatal):
            return False
        return isinstance(exc, self.retryable)

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before restart ``attempt`` (1-based), >= 0."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter is not None:
            delay += self.jitter(attempt, delay)
        return max(0.0, delay)


class ErrorPolicy:
    """What to do when dispatching one packet into the engine fails.

    Three modes:

    * ``"fail-fast"`` (default) — absorb nothing; the caller raises (or
      records) the error. Exactly the pre-supervision behavior.
    * ``"degrade"`` — count the error, drop the packet, keep going.
    * ``"dead-letter"`` — call ``dead_letter(packet, exc)`` (count it),
      then keep going. The callback must not raise; an exception from
      it propagates to the dispatch loop and is treated as fatal.

    A policy instance carries its own per-run counters (:attr:`errors`,
    :attr:`dead_lettered`, :attr:`last_error`) and optionally mirrors
    them into a bound :class:`SupervisionMetrics` — use one instance per
    engine run.
    """

    MODES = ("fail-fast", "degrade", "dead-letter")

    def __init__(
        self,
        mode: str = "fail-fast",
        *,
        dead_letter: "Callable[[object, BaseException], None] | None" = None,
    ) -> None:
        if mode not in self.MODES:
            raise ValueError(
                f"unknown error-policy mode {mode!r}; expected one of "
                f"{', '.join(self.MODES)}"
            )
        if mode == "dead-letter" and not callable(dead_letter):
            raise ValueError(
                "dead-letter mode requires a dead_letter callback"
            )
        if mode != "dead-letter" and dead_letter is not None:
            raise ValueError(
                f"dead_letter callback is only meaningful in dead-letter "
                f"mode, not {mode!r}"
            )
        self.mode = mode
        self.dead_letter = dead_letter
        self.errors = 0
        self.dead_lettered = 0
        self.last_error: "BaseException | None" = None
        self._metrics: "SupervisionMetrics | None" = None

    @classmethod
    def coerce(cls, value) -> "ErrorPolicy":
        """Accept None (fail-fast), a mode string, or a policy instance."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        raise TypeError(
            f"on_error must be an ErrorPolicy or one of "
            f"{', '.join(cls.MODES)}, got {type(value).__name__}"
        )

    def bind_metrics(self, metrics: "SupervisionMetrics | None") -> "ErrorPolicy":
        """Mirror this policy's counters into a metrics bundle; returns self."""
        self._metrics = metrics
        return self

    def absorb(self, exc: BaseException, packet=None) -> bool:
        """Handle one dispatch error; True means the stream continues.

        ``fail-fast`` records nothing and returns False — the caller
        owns raising. ``degrade``/``dead-letter`` count the error (and
        invoke the callback) and return True.
        """
        self.last_error = exc
        if self.mode == "fail-fast":
            return False
        self.errors += 1
        if self._metrics is not None:
            self._metrics.dispatch_errors.inc()
        if self.mode == "dead-letter":
            self.dead_letter(packet, exc)
            self.dead_lettered += 1
            if self._metrics is not None:
                self._metrics.dead_letters.inc()
        return True


class SupervisedSource:
    """Restart a failing packet source under a :class:`RetryPolicy`.

    ``source`` is either a live :class:`~repro.ingest.PacketSource`
    (anything iterable with ``close()``) or a zero-argument factory
    returning a fresh one per (re)connect — use a factory when a failed
    source cannot be re-iterated (a one-shot generator, a closed file).

    On a retryable failure the wrapper closes the broken source (best
    effort), sleeps the policy's backoff (``sleep`` is injectable; the
    metrics histogram records the delay either way), and re-acquires.
    Delivery resumes wherever the inner source resumes; with
    ``skip_delivered=True`` the wrapper additionally discards the first
    :attr:`delivered` packets of the fresh pass, which makes restarts
    exactly-once over pass-from-the-start sources like
    :class:`~repro.ingest.PcapFileSource` factories.

    Fatal errors (per the policy) and exhausted streaks re-raise the
    original exception unchanged. :meth:`close` is terminal, like the
    concrete sources: a closed supervisor yields nothing forever.
    """

    def __init__(
        self,
        source,
        *,
        policy: "RetryPolicy | None" = None,
        sleep: "Callable[[float], None]" = time.sleep,
        skip_delivered: bool = False,
        registry=None,
        name: "str | None" = None,
    ) -> None:
        if hasattr(source, "__iter__"):
            self._inner = source
            self._factory = None
        elif callable(source):
            self._inner = None
            self._factory = source
        else:
            raise TypeError(
                "source must be a PacketSource (iterable with close()) or "
                f"a zero-arg factory returning one, got {type(source).__name__}"
            )
        self.policy = policy if policy is not None else RetryPolicy()
        self.restarts = 0
        self.consecutive_failures = 0
        self.delivered = 0
        self.last_error: "BaseException | None" = None
        self._sleep = sleep
        self._skip_delivered = skip_delivered
        self._closed = False
        self._metrics = (
            SupervisionMetrics(registry, source=name or "supervised")
            if registry is not None
            else None
        )

    @property
    def inner(self):
        """The currently active inner source (None between reconnects)."""
        return self._inner

    def __enter__(self) -> "SupervisedSource":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __iter__(self) -> Iterator:
        if self._closed:
            return
        policy = self.policy
        skip = 0
        while True:
            source = self._acquire()
            iterator = iter(source)
            try:
                for packet in iterator:
                    if skip:
                        skip -= 1
                        continue
                    self.delivered += 1
                    if self.consecutive_failures:
                        self.consecutive_failures = 0
                        if self._metrics is not None:
                            self._metrics.consecutive_failures.set(0)
                    yield packet
                    if self._closed:
                        return
                return  # clean end of stream
            except Exception as exc:
                self.last_error = exc
                self.consecutive_failures += 1
                attempt = self.consecutive_failures
                if self._metrics is not None:
                    self._metrics.consecutive_failures.set(attempt)
                if not policy.is_retryable(exc) or attempt > policy.max_attempts:
                    raise
                self._restart(attempt)
                skip = self.delivered if self._skip_delivered else 0

    def _acquire(self):
        if self._inner is None:
            self._inner = self._factory()
        return self._inner

    def _restart(self, attempt: int) -> None:
        """Close the broken source, back off, and line up a fresh one."""
        broken, self._inner = self._inner, None
        if broken is not None:
            try:
                broken.close()
            except Exception:
                pass  # the source already failed; closing is best effort
        if self._factory is None:
            # No factory: re-iterating the same source object IS the
            # reconnect (the scripted fault harness).
            self._inner = broken
        delay = self.policy.backoff(attempt)
        self.restarts += 1
        if self._metrics is not None:
            self._metrics.restarts.inc()
            self._metrics.backoff.observe(delay)
        if delay > 0:
            self._sleep(delay)

    def close(self) -> None:
        """Close the active inner source and end supervision (terminal)."""
        if self._closed:
            return
        self._closed = True
        inner, self._inner = self._inner, None
        if inner is not None:
            close = getattr(inner, "close", None)
            if callable(close):
                close()
