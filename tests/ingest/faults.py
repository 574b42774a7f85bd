"""Fault-injection harness for the ingest supervision layer.

Deterministic, scripted fault doubles — no sleeps that actually sleep.
Every retry path in :mod:`repro.ingest.supervise` is proven by raising
*exactly* the scripted exception at *exactly* the chosen packet index
and asserting the recovery bookkeeping afterwards.

* :class:`FlakySource` — a packet source that raises scripted
  exceptions at chosen global packet indices. By default it keeps its
  cursor across re-iteration (reconnect semantics: the stream resumes
  where it broke, each fault fires once); ``resume=False`` restarts
  every pass from packet 0 (pcap-file semantics), which is what
  ``SupervisedSource(skip_delivered=True)`` exists for.
* :class:`RecordingSleep` — a ``sleep`` double that records requested
  delays instead of sleeping.
"""

from __future__ import annotations

from collections import deque

__all__ = ["FlakySource", "RecordingSleep"]


def _script_map(fail_at) -> "dict[int, deque]":
    """Normalize {index: exc | [excs]} into {index: deque of excs}."""
    script: "dict[int, deque]" = {}
    for index, faults in dict(fail_at or {}).items():
        if isinstance(faults, BaseException):
            faults = [faults]
        script[index] = deque(faults)
    return script


class FlakySource:
    """Yields ``packets``, raising scripted exceptions at chosen indices.

    ``fail_at`` maps a global packet index to one exception instance or
    a list of them; each entry fires once, *before* the packet at that
    index is delivered, so a supervisor that restarts the source loses
    nothing. Multiple exceptions at one index fire on consecutive
    attempts (a consecutive-failure streak).
    """

    def __init__(self, packets, fail_at=None, *, resume: bool = True) -> None:
        self.packets = list(packets)
        self.resume = resume
        self.cursor = 0
        self.passes = 0
        self.closes = 0
        self._script = _script_map(fail_at)

    def __iter__(self):
        self.passes += 1
        if not self.resume:
            self.cursor = 0
        while self.cursor < len(self.packets):
            pending = self._script.get(self.cursor)
            if pending:
                raise pending.popleft()
            packet = self.packets[self.cursor]
            self.cursor += 1
            yield packet

    def close(self) -> None:
        self.closes += 1


class RecordingSleep:
    """A ``sleep`` double: records requested delays, never blocks."""

    def __init__(self) -> None:
        self.calls: "list[float]" = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
