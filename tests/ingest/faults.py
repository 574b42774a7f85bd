"""Fault-injection harness for the ingest supervision layer.

Deterministic, scripted fault doubles — no sleeps that actually sleep.
Every retry path in :mod:`repro.ingest.supervise` is proven by raising
*exactly* the scripted exception at *exactly* the chosen packet index
and asserting the recovery bookkeeping afterwards.

* :class:`FlakySource` — a packet source that raises scripted
  exceptions at chosen packet indices. Like a pcap file, every pass
  starts from packet 0; each scripted fault fires once, so a
  supervisor that skips what it already delivered loses nothing.
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
    """Yields ``packets`` from the first on every pass, raising scripted
    exceptions at chosen indices.

    ``fail_at`` maps a packet index to one exception instance or a list
    of them; each entry fires once, *before* the packet at that index
    is yielded. Multiple exceptions at one index fire on consecutive
    passes (a consecutive-failure streak).
    """

    def __init__(self, packets, fail_at=None) -> None:
        self.packets = list(packets)
        self.passes = 0
        self.closes = 0
        self._script = _script_map(fail_at)

    def __iter__(self):
        self.passes += 1
        for index, packet in enumerate(self.packets):
            pending = self._script.get(index)
            if pending:
                raise pending.popleft()
            yield packet

    def close(self) -> None:
        self.closes += 1


class RecordingSleep:
    """A ``sleep`` double: records requested delays, never blocks."""

    def __init__(self) -> None:
        self.calls: "list[float]" = []

    def __call__(self, seconds: float) -> None:
        self.calls.append(seconds)
