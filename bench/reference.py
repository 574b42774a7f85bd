"""A speed reference interleaved with the closed-loop passes.

On the shared 2-core VM this benchmark was sized on, the machine itself
changes speed: a fixed pure-Python kernel takes 2.7 ms or 5.4 ms depending
on the second, in states that last from under a second to minutes, and a
closed-loop pass over the same packets took 1.5 s to 4.3 s within one
minute. No estimator over wall times survives that (medians of five passes
spread 26% between runs), so closed-loop throughput is measured against a
reference instead: every ``SLICE_S`` of engine time the load generator runs
a small fixed kernel (SHA-1 of a 4-byte key, a lookup in a 50k-entry dict,
a tuple, a dict insert and pop: the engine's own instruction mix) and
times it. Each 10 ms slice of engine time is then rescaled by how slow the
kernel ran next to it, relative to ``REFERENCE_KERNEL_S``. Per-pass rates
measured this way repeat within 2-5% where the raw ones spread 14-22%; 40 ms
slices were about twice as loose as 10 ms ones.

The reference is benchmark code: an engine change cannot move it, so a
faster engine still shows as proportionally more packets per second.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

__all__ = ["REFERENCE_KERNEL_S", "SLICE_S", "SpeedReference", "normalized_seconds"]

#: Engine time between two runs of the kernel (which costs ~5% on top).
SLICE_S = 0.010

#: Seconds one kernel run takes on the seed machine in its fast state; a
#: normalized second is a second of that machine. Fixed, never re-measured
#: per run: it only sets the unit.
REFERENCE_KERNEL_S = 0.00055


class SpeedReference:
    """The fixed kernel; build it before ``gc.freeze()``."""

    ENTRIES = 50_000
    STEPS = 375

    def __init__(self) -> None:
        self._table = {
            hashlib.sha1(i.to_bytes(4, "big")).digest(): [0]
            for i in range(self.ENTRIES)
        }
        self._at = 0

    def run(self) -> float:
        """Run the kernel once; returns the seconds it took."""
        started = perf_counter()
        table = self._table
        sha1 = hashlib.sha1
        entries = self.ENTRIES
        scratch = {}
        first = self._at
        self._at = (first + self.STEPS) % entries
        for i in range(first, first + self.STEPS):
            key = sha1(((i * 7919) % entries).to_bytes(4, "big")).digest()
            record = table[key]
            record[0] += 1
            scratch[key] = (i, record)
            if i & 3 == 0:
                scratch.pop(key)
        return perf_counter() - started

    def interleave(self, source, slices: list):
        """Yield from ``source``, timing the kernel every ``SLICE_S``.

        Appends ``(start, seconds)`` of each kernel run to ``slices``.
        """
        next_at = 0.0
        for packet in source:
            now = perf_counter()
            if now >= next_at:
                seconds = self.run()
                slices.append((now, seconds))
                next_at = now + seconds + SLICE_S
            yield packet


def normalized_seconds(t0: float, slices: list, end: float, closing_s: float):
    """``(raw_s, normalized_s)`` of a pass run through ``interleave``.

    ``slices`` are the in-pass kernel runs, ``end`` is when the pass ended
    and ``closing_s`` a kernel run made right after it. Raw seconds leave
    the kernel's own time out; normalized seconds rescale each stretch
    between two kernel runs by their mean duration over the reference.
    """
    starts = [start for start, _ in slices] + [end]
    kernel = [seconds for _, seconds in slices] + [closing_s]
    raw = normalized = starts[0] - t0  # before the first kernel run: unscaled
    for i in range(len(slices)):
        stretch = starts[i + 1] - (starts[i] + kernel[i])
        raw += stretch
        normalized += stretch * REFERENCE_KERNEL_S / ((kernel[i] + kernel[i + 1]) / 2)
    return raw, normalized
