"""Outside-in span tracer: wraps instance attributes at layer boundaries.

The benchmark owns the engine instance it builds, so it can replace bound
methods on that instance (``engine.process_packet``, ``pipeline.ingest``,
``engine.extractor.finalize`` ...) with timing wrappers without touching
``src/``. Each call records a span: name, start, end, parent (the span
that was open when it started). A layer's self time is its duration minus
the durations of its child spans.

A wrapped attribute that does not exist raises at wrap time, and
:meth:`Tracer.require_hit` raises for one that was never called: a renamed
method must fail loudly, never report 0.
"""

from __future__ import annotations

import json
from time import perf_counter

import numpy as np

__all__ = ["Tracer"]


class Tracer:
    """Records spans into flat columns (one list append per field)."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self._name: list = []
        self._start: list = []
        self._end: list = []
        self._parent: list = []
        self._stack: list = [-1]
        #: span index -> a count taken at that boundary (batch size ...).
        self.counts: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, obj, attr: str, name: str, count_of=None) -> None:
        """Replace ``obj.attr`` by a wrapper recording a ``name`` span.

        ``count_of(args, result)`` optionally returns a count to record
        with the span (the size of a batch, the records a purge removed).
        """
        original = getattr(obj, attr, None)
        if not callable(original):
            raise AttributeError(
                f"cannot trace {name}: {type(obj).__name__}.{attr} does not exist"
            )
        name_id = self._name_id(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        stack = self._stack
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if count_of is not None:
                counts[index] = count_of(args, result)
            return result

        setattr(obj, attr, traced)

    def wrap_iterator(self, iterable, name: str):
        """Iterate ``iterable``, recording every ``next()`` as a leaf span."""
        name_id = self._name_id(name)
        names, starts, ends, parents = self._name, self._start, self._end, self._parent
        advance = iter(iterable).__next__
        while True:
            index = len(starts)
            names.append(name_id)
            parents.append(-1)
            ends.append(0.0)
            starts.append(perf_counter())
            try:
                item = advance()
            except StopIteration:
                ends[index] = perf_counter()
                return
            ends[index] = perf_counter()
            yield item

    # -- reading the trace ----------------------------------------------------

    def summary(self) -> dict:
        """``{name: {"calls", "total_s", "self_s", "count"}}`` plus roots.

        ``"_root_s"`` is the summed duration of parentless spans: what the
        trace covers of the pass.
        """
        name = np.asarray(self._name, dtype=np.int64)
        duration = np.asarray(self._end) - np.asarray(self._start)
        parent = np.asarray(self._parent, dtype=np.int64)
        children = np.zeros(len(duration))
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        self_time = duration - children
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=duration, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        counted = np.zeros(n)
        for index, count in self.counts.items():
            counted[name[index]] += count
        out = {
            label: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "count": float(counted[i]),
            }
            for i, label in enumerate(self.names)
        }
        out["_root_s"] = float(duration[~has_parent].sum())
        return out

    def require_hit(self, summary: dict, names) -> None:
        missed = [name for name in names if summary.get(name, {}).get("calls", 0) == 0]
        if missed:
            raise AssertionError(
                f"traced boundaries never called: {', '.join(missed)} "
                "(renamed or bypassed?)"
            )

    def dump(self, path, t0: float) -> None:
        """Write the spans, column-wise, times in ns since ``t0``."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self._name,
                    "start_ns": [int((t - t0) * 1e9) for t in self._start],
                    "end_ns": [int((t - t0) * 1e9) for t in self._end],
                    "parent": self._parent,
                    "counts": {str(k): v for k, v in self.counts.items()},
                },
                handle,
            )
