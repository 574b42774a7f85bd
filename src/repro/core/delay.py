"""Classifier buffering-delay model (Section 4.5).

The delay a new flow experiences before its first packets are forwarded is

    tau = tau_hash + tau_CDBsearch + tau_b

where ``tau_hash`` is the SHA-1 flow-ID computation (paper: ~18 us),
``tau_CDBsearch`` the CDB lookup, and ``tau_b`` — the dominant term — the
time for the flow's buffer to accumulate ``b`` payload bytes, i.e. the sum
of the first ``c`` packet inter-arrival gaps. ``c`` depends on the
payload-size distribution: with the gateway trace's bimodal sizes, ``c = 1``
for ``b = 32`` and roughly 3-5 for kilobyte buffers (Figure 10a).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.flow import Flow
from repro.net.trace import Trace

__all__ = [
    "BufferingDelayModel",
    "DelayBreakdown",
]

#: Paper-measured SHA-1 hash time, seconds.
DEFAULT_HASH_TIME = 18e-6

#: Nominal CDB hash-table lookup time, seconds (O(1); small vs tau_b).
DEFAULT_CDB_SEARCH_TIME = 2e-6


@dataclass(frozen=True)
class DelayBreakdown:
    """Per-flow classifier delay components (all in seconds)."""

    tau_hash: float
    tau_cdb: float
    tau_b: float
    packets_to_fill: int
    buffer_filled: bool

    @property
    def total(self) -> float:
        """``tau = tau_hash + tau_CDBsearch + tau_b``."""
        return self.tau_hash + self.tau_cdb + self.tau_b


class BufferingDelayModel:
    """Computes per-flow and per-time-unit delay series for a trace."""

    def __init__(
        self,
        buffer_size: int,
        hash_time: float = DEFAULT_HASH_TIME,
        cdb_search_time: float = DEFAULT_CDB_SEARCH_TIME,
    ) -> None:
        if buffer_size < 1:
            raise ValueError(f"buffer_size must be >= 1, got {buffer_size}")
        if hash_time < 0 or cdb_search_time < 0:
            raise ValueError("times must be non-negative")
        self.buffer_size = buffer_size
        self.hash_time = hash_time
        self.cdb_search_time = cdb_search_time

    def flow_delay(self, flow: Flow) -> DelayBreakdown:
        """Delay breakdown for one assembled flow.

        ``tau_b`` is the gap between the flow's first packet and the packet
        that completes the buffer. Flows that never accumulate
        ``buffer_size`` bytes report the delay to their last packet with
        ``buffer_filled=False`` (the engine would classify them on timeout).
        """
        if not flow.packets:
            raise ValueError("flow has no packets")
        accumulated = 0
        fill_index = len(flow.packets) - 1
        filled = False
        for index, packet in enumerate(flow.packets):
            accumulated += len(packet.payload)
            if accumulated >= self.buffer_size:
                fill_index = index
                filled = True
                break
        tau_b = flow.packets[fill_index].timestamp - flow.packets[0].timestamp
        return DelayBreakdown(
            tau_hash=self.hash_time,
            tau_cdb=self.cdb_search_time,
            tau_b=tau_b,
            packets_to_fill=fill_index + 1,
            buffer_filled=filled,
        )

    def trace_delays(self, trace: Trace) -> list[DelayBreakdown]:
        """Delay breakdown for every flow in a trace (by flow start order)."""
        flows = sorted(trace.flows().values(), key=lambda f: f.start_time)
        return [self.flow_delay(flow) for flow in flows if flow.packets]

    def time_series(
        self, trace: Trace, bin_seconds: float = 1.0
    ) -> list[tuple[float, float, float]]:
        """``(time bin, mean packets-to-fill, mean total delay)`` per bin.

        Flows are binned by their start time; bins with no flow starts are
        omitted. This is the data behind Figure 10's two panels.
        """
        if bin_seconds <= 0:
            raise ValueError(f"bin_seconds must be positive, got {bin_seconds}")
        flows = [f for f in trace.flows().values() if f.packets]
        if not flows:
            return []
        origin = min(f.start_time for f in flows)
        bins: dict[int, list[DelayBreakdown]] = {}
        for flow in flows:
            index = int((flow.start_time - origin) / bin_seconds)
            bins.setdefault(index, []).append(self.flow_delay(flow))
        series = []
        for index in sorted(bins):
            delays = bins[index]
            series.append(
                (
                    origin + index * bin_seconds,
                    float(np.mean([d.packets_to_fill for d in delays])),
                    float(np.mean([d.total for d in delays])),
                )
            )
        return series

    def relative_delays(
        self, trace: Trace, computation_time: float
    ) -> list[float]:
        """Per-flow ``(computation delay) / (flow mean inter-arrival)``.

        The headline claim (Section 1.3) expresses the classification cost
        relative to each flow's own packet cadence; flows with fewer than
        two packets are skipped (no inter-arrival to compare against).
        """
        if computation_time < 0:
            raise ValueError("computation_time must be >= 0")
        ratios = []
        for flow in trace.flows().values():
            gaps = flow.inter_arrival_times()
            positive = [g for g in gaps if g > 0]
            if not positive:
                continue
            ratios.append(computation_time / float(np.mean(positive)))
        return ratios
