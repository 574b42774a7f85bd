"""Asyncio live-capture driver: event-loop producers feeding the engine.

:class:`AsyncIngestDriver` bridges asyncio readers — datagram
endpoints, file chunks, anything that can ``await feed(packet)`` — into
a running :class:`~repro.engine.StagedEngine` without any engine or
runtime protocol change. The pieces:

* **Bounded in-flight buffer** — an ``asyncio.Queue(max_inflight)``
  between producers and the dispatch pump. Producers that ``await
  feed(...)`` block when it fills; lossy producers (the datagram
  protocol, whose callback cannot await) drop-and-count instead, which
  is what a kernel socket buffer would have done anyway.
* **Dispatch pump** — one task that pulls packets in feed order and
  calls ``engine.process_packet`` (→ ``Runtime.dispatch``). The call
  is synchronous, so a slow engine stalls the pump and backpressure
  propagates: the in-flight queue fills, producers await. No
  unbounded buffering anywhere on the path.
* **Wall-clock flush tick** — the engine's timeout machinery runs on
  the packet clock, which stalls when packets stop arriving (exactly
  when timeouts matter most, live). The tick estimates the packet clock
  from the wall clock (anchored at the first dispatched packet) and
  calls ``engine.flush_timeouts`` every ``flush_interval`` wall
  seconds. Pass ``flush_interval=None`` for fully deterministic,
  packet-clock-only runs.

Error handling is explicit, not accidental: the driver takes an
``on_error`` :class:`~repro.ingest.supervise.ErrorPolicy`. Under the
default fail-fast policy the *first* dispatch error is preserved, the
engine is never touched again, and every later queued packet drains as
a counted drop (:attr:`~AsyncIngestDriver.post_error_drops`) so
producers never hang on a forever-full queue; ``finish()`` raises that
first error. Degrade and dead-letter policies absorb per-packet errors
(counted, optionally spooled to a callback) and keep the stream alive.
Flush-tick failures follow the same policy: counted, retried on the
next tick under degrade, first-error-preserving fatal under fail-fast.

Lifecycle: ``start()`` (implicit on first feed) → feed/endpoint traffic
→ ``await finish()`` (drain, final engine flush, returns stats) →
``await close()`` (idempotent; also safe without finish, e.g. on
error). A zero-packet stream still ends the engine's stream at
``finish()`` — sink flush/finish barriers must run even when nothing
arrived. Offline determinism: a datagram-fed run with explicit
timestamps and ``flush_interval=None`` produces outcomes identical to
``process_trace`` over the same packets — the determinism test holds
the driver to that.
"""

from __future__ import annotations

import asyncio
import time

from repro.engine.types import EngineClosedError
from repro.ingest.metrics import IngestMetrics, SupervisionMetrics
from repro.ingest.supervise import ErrorPolicy
from repro.net.packet import Packet

__all__ = ["AsyncIngestDriver", "DatagramIngestProtocol"]


class DatagramIngestProtocol(asyncio.DatagramProtocol):
    """Feeds received datagrams (serialized IPv4 packets) to a driver.

    ``datagram_received`` runs inside the event loop and cannot await,
    so a full in-flight queue *drops* the datagram and counts it
    (``driver.dropped``) — bounded buffering with honest accounting,
    matching UDP's own delivery contract.
    """

    def __init__(self, driver: "AsyncIngestDriver") -> None:
        self.driver = driver
        self.transport = None

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self.driver.feed_datagram_nowait(data)

    def error_received(self, exc) -> None:  # pragma: no cover - kernel path
        self.driver.stats.decode_errors += 1


class AsyncIngestDriver:
    """Bridges asyncio packet producers into a staged engine.

    ``engine`` is an open :class:`~repro.engine.StagedEngine`. The
    driver owns no engine lifecycle: closing the driver
    does not close the engine, and ``finish()`` performs the engine's
    end-of-stream drain exactly once.
    """

    def __init__(
        self,
        engine,
        *,
        max_inflight: int = 1024,
        flush_interval: "float | None" = 1.0,
        on_error: "ErrorPolicy | str | None" = None,
        clock=time.monotonic,
        registry=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if flush_interval is not None and flush_interval <= 0:
            raise ValueError(
                f"flush_interval must be positive (or None), got "
                f"{flush_interval}"
            )
        self.engine = engine
        self.max_inflight = max_inflight
        self.flush_interval = flush_interval
        self.error_policy = ErrorPolicy.coerce(on_error)
        self.dispatched = 0
        self.dropped = 0
        self.post_error_drops = 0
        self.tick_errors = 0
        self.stats = _DriverStats()
        self._synced_stats: dict = {}
        self._clock = clock
        self._queue: "asyncio.Queue | None" = None
        self._pump_task: "asyncio.Task | None" = None
        self._tick_task: "asyncio.Task | None" = None
        self._pump_error: "BaseException | None" = None
        self._last_ts: "float | None" = None
        self._clock_offset: "float | None" = None
        self._finished = False
        self._closed = False
        if registry is not None:
            metrics = IngestMetrics(registry, source="async-driver")
            self._metrics = metrics
            self._inflight = metrics.inflight_gauge()
            self._supervision = SupervisionMetrics(
                registry, source="async-driver"
            )
            self.error_policy.bind_metrics(self._supervision)
        else:
            self._metrics = None
            self._inflight = None
            self._supervision = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Create the queue and spawn the pump (+ flush tick) tasks.

        Must run inside a running event loop; feeding implies it.
        Idempotent until :meth:`close`.
        """
        if self._closed:
            raise RuntimeError("driver is closed")
        if self._queue is not None:
            return
        self._queue = asyncio.Queue(maxsize=self.max_inflight)
        self._pump_task = asyncio.ensure_future(self._pump())
        if self.flush_interval is not None:
            self._tick_task = asyncio.ensure_future(self._flush_tick())

    async def close(self) -> None:
        """Cancel the driver's tasks and drop queued packets (idempotent).

        Safe at any point — mid-stream, after :meth:`finish`, or twice;
        the engine is left untouched (still open).
        """
        if self._closed:
            return
        self._closed = True
        for task in (self._tick_task, self._pump_task):
            if task is not None and not task.done():
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):
                    pass
        self._tick_task = None
        self._pump_task = None
        self._queue = None

    # -- feeding -------------------------------------------------------------

    async def feed(self, packet: Packet) -> None:
        """Queue one packet for dispatch; blocks when in-flight is full."""
        self._check_alive()
        self.start()
        await self._queue.put(packet)
        self._observe_depth()

    async def feed_datagram(
        self, data, timestamp: "float | None" = None
    ) -> bool:
        """Decode one datagram and queue it; returns False on decode error.

        ``timestamp`` defaults to the arrival wall clock (``time.time``)
        — pass explicit timestamps to replay recorded traffic
        deterministically.
        """
        packet = self._decode(data, timestamp)
        if packet is None:
            return False
        await self.feed(packet)
        return True

    def feed_datagram_nowait(self, data, timestamp: "float | None" = None) -> bool:
        """Non-blocking :meth:`feed_datagram` for protocol callbacks.

        Returns False when the datagram failed to decode *or* the
        in-flight queue was full (counted on :attr:`dropped`).
        """
        self._check_alive()
        self.start()
        packet = self._decode(data, timestamp)
        if packet is None:
            return False
        try:
            self._queue.put_nowait(packet)
        except asyncio.QueueFull:
            self.dropped += 1
            return False
        self._observe_depth()
        return True

    async def open_datagram_endpoint(self, host: str, port: int):
        """Bind a UDP endpoint feeding this driver; returns the transport."""
        self._check_alive()
        self.start()
        loop = asyncio.get_running_loop()
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: DatagramIngestProtocol(self), local_addr=(host, port)
        )
        return transport

    async def run(self, source) -> None:
        """Feed every packet of an iterable source through the driver.

        The iterable is consumed cooperatively — control returns to the
        event loop at least once per packet, so endpoint traffic and the
        flush tick interleave with a file replay.
        """
        self._check_alive()
        self.start()
        for packet in source:
            await self.feed(packet)
            await asyncio.sleep(0)

    async def finish(self, final_ts: "float | None" = None):
        """Drain in-flight packets, end the engine's stream, return stats.

        Idempotent per stream: a second ``finish`` with no packets in
        between returns the same stats without re-draining the engine.

        A zero-packet stream still ends the engine's stream — attached
        sinks flush, finish barriers run — using ``final_ts`` as the
        stream epoch (0.0 when omitted). Once packets have been
        dispatched, the last dispatched timestamp is the epoch and
        ``final_ts`` is ignored.
        """
        self._check_alive()
        self.start()
        await self._queue.join()
        if self._pump_error is not None:
            error, self._pump_error = self._pump_error, None
            raise error
        if not self._finished:
            if self._last_ts is not None:
                epoch = self._last_ts
            elif final_ts is not None:
                epoch = final_ts
            else:
                epoch = 0.0
            self.engine.finish(epoch)
            self._finished = True
        return self.engine.stats

    # -- internals -----------------------------------------------------------

    def _check_alive(self) -> None:
        if self._closed:
            raise RuntimeError("driver is closed")

    def _decode(self, data, timestamp: "float | None") -> "Packet | None":
        self.stats.records += 1
        self.stats.bytes += len(data)
        try:
            packet = Packet.from_bytes(
                data,
                timestamp=timestamp if timestamp is not None else time.time(),
            )
        except ValueError:
            self.stats.decode_errors += 1
            self._level_metrics()
            return None
        self.stats.packets += 1
        self._level_metrics()
        return packet

    def _level_metrics(self) -> None:
        if self._metrics is not None:
            self._metrics.observe_decode(self.stats, self._synced_stats)

    def _observe_depth(self) -> None:
        if self._inflight is not None and self._queue is not None:
            self._inflight.set(self._queue.qsize())

    async def _pump(self) -> None:
        """Dispatch queued packets in feed order.

        ``process_packet`` runs inline — a slow engine is the
        backpressure path, and it stalls here so the whole driver (and
        its producers, once the in-flight queue fills) slows to the
        engine's pace.

        Dispatch errors route through :attr:`error_policy`. A fatal one
        (fail-fast, or an exhausted dead-letter callback) is recorded
        once — the *first* error is the one ``finish()`` raises — and
        dispatch stops: later packets drain as counted drops
        (:attr:`post_error_drops`) instead of being fed into a broken
        engine, while producers stay unblocked.
        """
        queue = self._queue
        engine = self.engine
        while True:
            packet = await queue.get()
            try:
                if self._pump_error is not None:
                    self.post_error_drops += 1
                    continue
                try:
                    engine.process_packet(packet)
                except BaseException as exc:
                    if isinstance(exc, asyncio.CancelledError):
                        raise
                    if not isinstance(
                        exc, EngineClosedError
                    ) and self.error_policy.absorb(exc, packet):
                        continue  # degraded: counted, stream stays alive
                    # Surface at the next finish(); a dead pump must not
                    # hang producers on a forever-full queue.
                    self._pump_error = exc
                    self.post_error_drops += 1
                else:
                    self.dispatched += 1
                    self._finished = False
                    self._last_ts = packet.timestamp
                    if self._clock_offset is None:
                        self._clock_offset = self._clock() - packet.timestamp
            finally:
                queue.task_done()
                self._observe_depth()

    async def _flush_tick(self) -> None:
        """Advance engine timeouts on an estimated packet clock.

        The estimate anchors the wall clock to the first packet's
        timestamp, so live captures (whose timestamps *are* wall time)
        flush on schedule even during silence, while replayed traffic
        flushes on its own compressed clock.
        """
        while True:
            await asyncio.sleep(self.flush_interval)
            if not self._tick_once():
                return

    def _tick_once(self) -> bool:
        """Run one flush tick; False means ticking must stop.

        ``flush_timeouts`` failures are counted (:attr:`tick_errors`)
        and routed through :attr:`error_policy`: degrade/dead-letter
        keep the tick alive (the next tick retries), fail-fast records
        the error for ``finish()`` — never overwriting an earlier pump
        error — and disables further ticks.
        """
        if self._clock_offset is None or self._finished:
            return True
        now = self._clock() - self._clock_offset
        if self._last_ts is not None and now < self._last_ts:
            now = self._last_ts
        try:
            self.engine.flush_timeouts(now)
        except Exception as exc:
            self.tick_errors += 1
            if self._supervision is not None:
                self._supervision.tick_errors.inc()
            if not isinstance(
                exc, EngineClosedError
            ) and self.error_policy.absorb(exc, None):
                return True
            if self._pump_error is None:
                self._pump_error = exc
            return False
        return True


class _DriverStats:
    """Datagram decode accounting (duck-typed like ``PcapDecodeStats``)."""

    __slots__ = (
        "records", "packets", "bytes",
        "truncated_records", "skipped_frames", "decode_errors",
    )

    def __init__(self) -> None:
        self.records = 0
        self.packets = 0
        self.bytes = 0
        self.truncated_records = 0
        self.skipped_frames = 0
        self.decode_errors = 0
