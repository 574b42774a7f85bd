"""Tests for the asyncio ingest driver."""

import asyncio
import socket

import pytest

from repro.api import open_engine
from repro.core.config import EngineConfig
from repro.ingest import AsyncIngestDriver
from repro.obs import MetricsRegistry


def _labels(stats):
    return {c.key: c.label for c in stats.classified}


def _counters(stats):
    return (
        stats.packets,
        stats.classifications,
        stats.cdb_hits,
        stats.unclassifiable,
        stats.fin_removals,
        stats.reclassifications,
    )


def _offline(trained_cart, small_trace, config=None):
    """Baseline run doing exactly what the driver does: dispatch + finish.

    (``process_trace`` additionally flushes timeouts at every sample
    tick, which classifies some flows earlier and shifts their later
    packets into CDB hits — a different packet-clock schedule, not a
    different result.)
    """
    with open_engine(trained_cart, config) as engine:
        for packet in small_trace.packets:
            engine.process_packet(packet)
        engine.finish(small_trace.packets[-1].timestamp)
        stats = engine.stats
        return _labels(stats), _counters(stats)


class TestValidation:
    def test_rejects_bad_max_inflight(self, trained_cart):
        with open_engine(trained_cart) as engine:
            with pytest.raises(ValueError, match="max_inflight"):
                AsyncIngestDriver(engine, max_inflight=0)

    def test_rejects_bad_flush_interval(self, trained_cart):
        with open_engine(trained_cart) as engine:
            with pytest.raises(ValueError, match="flush_interval"):
                AsyncIngestDriver(engine, flush_interval=0)


class TestDeterminism:
    def test_datagram_run_matches_offline_trace(
        self, trained_cart, small_trace
    ):
        offline_labels, offline_counters = _offline(trained_cart, small_trace)

        async def run():
            registry = MetricsRegistry()
            with open_engine(trained_cart) as engine:
                driver = AsyncIngestDriver(
                    engine, flush_interval=None, registry=registry
                )
                for packet in small_trace.packets:
                    assert await driver.feed_datagram(
                        packet.to_bytes(), timestamp=packet.timestamp
                    )
                stats = await driver.finish()
                labels, counters = _labels(stats), _counters(stats)
                await driver.close()
                return labels, counters, driver

        labels, counters, driver = asyncio.run(run())
        assert labels == offline_labels
        assert counters == offline_counters
        assert driver.dispatched == len(small_trace.packets)
        assert driver.dropped == 0

    def test_finish_idempotent_and_close_idempotent(
        self, trained_cart, small_trace
    ):
        async def run():
            with open_engine(trained_cart) as engine:
                driver = AsyncIngestDriver(engine, flush_interval=None)
                for packet in small_trace.packets[:50]:
                    await driver.feed(packet)
                first = await driver.finish()
                # A second finish with no packets in between must not
                # re-drain the engine (which would raise) — it reports
                # the same stats.
                second = await driver.finish()
                assert _counters(first) == _counters(second)
                await driver.close()
                await driver.close()  # idempotent
                with pytest.raises(RuntimeError, match="closed"):
                    await driver.feed(small_trace.packets[0])

        asyncio.run(run())


class TestBackpressure:
    def test_max_inflight_one_matches_offline(self, trained_cart, small_trace):
        offline = _offline(trained_cart, small_trace)

        async def run():
            with open_engine(trained_cart) as engine:
                # A one-slot in-flight buffer: every feed() after the
                # first awaits the pump, so the run only completes if
                # blocking backpressure propagates correctly end to end.
                driver = AsyncIngestDriver(
                    engine, max_inflight=1, flush_interval=None
                )
                for packet in small_trace.packets:
                    await driver.feed(packet)
                stats = await driver.finish()
                await driver.close()
                return _labels(stats), _counters(stats)

        assert asyncio.run(run()) == offline

    def test_nowait_feed_drops_when_inflight_full(
        self, trained_cart, small_trace
    ):
        async def run():
            with open_engine(trained_cart) as engine:
                driver = AsyncIngestDriver(
                    engine, max_inflight=1, flush_interval=None
                )
                first, second = small_trace.packets[:2]
                # Without yielding to the loop the pump never runs, so
                # the single in-flight slot stays occupied.
                assert driver.feed_datagram_nowait(
                    first.to_bytes(), timestamp=first.timestamp
                )
                assert not driver.feed_datagram_nowait(
                    second.to_bytes(), timestamp=second.timestamp
                )
                assert driver.dropped == 1
                await driver.finish()
                await driver.close()

        asyncio.run(run())


class TestDecodeErrors:
    def test_bad_datagram_counted_not_fatal(self, trained_cart, small_trace):
        async def run():
            with open_engine(trained_cart) as engine:
                driver = AsyncIngestDriver(engine, flush_interval=None)
                assert not await driver.feed_datagram(b"\x00\x01garbage")
                packet = small_trace.packets[0]
                assert await driver.feed_datagram(
                    packet.to_bytes(), timestamp=packet.timestamp
                )
                await driver.finish()
                assert driver.stats.decode_errors == 1
                assert driver.stats.packets == 1
                await driver.close()

        asyncio.run(run())


class TestDatagramEndpoint:
    def test_udp_endpoint_feeds_engine(self, trained_cart, small_trace):
        packets = small_trace.packets[:20]

        async def run():
            with open_engine(trained_cart) as engine:
                driver = AsyncIngestDriver(engine, flush_interval=None)
                transport = await driver.open_datagram_endpoint(
                    "127.0.0.1", 0
                )
                host, port = transport.get_extra_info("sockname")[:2]
                sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                try:
                    for packet in packets:
                        sender.sendto(packet.to_bytes(), (host, port))
                    deadline = (
                        asyncio.get_running_loop().time() + 10.0
                    )
                    while driver.stats.packets < len(packets):
                        if asyncio.get_running_loop().time() > deadline:
                            raise AssertionError(
                                "endpoint delivered "
                                f"{driver.stats.packets}/{len(packets)}"
                            )
                        await asyncio.sleep(0.01)
                finally:
                    sender.close()
                    transport.close()
                stats = await driver.finish()
                assert stats.packets == len(packets)
                await driver.close()

        asyncio.run(run())


class TestFlushTick:
    def test_wall_clock_tick_flushes_pending_flows(
        self, trained_cart, small_trace
    ):
        config = EngineConfig(buffer_timeout=0.2)

        async def run():
            with open_engine(trained_cart, config) as engine:
                driver = AsyncIngestDriver(engine, flush_interval=0.05)
                # Feed a prefix, then go silent: with no more packets the
                # packet clock stalls, so only the wall-clock tick can
                # time the pending flows out before finish().
                for packet in small_trace.packets[:40]:
                    await driver.feed(packet)

                def handled() -> int:
                    stats = engine.stats
                    return stats.classifications + stats.unclassifiable

                deadline = asyncio.get_running_loop().time() + 10.0
                while not handled():
                    if asyncio.get_running_loop().time() > deadline:
                        raise AssertionError("tick never flushed timeouts")
                    await asyncio.sleep(0.02)
                await driver.finish()
                await driver.close()

        asyncio.run(run())


# -- fault paths (driven by the scripted harness in faults.py) ----------------

from types import SimpleNamespace

from repro.engine import EngineClosedError
from repro.obs import MetricsRegistry as _Registry
from tests.ingest.faults import FlakyEngine


def _pkt(i: int):
    """The pump only reads ``.timestamp``; a stub packet is enough."""
    return SimpleNamespace(timestamp=float(i))


class TestPumpErrorPolicy:
    def test_fail_fast_preserves_first_error_and_counts_drops(self):
        boom = RuntimeError("engine broke")
        engine = FlakyEngine(fail_at={1: boom})

        async def run():
            driver = AsyncIngestDriver(engine, flush_interval=None)
            packets = [_pkt(i) for i in range(5)]
            for packet in packets:
                await driver.feed(packet)
            with pytest.raises(RuntimeError) as exc_info:
                await driver.finish()
            # The FIRST error surfaces, dispatch stopped at it, and every
            # later queued packet drained as a counted drop.
            assert exc_info.value is boom
            assert engine.calls == 2          # p0 ok, p1 raised, p2-4 never
            assert engine.processed == [packets[0]]
            assert driver.dispatched == 1
            assert driver.post_error_drops == 4
            # The pump survives: the stream resumes after the error is
            # reported, instead of hanging producers forever.
            await driver.feed(_pkt(5))
            stats = await driver.finish()
            assert stats is engine.stats
            assert engine.calls == 3
            assert driver.post_error_drops == 4
            await driver.close()

        asyncio.run(run())

    def test_degrade_keeps_dispatching(self):
        engine = FlakyEngine(
            fail_at={1: ValueError("bad"), 3: ValueError("bad")}
        )

        async def run():
            driver = AsyncIngestDriver(
                engine, flush_interval=None, on_error="degrade"
            )
            for i in range(5):
                await driver.feed(_pkt(i))
            stats = await driver.finish()
            assert stats is engine.stats
            assert engine.calls == 5
            assert driver.dispatched == 3
            assert driver.error_policy.errors == 2
            assert driver.post_error_drops == 0
            assert engine.finishes == [4.0]
            await driver.close()

        asyncio.run(run())

    def test_dead_letter_callback_receives_packets(self):
        boom = ValueError("bad")
        engine = FlakyEngine(fail_at={2: boom})
        letters = []

        async def run():
            from repro.ingest import ErrorPolicy

            driver = AsyncIngestDriver(
                engine,
                flush_interval=None,
                on_error=ErrorPolicy(
                    "dead-letter",
                    dead_letter=lambda p, e: letters.append((p, e)),
                ),
            )
            packets = [_pkt(i) for i in range(4)]
            for packet in packets:
                await driver.feed(packet)
            await driver.finish()
            assert letters == [(packets[2], boom)]
            assert driver.error_policy.dead_lettered == 1
            await driver.close()

        asyncio.run(run())

    def test_engine_closed_error_is_never_absorbed(self):
        engine = FlakyEngine(fail_at={0: EngineClosedError("closed")})

        async def run():
            driver = AsyncIngestDriver(
                engine, flush_interval=None, on_error="degrade"
            )
            await driver.feed(_pkt(0))
            with pytest.raises(EngineClosedError):
                await driver.finish()
            assert driver.error_policy.errors == 0
            await driver.close()

        asyncio.run(run())


class TestEmptyStreamFinish:
    def test_zero_packet_finish_still_ends_the_stream(self):
        engine = FlakyEngine()

        async def run():
            driver = AsyncIngestDriver(engine, flush_interval=None)
            await driver.finish()
            assert engine.finishes == [0.0]
            await driver.finish()  # idempotent: no second drain
            assert engine.finishes == [0.0]
            await driver.close()

        asyncio.run(run())

    def test_zero_packet_finish_uses_caller_epoch(self):
        engine = FlakyEngine()

        async def run():
            driver = AsyncIngestDriver(engine, flush_interval=None)
            await driver.finish(final_ts=42.5)
            assert engine.finishes == [42.5]
            await driver.close()

        asyncio.run(run())

    def test_final_ts_ignored_once_packets_dispatched(self):
        engine = FlakyEngine()

        async def run():
            driver = AsyncIngestDriver(engine, flush_interval=None)
            await driver.feed(_pkt(7))
            await driver.finish(final_ts=99.0)
            assert engine.finishes == [7.0]
            await driver.close()

        asyncio.run(run())

    def test_zero_packet_finish_with_real_engine(self, trained_cart):
        async def run():
            with open_engine(trained_cart) as engine:
                driver = AsyncIngestDriver(engine, flush_interval=None)
                stats = await driver.finish()
                assert stats.packets == 0
                await driver.close()

        asyncio.run(run())


class TestTickErrors:
    """The tick path is synchronous (`_tick_once`), so no loop is needed."""

    def _driver(self, engine, **kwargs):
        driver = AsyncIngestDriver(engine, flush_interval=None, **kwargs)
        # Simulate "first packet dispatched at ts=1.0, wall anchor 0".
        driver._clock_offset = 0.0
        driver._last_ts = 1.0
        return driver

    def test_tick_skips_before_first_packet(self):
        engine = FlakyEngine()
        driver = AsyncIngestDriver(
            engine, flush_interval=None, clock=lambda: 100.0
        )
        assert driver._tick_once() is True
        assert engine.flush_calls == 0

    def test_tick_flushes_on_estimated_packet_clock(self):
        engine = FlakyEngine()
        driver = self._driver(engine, clock=lambda: 50.0)
        assert driver._tick_once() is True
        assert engine.flushes == [50.0]

    def test_tick_clamps_to_packet_clock(self):
        engine = FlakyEngine()
        driver = self._driver(engine, clock=lambda: 10.0)
        driver._last_ts = 20.0  # replay ran ahead of the wall clock
        assert driver._tick_once() is True
        assert engine.flushes == [20.0]

    def test_fail_fast_tick_records_error_and_stops(self):
        boom = RuntimeError("flush broke")
        registry = _Registry()
        engine = FlakyEngine(flush_script=[boom])
        driver = self._driver(engine, clock=lambda: 5.0, registry=registry)
        assert driver._tick_once() is False
        assert driver.tick_errors == 1
        assert driver._pump_error is boom
        counter = registry.counter(
            "ingest_flush_tick_errors_total", source="async-driver"
        )
        assert counter.value == 1

    def test_tick_never_overwrites_an_earlier_pump_error(self):
        first = ValueError("the real first error")
        engine = FlakyEngine(flush_script=[RuntimeError("later")])
        driver = self._driver(engine, clock=lambda: 5.0)
        driver._pump_error = first
        assert driver._tick_once() is False
        assert driver._pump_error is first

    def test_degrade_tick_survives_and_retries(self):
        engine = FlakyEngine(flush_script=[RuntimeError("once"), None])
        driver = self._driver(
            engine, clock=lambda: 5.0, on_error="degrade"
        )
        assert driver._tick_once() is True   # error absorbed, tick lives
        assert driver._tick_once() is True   # next tick succeeds
        assert driver.tick_errors == 1
        assert engine.flush_calls == 2
        assert driver.error_policy.errors == 1
        assert driver._pump_error is None

    def test_engine_closed_tick_error_is_fatal(self):
        engine = FlakyEngine(flush_script=[EngineClosedError("closed")])
        driver = self._driver(engine, clock=lambda: 5.0, on_error="degrade")
        assert driver._tick_once() is False
        assert isinstance(driver._pump_error, EngineClosedError)
