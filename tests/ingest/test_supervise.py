"""Tests for ingest supervision and ``process_source(on_error=...)``.

Every fault in this file is scripted through ``tests/ingest/faults.py``
and every backoff goes through an injected recorder — no wall-clock
sleeps, fully deterministic.
"""

import pytest

from repro.api import open_engine
from repro.cli import _ON_ERROR, build_parser
from repro.engine import EngineClosedError
from repro.ingest import PcapFileSource, SupervisedSource
from repro.net.packet import Ipv4Header, Packet, UdpHeader
from repro.net.pcap import PcapError, write_pcap
from repro.obs import MetricsRegistry
from tests.ingest.faults import FlakySource, RecordingSleep


def _ints(n: int):
    """Stand-in packets: supervision never looks inside what it yields."""
    return list(range(n))


def _udp_packets(n: int) -> "list[Packet]":
    return [
        Packet(
            ip=Ipv4Header(src="10.0.0.1", dst="10.0.0.2", protocol=17),
            transport=UdpHeader(src_port=1000 + i, dst_port=53),
            payload=b"abcdefgh",
            timestamp=float(i),
        )
        for i in range(n)
    ]


def _supervise(inner, **kwargs) -> SupervisedSource:
    """Supervise one re-iterable FlakySource (each pass restarts at 0)."""
    return SupervisedSource(lambda: inner, **kwargs)


def _fail_dispatch(engine, at, exc_type=ValueError):
    """Make ``engine.runtime.dispatch`` raise on the given 1-based calls.

    The fault fires after ``process_packet`` counted the packet, the
    way a real dispatch fault would.
    """
    real = engine.runtime.dispatch
    calls = {"n": 0}

    def flaky(*args):
        calls["n"] += 1
        if calls["n"] in at:
            raise exc_type("poisoned packet")
        return real(*args)

    engine.runtime.dispatch = flaky


class TestRetryPolicy:
    """The one retry policy: ``OSError`` restarts, anything else is
    fatal, and restart *n* of a streak waits ``min(5, 0.05 * 2**(n-1))``."""

    def test_backoff_is_exponential_with_cap(self):
        sleep = RecordingSleep()
        inner = FlakySource(_ints(2), fail_at={1: [OSError()] * 9})
        supervised = _supervise(inner, max_attempts=9, sleep=sleep)
        assert list(supervised) == _ints(2)
        assert sleep.calls == pytest.approx(
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0]
        )

    def test_backoff_attempt_is_one_based(self):
        # Every streak starts over at the base delay, not half of it.
        sleep = RecordingSleep()
        inner = FlakySource(_ints(6), fail_at={2: OSError(), 4: OSError()})
        assert list(_supervise(inner, sleep=sleep)) == _ints(6)
        assert sleep.calls == pytest.approx([0.05, 0.05])

    def test_default_classification_only_retries_oserror(self):
        for exc in (OSError("flap"), ConnectionResetError("reset"),
                    TimeoutError("slow")):
            supervised = _supervise(
                FlakySource(_ints(3), fail_at={1: exc}), sleep=RecordingSleep()
            )
            assert list(supervised) == _ints(3)
            assert supervised.restarts == 1
        # Unknown exception types are bugs, not faults: never retried,
        # and a damaged capture (a ValueError) is not a transient fault.
        for exc in (ValueError("bug"), KeyError("bug"),
                    PcapError("damaged capture")):
            supervised = _supervise(FlakySource(_ints(3), fail_at={1: exc}))
            with pytest.raises(type(exc)):
                list(supervised)
            assert supervised.restarts == 0

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"max_attempts": 0}, "max_attempts"),
         ({"max_attempts": -1}, "max_attempts")],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SupervisedSource(lambda: FlakySource([]), **kwargs)


class TestErrorPolicy:
    """The three ``classify --on-error`` modes and their callables."""

    def test_fail_fast_absorbs_nothing(self):
        assert _ON_ERROR["fail-fast"] is None

    def test_degrade_counts_and_continues(self, trained_cart, small_trace):
        with open_engine(trained_cart) as engine:
            _fail_dispatch(engine, at=(2,))
            stats = engine.process_source(
                small_trace.packets, on_error=_ON_ERROR["degrade"]
            )
        assert stats.dispatch_errors == 1
        assert stats.packets == len(small_trace.packets)

    def test_dead_letter_invokes_callback(self, small_trace, capsys):
        packet = small_trace.packets[0]
        _ON_ERROR["dead-letter"](packet, ValueError("boom"))
        err = capsys.readouterr().err
        assert err == f"dead-letter: {packet.five_tuple}: boom\n"

    def test_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["classify", "m.json", "x.pcap", "--on-error", "explode"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestSupervisedSource:
    def test_rejects_non_source(self):
        # A source object is not a factory: there is no live-source form.
        with pytest.raises(TypeError, match="factory"):
            SupervisedSource(FlakySource(_ints(3)))

    def test_clean_stream_passes_through(self):
        inner = FlakySource(_ints(5))
        supervised = _supervise(inner)
        assert list(supervised) == _ints(5)
        assert supervised.restarts == 0
        assert supervised.delivered == 5
        assert inner.passes == 1

    def test_transient_faults_recovered_with_zero_loss(self):
        sleep = RecordingSleep()
        registry = MetricsRegistry()
        inner = FlakySource(
            _ints(10), fail_at={3: OSError("flap"), 7: OSError("flap")}
        )
        supervised = _supervise(
            inner, sleep=sleep, registry=registry, name="test"
        )
        assert list(supervised) == _ints(10)
        assert supervised.restarts == 2
        assert supervised.delivered == 10
        assert supervised.consecutive_failures == 0
        # Isolated faults: the streak resets between them, so both
        # restarts back off at attempt 1.
        assert sleep.calls == pytest.approx([0.05, 0.05])
        assert inner.passes == 3
        assert inner.closes == 2  # broken pass closed before each restart
        counter = registry.counter("ingest_restarts_total", source="test")
        assert counter.value == 2
        gauge = registry.gauge("ingest_consecutive_failures", source="test")
        assert gauge.value == 0

    def test_consecutive_streak_within_budget_recovers(self):
        sleep = RecordingSleep()
        faults = [OSError("1"), OSError("2"), OSError("3")]
        inner = FlakySource(_ints(4), fail_at={2: faults})
        supervised = _supervise(inner, max_attempts=3, sleep=sleep)
        assert list(supervised) == _ints(4)
        assert supervised.restarts == 3
        # One streak of three: backoff escalates across the streak.
        assert sleep.calls == pytest.approx([0.05, 0.1, 0.2])

    def test_exhausted_streak_raises_the_last_error(self):
        last = OSError("third strike")
        inner = FlakySource(
            _ints(4), fail_at={2: [OSError("1"), OSError("2"), last]}
        )
        supervised = _supervise(inner, max_attempts=2, sleep=RecordingSleep())
        with pytest.raises(OSError) as exc_info:
            list(supervised)
        assert exc_info.value is last
        assert supervised.restarts == 2
        assert supervised.consecutive_failures == 3

    def test_fatal_error_raises_immediately(self):
        bug = ValueError("a bug, not a fault")
        inner = FlakySource(_ints(4), fail_at={2: bug})
        supervised = _supervise(inner)
        with pytest.raises(ValueError) as exc_info:
            list(supervised)
        assert exc_info.value is bug
        assert supervised.restarts == 0
        assert supervised.delivered == 2

    def test_restart_from_start_is_exactly_once(self):
        # Every pass replays from packet 0; the supervisor drops the
        # prefix it already delivered, so nothing is yielded twice.
        inner = FlakySource(_ints(6), fail_at={3: OSError("flap")})
        supervised = _supervise(inner, sleep=RecordingSleep())
        assert list(supervised) == _ints(6)
        assert supervised.delivered == 6
        assert inner.passes == 2

    def test_factory_reconnects_with_a_fresh_source(self):
        scripts = [{3: OSError("flap")}, None]
        created = []

        def factory():
            created.append(FlakySource(_ints(6), scripts[len(created)]))
            return created[-1]

        supervised = SupervisedSource(factory, sleep=RecordingSleep())
        assert list(supervised) == _ints(6)
        assert len(created) == 2
        assert created[0].closes == 1  # the broken one was closed

    def test_factory_oserror_is_retried(self, tmp_path):
        """A capture that cannot be opened yet is backed off and re-opened."""
        path = tmp_path / "rotating.pcap"
        packets = _udp_packets(12)
        write_pcap(path, packets)
        sleep = RecordingSleep()
        calls = []

        def factory():
            calls.append(1)
            if len(calls) == 1:
                raise OSError("capture rotating")
            return PcapFileSource(path)

        supervised = SupervisedSource(factory, sleep=sleep)
        delivered = list(supervised)
        assert [p.five_tuple for p in delivered] == [
            p.five_tuple for p in packets
        ]
        assert supervised.restarts == 1
        assert supervised.consecutive_failures == 0
        assert sleep.calls == pytest.approx([0.05])

    def test_factory_bug_raises_at_once(self):
        bug = TypeError("factory bug")

        def factory():
            raise bug

        sleep = RecordingSleep()
        supervised = SupervisedSource(factory, sleep=sleep)
        with pytest.raises(TypeError) as exc_info:
            list(supervised)
        assert exc_info.value is bug
        assert supervised.restarts == 0
        assert sleep.calls == []

    def test_close_is_terminal(self):
        inner = FlakySource(_ints(5))
        supervised = _supervise(inner)
        iterator = iter(supervised)
        assert next(iterator) == 0
        supervised.close()
        assert list(iterator) == []
        assert list(supervised) == []
        assert inner.closes == 1
        supervised.close()  # idempotent
        assert inner.closes == 1

    def test_context_manager_closes(self):
        inner = FlakySource(_ints(2))
        with _supervise(inner) as supervised:
            assert list(supervised) == _ints(2)
        assert inner.closes == 1


class TestEngineProcessSourceOnError:
    """The acceptance contract: supervised faulty runs match clean runs."""

    def _run_clean(self, trained_cart, small_trace):
        with open_engine(trained_cart) as engine:
            stats = engine.process_source(small_trace.packets)
            return (
                {c.key: c.label for c in stats.classified},
                (stats.packets, stats.classifications, stats.cdb_hits,
                 stats.unclassifiable),
            )

    def test_supervised_faulty_run_matches_clean_run(
        self, trained_cart, small_trace
    ):
        labels_clean, counters_clean = self._run_clean(
            trained_cart, small_trace
        )
        faults = {10: OSError("flap"), 60: OSError("flap"),
                  110: OSError("flap")}
        sleep = RecordingSleep()
        inner = FlakySource(small_trace.packets, fail_at=faults)
        with open_engine(trained_cart) as engine:
            supervised = SupervisedSource(
                lambda: inner,
                sleep=sleep,
                registry=engine.metrics,
                name="acceptance",
            )
            stats = engine.process_source(supervised)
            labels = {c.key: c.label for c in stats.classified}
            counters = (stats.packets, stats.classifications, stats.cdb_hits,
                        stats.unclassifiable)
            restarts = engine.metrics.counter(
                "ingest_restarts_total", source="acceptance"
            ).value
        # Zero loss, nothing twice, identical labels and counters, one
        # restart per fault.
        assert labels == labels_clean
        assert counters == counters_clean
        assert supervised.restarts == len(faults)
        assert restarts == len(faults)
        assert supervised.delivered == len(small_trace.packets)
        assert stats.dispatch_errors == 0
        assert sleep.calls == pytest.approx([0.05] * len(faults))

    def test_degrade_counts_dispatch_errors_and_continues(
        self, trained_cart, small_trace
    ):
        with open_engine(trained_cart) as engine:
            _fail_dispatch(engine, at=(5, 17))
            stats = engine.process_source(
                small_trace.packets, on_error=lambda packet, exc: None
            )
            assert stats.packets == len(small_trace.packets)
            assert stats.dispatch_errors == 2
            # The counter reads stats.dispatch_errors at scrape time.
            snapshot = engine.metrics.snapshot()
            assert snapshot["engine_dispatch_errors_total"] == 2

    def test_dead_letter_receives_the_failing_packets(
        self, trained_cart, small_trace
    ):
        letters = []
        faults = (3, 40, 41)
        with open_engine(trained_cart) as engine:
            _fail_dispatch(engine, at=faults)
            stats = engine.process_source(
                small_trace.packets,
                on_error=lambda packet, exc: letters.append((packet, exc)),
            )
        assert [packet for packet, _ in letters] == [
            small_trace.packets[n - 1] for n in faults
        ]
        assert all(str(exc) == "poisoned packet" for _, exc in letters)
        assert stats.packets == len(small_trace.packets)
        assert stats.dispatch_errors == len(faults)

    def test_fail_fast_raises_first_dispatch_error(
        self, trained_cart, small_trace
    ):
        bug = ValueError("poisoned packet")
        with open_engine(trained_cart) as engine:
            def flaky(packet):
                raise bug

            engine.process_packet = flaky
            with pytest.raises(ValueError) as exc_info:
                engine.process_source(small_trace.packets)
            assert exc_info.value is bug

    def test_engine_closed_error_is_never_absorbed(
        self, trained_cart, small_trace
    ):
        letters = []
        with open_engine(trained_cart) as engine:
            _fail_dispatch(engine, at=(1,), exc_type=EngineClosedError)
            with pytest.raises(EngineClosedError):
                engine.process_source(
                    small_trace.packets,
                    on_error=lambda packet, exc: letters.append(exc),
                )
            # A usage bug, not a stream fault.
            assert letters == []
            assert engine.stats.dispatch_errors == 0

    def test_source_iterator_errors_are_not_absorbed(
        self, trained_cart, small_trace
    ):
        flap = OSError("source died")
        letters = []
        with open_engine(trained_cart) as engine:
            source = FlakySource(small_trace.packets, fail_at={5: flap})
            with pytest.raises(OSError) as exc_info:
                engine.process_source(
                    source, on_error=lambda packet, exc: letters.append(exc)
                )
            assert exc_info.value is flap
            assert letters == []

    def test_rejects_bad_on_error(self, trained_cart, small_trace):
        # A mode string is not a callable: the policy names are the CLI's.
        with open_engine(trained_cart) as engine:
            for on_error in (123, "degrade"):
                with pytest.raises(TypeError, match="on_error"):
                    engine.process_source(
                        small_trace.packets, on_error=on_error
                    )
