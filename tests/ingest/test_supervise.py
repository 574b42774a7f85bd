"""Tests for the ingest supervision layer (retry/error policies, wrapper).

Every fault in this file is scripted through ``tests/ingest/faults.py``
and every backoff goes through an injected recorder — no wall-clock
sleeps, fully deterministic.
"""

import pytest

from repro.api import open_engine
from repro.engine import EngineClosedError
from repro.ingest import (
    ErrorPolicy,
    RetryPolicy,
    SupervisedSource,
)
from repro.obs import DEFAULT_BACKOFF_BUCKETS, MetricsRegistry
from tests.ingest.faults import FlakySource, RecordingSleep


class TestRetryPolicy:
    def test_backoff_is_exponential_with_cap(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_cap=0.5)
        delays = [policy.backoff(n) for n in range(1, 6)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_is_injectable_and_deterministic(self):
        seen = []

        def jitter(attempt, delay):
            seen.append((attempt, delay))
            return 0.01 * attempt

        policy = RetryPolicy(backoff_base=0.1, backoff_factor=1.0,
                             jitter=jitter)
        assert policy.backoff(1) == pytest.approx(0.11)
        assert policy.backoff(3) == pytest.approx(0.13)
        assert seen == [(1, 0.1), (3, 0.1)]

    def test_negative_jitter_clamps_to_zero(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=lambda n, d: -1.0)
        assert policy.backoff(1) == 0.0

    def test_backoff_attempt_is_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().backoff(0)

    def test_default_classification_only_retries_oserror(self):
        policy = RetryPolicy()
        assert policy.is_retryable(OSError("flap"))
        assert policy.is_retryable(ConnectionResetError("reset"))
        assert policy.is_retryable(TimeoutError("slow"))
        # Unknown exception types are bugs, not faults: never retried.
        assert not policy.is_retryable(ValueError("bug"))
        assert not policy.is_retryable(KeyError("bug"))

    def test_fatal_wins_over_retryable(self):
        policy = RetryPolicy(fatal=(ConnectionRefusedError,))
        assert policy.is_retryable(OSError("flap"))
        assert not policy.is_retryable(ConnectionRefusedError("down"))

    def test_custom_retryable_types(self):
        policy = RetryPolicy(retryable=(ValueError,))
        assert policy.is_retryable(ValueError("transient here"))
        assert not policy.is_retryable(OSError("not configured"))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_attempts": 0}, "max_attempts"),
            ({"backoff_base": -0.1}, "backoff_base"),
            ({"backoff_factor": 0.5}, "backoff_factor"),
            ({"backoff_base": 1.0, "backoff_cap": 0.5}, "backoff_cap"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            RetryPolicy(**kwargs)


class TestErrorPolicy:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown error-policy mode"):
            ErrorPolicy("explode")

    def test_dead_letter_requires_callback(self):
        with pytest.raises(ValueError, match="requires a dead_letter"):
            ErrorPolicy("dead-letter")

    def test_callback_only_valid_in_dead_letter_mode(self):
        with pytest.raises(ValueError, match="only meaningful"):
            ErrorPolicy("degrade", dead_letter=lambda p, e: None)

    def test_fail_fast_absorbs_nothing(self):
        policy = ErrorPolicy()
        exc = ValueError("boom")
        assert policy.absorb(exc, "pkt") is False
        assert policy.errors == 0
        assert policy.last_error is exc

    def test_degrade_counts_and_continues(self):
        policy = ErrorPolicy("degrade")
        assert policy.absorb(ValueError("a")) is True
        assert policy.absorb(ValueError("b")) is True
        assert policy.errors == 2
        assert policy.dead_lettered == 0

    def test_dead_letter_invokes_callback(self):
        letters = []
        policy = ErrorPolicy(
            "dead-letter", dead_letter=lambda p, e: letters.append((p, e))
        )
        exc = ValueError("boom")
        assert policy.absorb(exc, "pkt") is True
        assert letters == [("pkt", exc)]
        assert policy.errors == 1
        assert policy.dead_lettered == 1

    def test_coerce(self):
        assert ErrorPolicy.coerce(None).mode == "fail-fast"
        assert ErrorPolicy.coerce("degrade").mode == "degrade"
        policy = ErrorPolicy("degrade")
        assert ErrorPolicy.coerce(policy) is policy
        with pytest.raises(TypeError, match="on_error"):
            ErrorPolicy.coerce(123)


def _ints(n: int):
    """Stand-in packets: supervision never looks inside what it yields."""
    return list(range(n))


class TestSupervisedSource:
    def test_rejects_non_source(self):
        with pytest.raises(TypeError, match="PacketSource"):
            SupervisedSource(42)

    def test_clean_stream_passes_through(self):
        inner = FlakySource(_ints(5))
        supervised = SupervisedSource(inner)
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
        supervised = SupervisedSource(
            inner,
            policy=RetryPolicy(backoff_base=0.1, backoff_factor=2.0),
            sleep=sleep,
            registry=registry,
            name="test",
        )
        assert list(supervised) == _ints(10)
        assert supervised.restarts == 2
        assert supervised.delivered == 10
        assert supervised.consecutive_failures == 0
        # Isolated faults: the streak resets between them, so both
        # restarts back off at attempt 1.
        assert sleep.calls == pytest.approx([0.1, 0.1])
        assert inner.closes == 2  # broken source closed before each restart
        counter = registry.counter("ingest_restarts_total", source="test")
        assert counter.value == 2
        histogram = registry.histogram(
            "ingest_retry_backoff_seconds",
            buckets=DEFAULT_BACKOFF_BUCKETS,
            source="test",
        )
        assert histogram.count == 2
        gauge = registry.gauge("ingest_consecutive_failures", source="test")
        assert gauge.value == 0

    def test_consecutive_streak_within_budget_recovers(self):
        sleep = RecordingSleep()
        faults = [OSError("1"), OSError("2"), OSError("3")]
        inner = FlakySource(_ints(4), fail_at={2: faults})
        supervised = SupervisedSource(
            inner,
            policy=RetryPolicy(max_attempts=3, backoff_base=0.1,
                               backoff_factor=2.0),
            sleep=sleep,
        )
        assert list(supervised) == _ints(4)
        assert supervised.restarts == 3
        # One streak of three: backoff escalates across the streak.
        assert sleep.calls == pytest.approx([0.1, 0.2, 0.4])

    def test_exhausted_streak_raises_the_last_error(self):
        last = OSError("third strike")
        inner = FlakySource(
            _ints(4), fail_at={2: [OSError("1"), OSError("2"), last]}
        )
        supervised = SupervisedSource(
            inner, policy=RetryPolicy(max_attempts=2, backoff_base=0.0)
        )
        with pytest.raises(OSError) as exc_info:
            list(supervised)
        assert exc_info.value is last
        assert supervised.restarts == 2
        assert supervised.consecutive_failures == 3
        assert supervised.last_error is last

    def test_fatal_error_raises_immediately(self):
        bug = ValueError("a bug, not a fault")
        inner = FlakySource(_ints(4), fail_at={2: bug})
        supervised = SupervisedSource(inner)
        with pytest.raises(ValueError) as exc_info:
            list(supervised)
        assert exc_info.value is bug
        assert supervised.restarts == 0
        assert supervised.delivered == 2

    def test_zero_backoff_never_calls_sleep(self):
        sleep = RecordingSleep()
        inner = FlakySource(_ints(3), fail_at={1: OSError("flap")})
        supervised = SupervisedSource(
            inner, policy=RetryPolicy(backoff_base=0.0), sleep=sleep
        )
        assert list(supervised) == _ints(3)
        assert sleep.calls == []

    def test_skip_delivered_makes_restart_from_start_exactly_once(self):
        # resume=False models a pcap file: every pass starts from packet 0.
        inner = FlakySource(_ints(6), fail_at={3: OSError("flap")},
                            resume=False)
        supervised = SupervisedSource(
            inner, policy=RetryPolicy(backoff_base=0.0), skip_delivered=True
        )
        assert list(supervised) == _ints(6)
        assert supervised.delivered == 6
        assert inner.passes == 2

    def test_without_skip_delivered_replays_duplicate(self):
        # The hazard skip_delivered exists for, pinned as a test.
        inner = FlakySource(_ints(6), fail_at={3: OSError("flap")},
                            resume=False)
        supervised = SupervisedSource(
            inner, policy=RetryPolicy(backoff_base=0.0)
        )
        assert list(supervised) == _ints(3) + _ints(6)

    def test_factory_reconnects_with_a_fresh_source(self):
        scripts = [{3: OSError("flap")}, None]
        created = []

        def factory():
            created.append(
                FlakySource(_ints(6), scripts[len(created)], resume=False)
            )
            return created[-1]

        supervised = SupervisedSource(
            factory,
            policy=RetryPolicy(backoff_base=0.0),
            skip_delivered=True,
        )
        assert list(supervised) == _ints(6)
        assert len(created) == 2
        assert created[0].closes == 1  # the broken one was closed
        assert supervised.inner is created[1]

    def test_close_is_terminal(self):
        inner = FlakySource(_ints(5))
        supervised = SupervisedSource(inner)
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
        with SupervisedSource(inner) as supervised:
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
        with open_engine(trained_cart) as engine:
            supervised = SupervisedSource(
                FlakySource(small_trace.packets, fail_at=faults),
                policy=RetryPolicy(max_attempts=3, backoff_base=0.05),
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
        # Zero loss, identical labels and counters, one restart per fault.
        assert labels == labels_clean
        assert counters == counters_clean
        assert supervised.restarts == len(faults)
        assert restarts == len(faults)
        assert supervised.delivered == len(small_trace.packets)
        assert len(sleep.calls) == len(faults)

    def test_degrade_counts_dispatch_errors_and_continues(
        self, trained_cart, small_trace
    ):
        with open_engine(trained_cart) as engine:
            real = engine.process_packet
            calls = {"n": 0}

            def flaky(packet):
                calls["n"] += 1
                if calls["n"] in (5, 17):
                    raise ValueError("poisoned packet")
                return real(packet)

            engine.process_packet = flaky
            policy = ErrorPolicy("degrade")
            stats = engine.process_source(
                small_trace.packets, on_error=policy
            )
            assert policy.errors == 2
            assert stats.packets == len(small_trace.packets) - 2
            assert engine.metrics.counter(
                "ingest_dispatch_errors_total", source="engine"
            ).value == 2

    def test_dead_letter_receives_the_failing_packets(
        self, trained_cart, small_trace
    ):
        letters = []
        with open_engine(trained_cart) as engine:
            real = engine.process_packet
            calls = {"n": 0}

            def flaky(packet):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise ValueError("poisoned packet")
                return real(packet)

            engine.process_packet = flaky
            policy = ErrorPolicy(
                "dead-letter",
                dead_letter=lambda p, e: letters.append((p, e)),
            )
            engine.process_source(small_trace.packets, on_error=policy)
        assert len(letters) == 1
        assert letters[0][0] is small_trace.packets[2]
        assert policy.dead_lettered == 1

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
        with open_engine(trained_cart) as engine:
            def flaky(packet):
                raise EngineClosedError("engine is closed")

            engine.process_packet = flaky
            policy = ErrorPolicy("degrade")
            with pytest.raises(EngineClosedError):
                engine.process_source(
                    small_trace.packets, on_error=policy
                )
            assert policy.errors == 0  # a usage bug, not a stream fault

    def test_source_iterator_errors_are_not_absorbed(
        self, trained_cart, small_trace
    ):
        flap = OSError("source died")
        with open_engine(trained_cart) as engine:
            source = FlakySource(small_trace.packets, fail_at={5: flap})
            policy = ErrorPolicy("degrade")
            with pytest.raises(OSError) as exc_info:
                engine.process_source(source, on_error=policy)
            assert exc_info.value is flap
            assert policy.errors == 0

    def test_rejects_bad_on_error(self, trained_cart, small_trace):
        with open_engine(trained_cart) as engine:
            with pytest.raises(TypeError, match="on_error"):
                engine.process_source(small_trace.packets, on_error=123)
