"""Unit tests for the execution-runtime layer (repro.runtime)."""

from types import SimpleNamespace

import pytest

from repro.core.config import EngineConfig, IustitiaConfig
from repro.engine import StagedEngine
from repro.runtime import (
    RUNTIMES,
    SerialRuntime,
    available,
    make_runtime,
    register,
)


def _spec(runtime):
    """A minimal EngineConfig stand-in for make_runtime."""
    return SimpleNamespace(runtime=runtime)


class TestMakeRuntime:
    def test_builtin_names_resolve(self):
        assert isinstance(make_runtime(_spec("serial")), SerialRuntime)

    def test_registry_covers_builtin_names(self):
        assert set(RUNTIMES) == {"serial"}
        assert available() == ("serial",)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_deleted_runtimes_are_unknown_names(self, name):
        with pytest.raises(ValueError, match="expected one of serial"):
            make_runtime(_spec(name))

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown runtime 'fiber'"):
            make_runtime(_spec("fiber"))

    def test_non_callable_spec_raises_type_error(self):
        with pytest.raises(TypeError, match="registry name or a factory"):
            make_runtime(_spec(42))

    def test_custom_factory_callable(self):
        seen = {}

        def factory(engine_config):
            seen["config"] = engine_config
            return SerialRuntime()

        spec = _spec(factory)
        runtime = make_runtime(spec)
        assert isinstance(runtime, SerialRuntime)
        assert seen["config"] is spec


class TestRegisterApi:
    """repro.runtime.register / available — the third-party entry point."""

    def test_registered_name_resolves_and_lists(
        self, trained_cart, small_trace
    ):
        class FiberRuntime(SerialRuntime):
            name = "fiber"

        factory = lambda engine_config: FiberRuntime()  # noqa: E731
        register("fiber", factory)
        try:
            assert "fiber" in available()
            assert isinstance(make_runtime(_spec("fiber")), FiberRuntime)
            # EngineConfig validation resolves through the same registry.
            assert EngineConfig(runtime="fiber").runtime == "fiber"
            # ...and the registered runtime drives an engine end to end.
            pipeline = IustitiaConfig(buffer_size=32)
            with StagedEngine(
                trained_cart, EngineConfig(runtime="fiber", pipeline=pipeline)
            ) as engine:
                assert isinstance(engine.runtime, FiberRuntime)
                stats = engine.process_trace(small_trace)
            serial_stats = StagedEngine(
                trained_cart, EngineConfig(pipeline=pipeline)
            ).process_trace(small_trace)
            assert stats.classifications > 0
            assert {c.key: c.label for c in stats.classified} == {
                c.key: c.label for c in serial_stats.classified
            }
        finally:
            RUNTIMES.pop("fiber", None)

    def test_reregister_same_factory_is_idempotent(self):
        factory = lambda engine_config: SerialRuntime()  # noqa: E731
        register("fiber", factory)
        try:
            register("fiber", factory)
        finally:
            RUNTIMES.pop("fiber", None)

    def test_shadowing_a_registered_name_is_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register("serial", lambda engine_config: SerialRuntime())

    def test_invalid_name_or_factory_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register("", lambda engine_config: SerialRuntime())
        with pytest.raises(TypeError, match="callable"):
            register("fiber2", "not-a-factory")

    def test_unknown_name_error_lists_available(self):
        register("fiber3", lambda engine_config: SerialRuntime())
        try:
            with pytest.raises(ValueError, match="fiber3, serial"):
                make_runtime(_spec("fiber"))
        finally:
            RUNTIMES.pop("fiber3", None)


class TestEngineIntegration:
    def test_custom_factory_through_engine_config(self, trained_svm):
        calls = []

        def factory(engine_config):
            calls.append(engine_config)
            return SerialRuntime()

        engine_config = EngineConfig(runtime=factory)
        engine = StagedEngine(trained_svm, engine_config)
        assert isinstance(engine.runtime, SerialRuntime)
        assert calls == [engine_config]

    def test_engine_stages_are_the_one_pipelines_own(self, trained_svm):
        engine = StagedEngine(trained_svm)
        (pipeline,) = engine.pipelines
        assert engine.batcher is pipeline.batcher
        assert engine.wheel is pipeline.wheel
        assert not hasattr(engine.runtime, "batchers")

    def test_serial_runtime_close_is_noop(self, trained_svm):
        engine = StagedEngine(trained_svm)
        engine.close()
        engine.close()

    def test_context_manager_closes_runtime(self, trained_svm):
        class ClosingRuntime(SerialRuntime):
            closed = 0

            def close(self):
                self.closed += 1

        config = EngineConfig(runtime=lambda engine_config: ClosingRuntime())
        with StagedEngine(trained_svm, config) as engine:
            assert engine.runtime.closed == 0
        assert engine.runtime.closed == 1
        engine.close()  # idempotent: the runtime is not closed twice
        assert engine.runtime.closed == 1
