"""Unit tests for the engine's one execution runtime (SerialRuntime)."""

import pytest

from repro.core.config import EngineConfig
from repro.engine import QueueSink, StagedEngine
from repro.engine.engine import SerialRuntime


class TestMakeRuntime:
    """How ``EngineConfig.runtime`` becomes the engine's runtime."""

    def test_builtin_names_resolve(self, trained_svm):
        engine = StagedEngine(trained_svm, EngineConfig(runtime="serial"))
        assert isinstance(engine.runtime, SerialRuntime)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_deleted_runtimes_are_unknown_names(self, name):
        with pytest.raises(ValueError, match="expected 'serial'"):
            EngineConfig(runtime=name)

    def test_unknown_name_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown runtime 'fiber'"):
            EngineConfig(runtime="fiber")

    def test_non_callable_spec_raises_type_error(self):
        with pytest.raises(TypeError, match="runtime must be 'serial'"):
            EngineConfig(runtime=42)


class TestEngineIntegration:
    def test_custom_factory_through_engine_config(self):
        # A runtime factory is no longer a way in: rejected, never called.
        calls = []
        with pytest.raises(TypeError, match="runtime must be 'serial'"):
            EngineConfig(runtime=calls.append)
        assert calls == []

    def test_engine_stages_are_the_one_pipelines_own(self, trained_svm):
        engine = StagedEngine(trained_svm)
        (pipeline,) = engine.pipelines
        assert engine.batcher is pipeline.batcher
        assert engine.wheel is pipeline.wheel
        assert not hasattr(engine.runtime, "batchers")

    def test_context_manager_flushes_sinks(self, trained_svm):
        class FlushCounting(QueueSink):
            flushed = 0

            def flush(self):
                self.flushed += 1

        sink = FlushCounting()
        with StagedEngine(trained_svm, sinks=[sink]) as engine:
            assert sink.flushed == 0
        assert sink.flushed == 1
        engine.close()  # idempotent: the sinks are not flushed twice
        assert sink.flushed == 1
