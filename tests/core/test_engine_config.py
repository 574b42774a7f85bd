"""Tests for EngineConfig and the legacy-kwarg deprecation shim."""

import dataclasses
import warnings

import pytest

import repro
from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.features import PHI_CART, FeatureSet
from repro.engine.engine import StagedEngine


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.max_batch == 32
        assert config.telemetry is True
        # Pipeline resolves to a full IustitiaConfig with its defaults.
        assert isinstance(config.pipeline, IustitiaConfig)
        assert config.buffer_size == 32
        assert config.buffer_timeout == 10.0
        assert config.buffer_size == config.pipeline.buffer_size

    def test_explicit_knobs_win_over_pipeline_template(self):
        template = IustitiaConfig(buffer_size=64, buffer_timeout=5.0)
        config = EngineConfig(buffer_size=16, pipeline=template)
        assert config.buffer_size == 16
        assert config.pipeline.buffer_size == 16
        # Unset knobs inherit from the template.
        assert config.buffer_timeout == 5.0
        # Non-overlapping template fields survive the merge.
        assert config.pipeline.purge_coefficient == template.purge_coefficient

    def test_pipeline_template_without_overrides(self):
        template = IustitiaConfig(buffer_size=128)
        config = EngineConfig(pipeline=template)
        assert config.buffer_size == 128
        assert config.pipeline.buffer_size == 128

    def test_merged_values_are_validated(self):
        # buffer_size 8 cannot hold PHI_CART's h10: the merged pipeline
        # re-runs IustitiaConfig validation.
        with pytest.raises(ValueError, match="widest"):
            EngineConfig(
                buffer_size=8, pipeline=IustitiaConfig(feature_set=PHI_CART)
            )

    def test_staging_knob_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            EngineConfig(max_batch=0)

    def test_frozen(self):
        config = EngineConfig()
        with pytest.raises(AttributeError):
            config.max_batch = 64

    def test_shard_and_fold_knobs_removed(self):
        with pytest.raises(TypeError, match="num_shards"):
            EngineConfig(num_shards=2)
        with pytest.raises(TypeError, match="fold_batch"):
            EngineConfig(fold_batch=1)

    def test_field_set_is_exact(self):
        # One flow table, one fold cadence: a new knob must be argued
        # for here, not slipped in.
        assert {field.name for field in dataclasses.fields(EngineConfig)} == {
            "buffer_size", "buffer_timeout", "max_batch",
            "telemetry", "extractor", "runtime", "pipeline",
        }


class TestRuntimeKnobs:
    """The runtime field accepts ``"serial"`` only; the worker knobs are gone."""

    def test_defaults(self):
        assert EngineConfig().runtime == "serial"

    def test_known_names_accepted(self):
        assert EngineConfig(runtime="serial").runtime == "serial"

    def test_unknown_runtime_name_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime 'fiber'"):
            EngineConfig(runtime="fiber")
        # The deleted built-ins are unknown names like any other.
        for name in ("thread", "process"):
            with pytest.raises(ValueError, match="expected 'serial'"):
                EngineConfig(runtime=name)

    def test_non_callable_runtime_rejected(self):
        with pytest.raises(TypeError, match="runtime must be 'serial'"):
            EngineConfig(runtime=42)

    def test_runtime_factory_rejected_never_called(self):
        # A runtime factory is no longer a way in: rejected, never called.
        calls = []
        with pytest.raises(TypeError, match="runtime must be 'serial'"):
            EngineConfig(runtime=calls.append)
        assert calls == []

    def test_worker_and_queue_fields_removed(self):
        with pytest.raises(TypeError, match="num_workers"):
            EngineConfig(num_workers=2)
        with pytest.raises(TypeError, match="queue_depth"):
            EngineConfig(queue_depth=1)

    def test_runtime_knobs_are_frozen(self):
        config = EngineConfig(runtime="serial")
        with pytest.raises(AttributeError):
            config.runtime = "other"


class TestLegacyKwargRemoval:
    """Staging knobs are not constructor keywords: Python's own TypeError."""

    def test_legacy_kwargs_raise_type_error(self, trained_svm):
        with pytest.raises(TypeError):
            StagedEngine(trained_svm, max_batch=4)

    def test_legacy_num_shards_raises(self, trained_svm):
        with pytest.raises(TypeError, match="num_shards"):
            StagedEngine(trained_svm, num_shards=2)

    def test_bare_pipeline_config_still_accepted(self, trained_svm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = StagedEngine(trained_svm, IustitiaConfig(buffer_size=32))
        assert engine.engine_config.max_batch == 32  # EngineConfig default

    def test_engine_config_is_the_way(self, trained_svm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = StagedEngine(trained_svm, EngineConfig(max_batch=4))
        assert engine.engine_config.max_batch == 4

    def test_engine_config_plus_legacy_kwargs_is_an_error(self, trained_svm):
        with pytest.raises(TypeError, match="max_batch"):
            StagedEngine(trained_svm, EngineConfig(), max_batch=4)


class TestDefaultWindow:
    """An engine built without a config serves the model's own ``b``."""

    @pytest.fixture(scope="class")
    def wide_cart(self, small_corpus):
        return IustitiaClassifier(model="cart", buffer_size=64).fit_corpus(
            small_corpus
        )

    def test_no_config_serves_the_model_window(self, wide_cart, small_trace):
        engines = [StagedEngine(wide_cart), repro.open_engine(wide_cart)]
        for engine in engines:
            assert engine.config.buffer_size == 64
            assert engine.extractor.buffer_size == 64
        explicit = repro.open_engine(wide_cart, EngineConfig(buffer_size=64))
        explicit.process_trace(small_trace)
        for engine in engines:
            engine.process_trace(small_trace)
            assert engine.stats.classified == explicit.stats.classified

    def test_explicit_config_keeps_its_window(self, wide_cart):
        engine = StagedEngine(wide_cart, EngineConfig())
        assert engine.config.buffer_size == engine.extractor.buffer_size == 32

    def test_no_config_serves_a_model_narrower_than_the_defaults(
        self, small_corpus
    ):
        narrow = IustitiaClassifier(
            model="cart", feature_set=FeatureSet("narrow", (1, 2)),
            buffer_size=4,
        ).fit_corpus(small_corpus)
        assert repro.open_engine(narrow).extractor.buffer_size == 4
