"""Unit tests for ``EngineConfig.runtime``: the engine has one runtime, itself."""

import pytest

from repro.core.config import EngineConfig


class TestMakeRuntime:
    """Which values ``EngineConfig.runtime`` accepts and how it rejects the rest."""

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
