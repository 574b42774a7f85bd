"""Tests for IustitiaConfig validation."""

import pytest

from repro.core.config import IustitiaConfig
from repro.core.features import PHI_CART, PHI_SVM_PRIME


class TestIustitiaConfig:
    def test_defaults_are_paper_headline(self):
        config = IustitiaConfig()
        assert config.buffer_size == 32
        assert config.feature_set is PHI_SVM_PRIME
        assert config.purge_coefficient == 4.0
        assert config.purge_trigger_flows == 5000

    def test_buffer_must_hold_widest_feature(self):
        with pytest.raises(ValueError, match="widest"):
            IustitiaConfig(buffer_size=8, feature_set=PHI_CART)  # h10 needs 10

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="header_threshold"):
            IustitiaConfig(header_threshold=-5)

    def test_buffer_timeout_positive(self):
        with pytest.raises(ValueError, match="buffer_timeout"):
            IustitiaConfig(buffer_timeout=0.0)

    def test_frozen(self):
        config = IustitiaConfig()
        with pytest.raises(AttributeError):
            config.buffer_size = 64
