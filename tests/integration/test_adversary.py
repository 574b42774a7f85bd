"""Integration tests for the Section-4.6 padding attack and defenses.

The attack: prepend content mimicking another nature (encrypted-like
padding, say) to the start of a flow, so a classifier that examines the
first bytes mislabels it. Defenses: (1) classify from a random offset;
(2) periodically delete CDB records so flows are reclassified.
"""

import numpy as np
import pytest

from repro.core.config import IustitiaConfig
from repro.core.labels import ENCRYPTED
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace
from tests.conftest import sync_engine


def _attacked_trace(seed=61, padding=64, fraction=1.0):
    return generate_gateway_trace(
        GatewayTraceConfig(
            n_flows=120, duration=30.0, seed=seed,
            app_header_probability=0.0,
            adversarial_padding=padding,
            adversarial_fraction=fraction,
            adversarial_mimic=ENCRYPTED,
        )
    )


def _accuracy(trained_svm, trace, config, seed=0):
    engine = sync_engine(trained_svm, config, rng=np.random.default_rng(seed))
    engine.process_trace(trace)
    return engine.evaluate_against(trace)["accuracy"], engine


class TestPaddingAttack:
    def test_attack_degrades_undefended_classifier(self, trained_svm):
        clean = generate_gateway_trace(
            GatewayTraceConfig(n_flows=120, duration=30.0, seed=61,
                               app_header_probability=0.0)
        )
        attacked = _attacked_trace()
        config = IustitiaConfig(buffer_size=32)
        clean_acc, _ = _accuracy(trained_svm, clean, config)
        attacked_acc, _ = _accuracy(trained_svm, attacked, config)
        # 64 bytes of encrypted-like padding swamps a 32-byte buffer.
        assert attacked_acc < clean_acc - 0.2

    def test_attacked_flows_mislabelled_as_mimic(self, trained_svm):
        attacked = _attacked_trace()
        _, engine = _accuracy(
            trained_svm, attacked, IustitiaConfig(buffer_size=32)
        )
        labels = [c.label for c in engine.stats.classified]
        # Most flows (whatever their truth) now look encrypted.
        assert labels.count(ENCRYPTED) > 0.6 * len(labels)


@pytest.fixture(scope="module")
def offset_trained_svm(small_corpus):
    """H_b'-trained classifier: the right pairing for random skipping."""
    from repro.core.classifier import IustitiaClassifier, TrainingMethod

    return IustitiaClassifier(
        model="svm", buffer_size=256,
        training=TrainingMethod.RANDOM_OFFSET, header_threshold=256,
        rng=np.random.default_rng(17),
    ).fit_corpus(small_corpus)


class TestRandomSkipDefense:
    def test_random_skip_recovers_accuracy(self, trained_svm, offset_trained_svm):
        attacked = _attacked_trace(padding=64)
        undefended = IustitiaConfig(buffer_size=32)
        defended = IustitiaConfig(buffer_size=256, random_skip_max=256)
        acc_plain, _ = _accuracy(trained_svm, attacked, undefended)
        acc_defended, _ = _accuracy(offset_trained_svm, attacked, defended, seed=5)
        assert acc_defended > acc_plain + 0.2

    def test_random_skip_harmless_on_clean_traffic(
        self, offset_trained_svm, trained_svm, small_trace
    ):
        plain = IustitiaConfig(buffer_size=32)
        defended = IustitiaConfig(buffer_size=256, random_skip_max=256)
        acc_plain, _ = _accuracy(trained_svm, small_trace, plain)
        acc_defended, _ = _accuracy(offset_trained_svm, small_trace, defended, seed=5)
        # Skipping into the flow body costs little on unpadded traffic
        # when the classifier is trained on random-offset windows.
        assert acc_defended > acc_plain - 0.2


class TestReclassificationDefense:
    def test_old_records_reclassified(self, trained_svm, small_trace):
        config = IustitiaConfig(buffer_size=32, reclassify_interval=2.0)
        engine = sync_engine(trained_svm, config)
        engine.process_trace(small_trace)
        assert engine.stats.reclassifications > 0

    def test_disabled_by_default(self, trained_svm, small_trace):
        engine = sync_engine(trained_svm, IustitiaConfig(buffer_size=32))
        engine.process_trace(small_trace)
        assert engine.stats.reclassifications == 0

    def test_config_validation(self):
        with pytest.raises(ValueError, match="reclassify_interval"):
            IustitiaConfig(reclassify_interval=-1.0)
        with pytest.raises(ValueError, match="random_skip_max"):
            IustitiaConfig(random_skip_max=-1)
