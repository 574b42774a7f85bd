"""Iustitia core: entropy vectors, classification, the CDB, the
configuration of the online engine (:mod:`repro.engine`), and the
offline (delta, epsilon) estimation study."""

from repro._lazy import lazy_exports
from repro.core.accounting import (
    distinct_counters,
    flow_state_bytes,
    estimation_space_bytes,
    exact_space_bytes,
)
from repro.core.cdb import CdbRecord, ClassificationDatabase
from repro.core.classifier import IustitiaClassifier, TrainingMethod
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.entropy import (
    byte_entropy,
    kgram_counts,
    kgram_entropy,
    max_normalized_entropy,
)
from repro.core.entropy_vector import EntropyVector, entropy_vector
from repro.core.features import (
    FEATURE_SETS,
    FULL_FEATURES,
    PHI_CART,
    PHI_CART_PRIME,
    PHI_SVM,
    PHI_SVM_PRIME,
    FeatureSet,
)
from repro.core.headers import (
    APP_HEADER_SIGNATURES,
    detect_app_protocol,
    strip_app_header,
)
from repro.core.labels import BINARY, ENCRYPTED, TEXT, FlowNature

# The offline (delta, epsilon) estimation study, the delay model and
# feature selection: nothing the classify pass runs.
__getattr__, __dir__ = lazy_exports(globals(), {
    "BufferingDelayModel": "repro.core.delay",
    "DelayBreakdown": "repro.core.delay",
    "EntropyEstimator": "repro.core.estimation",
    "EstimationBudget": "repro.core.estimation",
    "cart_voting_selection": "repro.core.feature_selection",
    "estimate_hk": "repro.core.estimation",
    "feature_set_coefficient": "repro.core.estimation",
    "sequential_forward_selection": "repro.core.feature_selection",
})

__all__ = [
    "APP_HEADER_SIGNATURES",
    "BINARY",
    "BufferingDelayModel",
    "CdbRecord",
    "ClassificationDatabase",
    "DelayBreakdown",
    "ENCRYPTED",
    "EngineConfig",
    "EntropyEstimator",
    "EntropyVector",
    "EstimationBudget",
    "FEATURE_SETS",
    "FULL_FEATURES",
    "FeatureSet",
    "FlowNature",
    "IustitiaClassifier",
    "IustitiaConfig",
    "PHI_CART",
    "PHI_CART_PRIME",
    "PHI_SVM",
    "PHI_SVM_PRIME",
    "TEXT",
    "TrainingMethod",
    "byte_entropy",
    "cart_voting_selection",
    "detect_app_protocol",
    "distinct_counters",
    "entropy_vector",
    "estimation_space_bytes",
    "exact_space_bytes",
    "flow_state_bytes",
    "estimate_hk",
    "feature_set_coefficient",
    "kgram_counts",
    "kgram_entropy",
    "max_normalized_entropy",
    "sequential_forward_selection",
    "strip_app_header",
]
