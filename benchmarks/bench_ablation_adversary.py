"""Ablation: the Section-4.6 padding attack vs the proposed defenses.

The paper's discussion: "an attacker may put some encrypted-like padding
to the beginning of a flow ... to bypass complex signature matching. To
deal with this problem, one solution is to randomly skip the first T
bytes in a flow ... An alternative solution is to periodically delete the
CDB record of a flow".

We measure engine accuracy on an attacked trace under: no defense, the
random-skip defense, and both defenses combined; plus the defenses' cost
on clean traffic.
"""

import numpy as np

from _helpers import PER_CLASS, SEED
from repro import open_engine
from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig, IustitiaConfig
from repro.core.labels import ENCRYPTED
from repro.experiments.datasets import standard_corpus
from repro.experiments.reporting import format_table
from repro.net.tracegen import GatewayTraceConfig, generate_gateway_trace

_PADDING = 64


def _run(classifier, trace, config, seed=3):
    engine = open_engine(
        classifier,
        EngineConfig(max_batch=1, pipeline=config),
        rng=np.random.default_rng(seed),
    )
    engine.process_trace(trace)
    return engine.evaluate_against(trace)["accuracy"]


def test_ablation_adversary(benchmark):
    from repro.core.classifier import TrainingMethod

    corpus = standard_corpus(per_class=PER_CLASS, seed=SEED)
    classifier = IustitiaClassifier(model="svm", buffer_size=32).fit_corpus(corpus)
    # The random-skip defense examines bytes at arbitrary offsets, so its
    # classifier must be H_b'-trained (random-offset windows), exactly as
    # Section 4.3 pairs unknown-header skipping with H_b' training.
    # A larger buffer is part of the defense's price: random-offset windows
    # carry less signal per byte than the flow head.
    offset_classifier = IustitiaClassifier(
        model="svm", buffer_size=256,
        training=TrainingMethod.RANDOM_OFFSET, header_threshold=256,
        rng=np.random.default_rng(SEED),
    ).fit_corpus(corpus)

    clean = generate_gateway_trace(
        GatewayTraceConfig(n_flows=200, duration=40.0, seed=71,
                           app_header_probability=0.0)
    )
    attacked = generate_gateway_trace(
        GatewayTraceConfig(n_flows=200, duration=40.0, seed=71,
                           app_header_probability=0.0,
                           adversarial_padding=_PADDING,
                           adversarial_fraction=1.0,
                           adversarial_mimic=ENCRYPTED)
    )

    configs = {
        "no defense": (classifier, IustitiaConfig(buffer_size=32)),
        "random skip (b=256, T=256)": (
            offset_classifier,
            IustitiaConfig(buffer_size=256, random_skip_max=256),
        ),
        "skip + reclassify (5s)": (
            offset_classifier,
            IustitiaConfig(
                buffer_size=256, random_skip_max=256, reclassify_interval=5.0
            ),
        ),
    }
    results = {}
    for name, (model, config) in configs.items():
        results[name] = (
            _run(model, clean, config),
            _run(model, attacked, config),
        )

    print()
    print(format_table(
        "Ablation — Section 4.6 padding attack "
        f"({_PADDING} B encrypted-like padding on every flow)",
        ["defense", "clean accuracy", "attacked accuracy"],
        [
            [name, f"{clean_acc:.1%}", f"{attacked_acc:.1%}"]
            for name, (clean_acc, attacked_acc) in results.items()
        ],
    ))

    no_def_clean, no_def_attacked = results["no defense"]
    skip_clean, skip_attacked = results["random skip (b=256, T=256)"]
    # The attack works against the undefended engine...
    assert no_def_attacked < no_def_clean - 0.2
    # ...and random skipping recovers a large part of the loss...
    assert skip_attacked > no_def_attacked + 0.3
    # ...at modest cost on clean traffic.
    assert skip_clean > no_def_clean - 0.15

    model, config = configs["random skip (b=256, T=256)"]
    benchmark.pedantic(
        lambda: _run(model, attacked, config), rounds=1, iterations=1
    )
