"""Section 1.3 headline: the full online classifier at b = 32.

Paper: "Iustitia can classify flows by their first 32 bytes of the data
stream in about 300 us using 200 bytes of space per new flow with an
average accuracy rate of 86%"; the classification delay averages 10% of
the mean packet inter-arrival time and is under 5% for >70% of flows.

This bench runs the whole Figure-1 engine over the gateway trace and
checks every headline number's reproduced counterpart.
"""

import time

import numpy as np

from _helpers import PER_CLASS, SEED
from repro import open_engine
from repro.core.classifier import IustitiaClassifier
from repro.core.config import EngineConfig
from repro.core.accounting import exact_space_bytes
from repro.core.delay import BufferingDelayModel
from repro.core.features import PHI_SVM_PRIME
from repro.experiments.datasets import standard_corpus


def test_headline_end_to_end(benchmark, bench_trace):
    corpus = standard_corpus(per_class=PER_CLASS, seed=SEED)
    classifier = IustitiaClassifier(
        model="svm", feature_set=PHI_SVM_PRIME, buffer_size=32
    ).fit_corpus(corpus)

    engine = open_engine(
        classifier, EngineConfig(buffer_size=32, max_batch=1)
    )
    engine.process_trace(bench_trace)
    report = engine.evaluate_against(bench_trace)

    # Per-classification computation time (paper: ~300 us in C++).
    sample = bench_trace.packets[0].payload or b"x" * 64
    sample = (sample * 4)[:32]
    start = time.perf_counter()
    repeats = 50
    for _ in range(repeats):
        classifier.classify_buffer(sample)
    classify_time = (time.perf_counter() - start) / repeats

    # Space per new flow: 32 B buffer + 2 B per distinct observed k-gram
    # (paper: ~195-200 B).
    space = exact_space_bytes(sample, PHI_SVM_PRIME)

    # Delay relative to each flow's packet cadence.
    model = BufferingDelayModel(buffer_size=32)
    ratios = np.array(model.relative_delays(bench_trace, classify_time))

    print()
    print(f"accuracy:              {report['accuracy']:.1%}   [paper: 86%]")
    for key, value in report.items():
        if key != "accuracy":
            print(f"  {key}: {value:.1%}")
    print(f"classification time:   {classify_time * 1e6:.0f} us  [paper: ~300 us]")
    print(f"space per new flow:    {space} B   [paper: ~200 B]")
    print(f"mean delay ratio:      {ratios.mean():.1%}  [paper: 10% avg]")
    print(f"flows with ratio <=5%: {np.mean(ratios <= 0.05):.1%}  [paper: >70%]")

    # Headline bands (loose: synthetic corpus, Python timings).
    assert report["accuracy"] > 0.75
    assert classify_time < 0.01  # within 30x of the paper's C++ 300 us
    assert 100 < space < 300
    assert np.mean(ratios <= 0.10) > 0.5

    benchmark(classifier.classify_buffer, sample)
