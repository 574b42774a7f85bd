"""Smoke test: the hot-path perf runner works end-to-end on a tiny corpus.

No timing assertions — speedups vary by machine and CI load; only the
runner's structure, equivalence checks, and JSON output are validated.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

BENCH_NAMES = (
    "extraction",
    "cart_predict",
    "dagsvm_predict",
    "end_to_end_classify",
)


def test_run_perf_tiny_writes_json(tmp_path):
    out = tmp_path / "bench.json"
    engine_out = tmp_path / "bench_engine.json"
    state_out = tmp_path / "bench_state.json"
    ingest_out = tmp_path / "bench_ingest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "run_perf.py"),
            "--tiny",
            "--out",
            str(out),
            "--engine-out",
            str(engine_out),
            "--state-out",
            str(state_out),
            "--ingest-out",
            str(ingest_out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(out.read_text())
    assert results["generated_by"] == "benchmarks/run_perf.py"
    for name in BENCH_NAMES:
        entry = results[name]
        assert entry["scalar_s"] > 0
        assert entry["batch_s"] > 0
        assert entry["speedup"] > 0
        assert name in proc.stdout
    # The runner refuses to time paths that diverge; the recorded
    # extraction error bound must hold on the tiny corpus too.
    assert results["extraction"]["max_abs_diff"] <= 1e-12

    # Engine fill-path throughput sweep (BENCH_engine.json payload).
    engine_results = json.loads(engine_out.read_text())
    sweep = engine_results["engine_throughput"]
    assert sweep["batch_sizes"] == [1, 8, 32]
    for max_batch in sweep["batch_sizes"]:
        entry = sweep["runs"][str(max_batch)]
        assert entry["seconds"] > 0
        assert entry["packets_per_s"] > 0
    # No timing thresholds at tiny scale, but the field must exist and
    # batching must never have LOST labels (validated in-runner).
    assert sweep["speedup_32_vs_1"] > 0

    # Telemetry-era payload: the Section-5 delay ratio at the top level
    # (where CI asserts on it) plus its full detail block, and the
    # instrumentation-overhead probe. No thresholds at tiny scale —
    # the numbers are noise with repeat=1; only full-scale runs are
    # held to the <5% overhead budget.
    assert engine_results["delay_ratio"] > 0
    delay = engine_results["classification_delay"]
    assert delay["classifications"] > 0
    assert delay["mean_classify_delay_s"] > 0
    assert delay["delay_ratio"] == engine_results["delay_ratio"]
    overhead = sweep["telemetry_overhead"]
    assert overhead["telemetry_on_s"] > 0
    assert overhead["telemetry_off_s"] > 0
    assert (
        engine_results["telemetry_overhead_fraction"]
        == overhead["overhead_fraction"]
    )

    # Extractor state payload (BENCH_state.json): per-flow state bytes
    # of the incremental extractor vs the buffered baseline, both exact,
    # labels validated identical in-runner before timing. The state-size
    # ordering is structural (counters + carry vs window + counters), so
    # it holds even at tiny scale.
    state_results = json.loads(state_out.read_text())
    assert state_results["paper_claim_bytes"] == 195
    assert state_results["extractor_state"]["labels_identical"] is True
    state = state_results["extractor_state"]["state_bytes"]
    assert state["incremental"]["median"] < state["buffered"]["median"]
    assert state_results["incremental_below_buffered"] is True
    assert (
        state_results["incremental_median_bytes"]
        == state["incremental"]["median"]
    )
    fold = state_results["extractor_state"]["fold_throughput"]
    for extractor in ("batch", "incremental"):
        assert fold["runs"][extractor]["seconds"] > 0
        assert fold["runs"][extractor]["packets_per_s"] > 0
    assert fold["incremental_vs_buffered"] > 0

    # Streaming ingest payload (BENCH_ingest.json): streaming vs
    # materialized over the same pcap, labels validated identical
    # in-runner before timing. No throughput floor (streaming buys
    # memory, not speed), but the memory ordering is structural: the
    # streaming run never holds the packet list, and the decode-only
    # peak must not scale with the capture.
    ingest_results = json.loads(ingest_out.read_text())
    ingest = ingest_results["ingest"]
    assert ingest["labels_identical"] is True
    for path in ("materialized", "streaming"):
        assert ingest["throughput"][path]["seconds"] > 0
        assert ingest["throughput"][path]["packets_per_s"] > 0
    assert (
        ingest_results["streaming_vs_materialized_throughput"]
        == ingest["throughput"]["streaming_vs_materialized"]
    )
    assert ingest_results["streaming_peak_fraction_of_materialized"] < 1.0
    assert ingest_results["decode_peak_2x_vs_1x"] < 1.5
