"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench/tests -q`` (the tier-1 suite keeps
``testpaths = tests``). The quick runs take about half a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import check  # noqa: E402
import estimators  # noqa: E402
import workloads  # noqa: E402
from repro.net.packet import (  # noqa: E402
    FLAG_ACK, FLAG_FIN, PROTO_TCP, PROTO_UDP, Ipv4Header, Packet, TcpHeader, UdpHeader,
)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


class TestContractFile:
    def test_keys_and_limits(self, contract):
        assert set(contract) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert contract["paths"] == ["bench"]
        assert 1 <= contract["run_seconds"] <= 60
        assert 2 <= len(contract["workloads"]) <= 8
        assert 1 <= len(contract["end_to_end"]) <= 16
        assert 1 <= len(contract["per_layer"]) <= 128
        assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024

    def test_names_units_and_bounds(self, contract):
        names = []
        for workload in contract["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
            names.append(workload["name"])
        for metric in contract["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in contract["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in contract["end_to_end"] + contract["per_layer"]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
            names.append(metric["name"])
        assert all(NAME.match(name) for name in names)
        assert len(set(names)) == len(names)
        setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
        assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])

    def test_workloads_match_the_generators(self, contract):
        assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)


def quick_run(tmp_path, seed: int, *extra) -> dict:
    out = tmp_path / f"quick-{seed}-{len(list(tmp_path.iterdir()))}.jsonl"
    subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--quick", "--seed", str(seed),
         "--out", str(out), *extra],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    (record,) = check.read_sets(out)
    return record


@pytest.fixture(scope="module")
def quick_sets(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench")
    return (
        quick_run(tmp_path, 1, "--trace"),
        quick_run(tmp_path, 1),
        quick_run(tmp_path, 2),
    )


class TestQuickRun:
    def test_every_workload_reports_every_metric(self, contract, quick_sets):
        traced, plain, _other = quick_sets
        for name in workloads.WORKLOADS:
            for record in (traced, plain):
                document = record["workloads"][name]
                assert document["correct"] and document["failed"] == 0
                assert document["attempted"] >= 1
                for metric in contract["end_to_end"]:
                    assert document["metrics"][metric["name"]]["value"] > 0
            for metric in contract["per_layer"]:
                assert metric["name"] in traced["workloads"][name]["metrics"]

    def test_labels_repeat_for_a_seed_and_differ_across_seeds(self, quick_sets):
        traced, plain, other = quick_sets
        for name in workloads.WORKLOADS:
            digest = traced["workloads"][name]["labels_sha256"]
            assert len(digest) == 64
            assert plain["workloads"][name]["labels_sha256"] == digest
            assert other["workloads"][name]["labels_sha256"] != digest
            for metric in ("accuracy", "labelled_frac"):
                assert (
                    plain["workloads"][name]["metrics"][metric]["value"]
                    == traced["workloads"][name]["metrics"][metric]["value"]
                )

    def test_trace_separates_the_workloads(self, quick_sets):
        layer = {
            name: {
                key: metric["value"]
                for key, metric in quick_sets[0]["workloads"][name]["metrics"].items()
            }
            for name in workloads.WORKLOADS
        }
        assert layer["gateway-pcap"]["ingest.next_share"] > 0.1
        assert layer["flow-churn"]["ingest.next_share"] == 0
        assert layer["tiny-fragments"]["ingest.next_share"] == 0
        assert layer["tiny-fragments"]["extract.fold_share"] > 0
        assert layer["gateway-pcap"]["extract.fold_share"] == 0
        assert layer["flow-churn"]["extract.fold_share"] == 0
        assert layer["tiny-fragments"]["labelled_frac"] < 1.0
        for name in workloads.WORKLOADS:
            assert layer[name]["trace.coverage_frac"] >= 0.90

    def test_ad_hoc_runtime_is_not_recorded(self):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--runtime", "thread", "--record"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 2 and "--record" in done.stderr


def tcp(src_port, payload, ts, flags=FLAG_ACK):
    return Packet(
        Ipv4Header("10.0.0.1", "10.0.0.2", PROTO_TCP),
        TcpHeader(src_port, 80, flags=flags), payload, ts,
    )


def test_window_complete_packet_on_a_hand_built_trace():
    udp = Packet(
        Ipv4Header("10.0.0.3", "10.0.0.2", PROTO_UDP), UdpHeader(9, 53, 48), b"u" * 40, 0.5
    )
    packets = [
        tcp(1000, b"a" * 20, 0.1),
        udp,                                  # one packet fills the window
        tcp(1000, b"a" * 11, 0.2),            # 31 B: one short
        tcp(2000, b"b" * 8, 0.3),
        tcp(1000, b"a" * 1, 0.4),             # 32 B: complete here
        tcp(1000, b"a" * 100, 0.6),           # later packets do not move it
        tcp(2000, b"", 0.7, FLAG_ACK | FLAG_FIN),  # closes at 8 B
        tcp(3000, b"c" * 10, 0.8),            # goes silent: never completes
    ]
    complete = workloads.window_complete_times(packets, 32)
    by_port = {key.src_port: ts for key, ts in complete.items()}
    assert by_port == {1000: 0.4, 9: 0.5, 2000: 0.7}


def test_windowed_percentiles_shrug_off_one_stall():
    samples = []
    for window in range(20):
        for i in range(100):
            latency = 0.001 + 0.00001 * i
            if window == 7 and i >= 50:
                latency += 0.250  # a 250 ms stall hits half of one window
            samples.append((window * 0.5 + i * 0.004, latency))
    pooled = sorted(latency for _when, latency in samples)
    assert estimators.percentile(pooled, 0.99) > 0.2
    per_window = estimators.windowed_percentiles(samples, (0.5, 0.9))
    assert len(per_window[0.9]) == 20
    assert estimators.summarize(per_window[0.9])["value"] < 0.002
    assert max(per_window[0.9]) > 0.2  # the stall is still visible, in one window
    # Windows short of samples are left out rather than trusted.
    sparse = estimators.windowed_percentiles(samples[:130], (0.5,), min_samples=50)
    assert len(sparse[0.5]) == 1


def test_labels_digest_ignores_order_not_content():
    pairs = [(b"k1", 0), (b"k2", 2), (b"k3", 1)]
    assert estimators.labels_digest(pairs) == estimators.labels_digest(pairs[::-1])
    assert estimators.labels_digest(pairs) != estimators.labels_digest(
        [(b"k1", 0), (b"k2", 1), (b"k3", 1)]
    )


class TestCompare:
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_regression_beyond_the_bound(self):
        change = [value * 0.85 for value in self.parent]
        assert check.compare(self.parent, change, "higher", 0.10)["verdict"] == "REGRESSION"

    def test_gain_needs_wins_and_a_gap_wider_than_the_spread(self):
        change = [value * 1.05 for value in self.parent]
        assert check.compare(self.parent, change, "higher", 0.10)["verdict"] == "gain"
        assert check.compare(self.parent[:5], change[:5], "higher", 0.10)["verdict"] == (
            "within bound"
        )

    def test_wide_parent_spread_is_unresolved(self):
        noisy = [80.0, 120.0, 90.0, 110.0, 70.0, 130.0, 100.0, 95.0, 105.0, 100.0]
        change = [value * 0.97 for value in noisy]
        assert check.compare(noisy, change, "higher", 0.10)["verdict"] == "unresolved"

    def test_lower_is_better_flips_the_sign(self):
        change = [value * 1.2 for value in self.parent]
        assert check.compare(self.parent, change, "lower", 0.10)["verdict"] == "REGRESSION"
        assert check.compare(self.parent, change, "higher", 0.10)["verdict"] == "gain"
