"""The one benchmark command: every workload, every metric, checked outputs.

    python3 bench/run.py                       all three workloads, end to end
    python3 bench/run.py --trace               ... plus the traced per-layer run
    python3 bench/run.py --aa 3                A/A: three sets of the same code
    python3 bench/run.py --out FILE            append the set to FILE (JSON lines)
    python3 bench/run.py --record              append the set to bench/history.jsonl
    python3 bench/run.py --quick               tiny sizes, all checks, under 30 s
    python3 bench/run.py --runtime thread      ad-hoc run on another runtime

With ``--workload NAME`` the last line printed is the one-object result the
benchmark contract asks for (``--trace 0``: the end-to-end metrics,
``--trace 1``: the per-layer metrics). Each workload is measured in a fresh
child process (``measure.py``); this process only generates inputs, starts
the children and reports.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from estimators import relative_gap  # noqa: E402 - needs the path above

HISTORY = BENCH_DIR / "history.jsonl"
#: One measuring child must end well inside the contract's 180 s per run.
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def commit_id() -> str:
    """Short hash of HEAD, ``+dirty`` when ``src/`` differs from it."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def measure_workload(name: str, args, phases: str) -> dict:
    """Run ``measure.py`` on one workload in a fresh child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    command = [
        sys.executable, str(BENCH_DIR / "measure.py"),
        "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--phases", phases,
        "--runtime", args.runtime,
    ]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{name}: measure.py exited {done.returncode} with no result")
    return json.loads(lines[-1])


def print_workload(document: dict) -> None:
    print(
        f"\n== {document['workload']}  seed={document['seed']}  "
        f"labels_sha256={document['labels_sha256'][:16]}  "
        f"flows_checked={document['attempted']}  failed={document['failed']}"
    )
    for name, metric in document["metrics"].items():
        spread = f"  iqr {metric['iqr']:.4g}  n={metric['n']}" if metric["n"] > 1 else ""
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{spread}")
    for error in document["errors"]:
        print(f"  FAILED CHECK: {error}")


def aa_report(sets: list, contract: dict) -> bool:
    """Print each A/A gap next to its bound; True when all are within."""
    bounds = {metric["name"]: metric["bound"] for metric in contract["end_to_end"]}
    print(f"\nA/A over {len(sets)} sets: widest gap between sets / their median")
    print(f"  {'workload':<16} {'metric':<24} {'gap':>8} {'bound':>8}")
    within = True
    for workload in sets[0]["workloads"]:
        for name, bound in bounds.items():
            gap = relative_gap(
                one["workloads"][workload]["metrics"][name]["value"] for one in sets
            )
            verdict = "" if gap <= bound else "  EXCEEDS"
            within = within and gap <= bound
            print(f"  {workload:<16} {name:<24} {gap:>8.4f} {bound:>8.2f}{verdict}")
    return within


def contract_line(document: dict, names: list) -> str:
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {
                    "value": document["metrics"][name]["value"],
                    "unit": document["metrics"][name]["unit"],
                }
                for name in names
            },
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument(
        "--seconds", type=float, default=40.0,
        help="seconds of timed passes per workload (40%% closed loop, 60%% paced)",
    )
    parser.add_argument(
        "--trace", nargs="?", const="both", default="0", choices=("0", "1", "both"),
        help="0: end-to-end phases; 1: the traced per-layer run only; "
        "no value: both",
    )
    parser.add_argument("--out", help="append each set to this file, one JSON line")
    parser.add_argument("--aa", type=int, metavar="N", help="run N sets, compare them")
    parser.add_argument("--record", action="store_true", help=f"append to {HISTORY.name}")
    parser.add_argument("--quick", action="store_true", help="tiny sizes, no bounds")
    parser.add_argument("--runtime", default="serial", help="EngineConfig(runtime=...)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print("bench/run.py: no src/repro next to bench/: nothing to measure",
              file=sys.stderr)
        return 2
    import workloads  # imports repro: only once src/ is known to be there

    contract = load_contract()
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    if args.workload and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    if args.record and (args.runtime != "serial" or args.quick or args.workload):
        parser.error("--record keeps history to full serial runs of every workload")
    if args.aa is not None and args.aa < 2:
        parser.error("--aa needs at least 2 sets")
    phases = {"0": "e2e", "1": "trace", "both": "e2e+trace"}[args.trace]
    sizes = workloads.QUICK if args.quick else workloads.FULL
    if args.runtime != "serial":
        print(f"runtime={args.runtime}: an ad-hoc run, not comparable with history")

    sets = []
    correct = True
    for _ in range(args.aa or 1):
        record = {
            "commit": commit_id(), "seed": args.seed, "nproc": os.cpu_count(),
            "runtime": args.runtime, "quick": args.quick, "seconds": args.seconds,
            "workloads": {},
        }
        for name in names:
            workloads.build(name, args.seed, sizes)
            document = measure_workload(name, args, phases)
            print_workload(document)
            correct = correct and document["correct"]
            record["workloads"][name] = document
        sets.append(record)
        for path in ([args.out] if args.out else []) + ([HISTORY] if args.record else []):
            with open(path, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    if args.aa and phases != "trace" and not aa_report(sets, contract):
        correct = False
    if args.workload and not args.aa:
        wanted = contract["per_layer"] if phases == "trace" else contract["end_to_end"]
        print(contract_line(sets[0]["workloads"][args.workload],
                            [metric["name"] for metric in wanted]))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
