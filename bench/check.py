"""Compare a change against its parent: ``check.py PARENT.jsonl CHANGE.jsonl``.

Both files hold the sets that ``run.py --out FILE`` appended, one JSON line
each, measured alternately (parent first, then change first, ...) with the
same ``--seed`` and ``--seconds``. Set *i* of one file is paired with set
*i* of the other. For every workload (its own rows) and every end-to-end
metric of ``BENCHMARK.json`` the verdict follows the choosing-metrics guide:

* **unresolved**: the parent's own runs spread (quartile distance over
  median) wider than the metric's bound, unless every run of the change
  reads better than every run of the parent;
* **REGRESSION**: the change's median is worse than the parent's by more
  than the bound;
* **gain**: at least ten pairs, the change wins nine tenths of them (ties
  count for neither side) and the medians differ by more than the parent's
  quartile distance, and no more operations fail than at the parent;
* **within bound** otherwise.

Exits non-zero on a regression or a higher share of failed operations.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10


def read_sets(path) -> list:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(parent: list, change: list, better: str, bound: float) -> dict:
    """Verdict for one metric on one workload; values are one per set."""
    sign = 1.0 if better == "lower" else -1.0  # sign * delta > 0 means worse
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    p_iqr = p_q3 - p_q1
    spread = p_iqr / abs(p_med) if p_med else 0.0
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "REGRESSION"
    elif (
        len(pairs) >= MIN_PAIRS_FOR_GAIN
        and wins >= 0.9 * len(pairs)
        and worse_by < 0
        and abs(c_med - p_med) > p_iqr
    ):
        verdict = "gain"
    else:
        verdict = "within bound"
    return {
        "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
        "worse_by": worse_by, "spread": spread, "wins": wins,
        "pairs": len(pairs), "verdict": verdict,
    }


def show(values: tuple) -> str:
    return "/".join(f"{value:.5g}" for value in values)


def failed_share(sets: list, workload: str) -> float:
    attempted = sum(one["workloads"][workload]["attempted"] for one in sets)
    failed = sum(one["workloads"][workload]["failed"] for one in sets)
    return failed / attempted if attempted else 0.0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    parent, change = read_sets(argv[0]), read_sets(argv[1])
    with open(ROOT / "BENCHMARK.json") as handle:
        metrics = json.load(handle)["end_to_end"]
    pairs = min(len(parent), len(change))
    if pairs == 0:
        print("check.py: one side has no sets", file=sys.stderr)
        return 2
    if pairs < MIN_PAIRS_FOR_GAIN:
        print(f"note: {pairs} pairs; a gain needs {MIN_PAIRS_FOR_GAIN} or more")
    parent, change = parent[:pairs], change[:pairs]
    failed = False
    common = [w for w in parent[0]["workloads"] if w in change[0]["workloads"]]
    for workload in common:
        p_fail = failed_share(parent, workload)
        c_fail = failed_share(change, workload)
        more_failures = c_fail > p_fail
        print(f"\n{workload}: failed-operation share parent {p_fail:.6f} "
              f"change {c_fail:.6f}" + ("  MORE FAILURES" if more_failures else ""))
        failed = failed or more_failures
        print(f"  {'metric':<22} {'parent q1/med/q3':<34} {'change q1/med/q3':<34} "
              f"{'worse by':>9} {'bound':>6} {'wins':>7}  verdict")
        for metric in metrics:
            name = metric["name"]
            row = compare(
                [one["workloads"][workload]["metrics"][name]["value"] for one in parent],
                [one["workloads"][workload]["metrics"][name]["value"] for one in change],
                metric["better"], metric["bound"],
            )
            verdict = row["verdict"]
            if verdict == "gain" and more_failures:
                verdict = "no gain: more operations fail"
            failed = failed or verdict == "REGRESSION"
            print(f"  {name:<22} {show(row['parent']):<34} {show(row['change']):<34} "
                  f"{row['worse_by']:>+9.3f} {metric['bound']:>6.2f} "
                  f"{row['wins']:>3}/{row['pairs']:<3}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
