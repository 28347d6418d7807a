"""Compare two result sets of the benchmark, metric by metric.

    python3 bench/compare.py --base base.jsonl --change change.jsonl

A result set is one or more files holding the stdout of bench/run.py runs
(``python3 bench/run.py ... >> base.jsonl``); the full record line of every
untraced run is used.  Runs pair up in file order, so run parent and change
alternately.  For each (workload, end-to-end metric) of BENCHMARK.json the
verdict is:

- better: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the base's quartile distance;
- worse: the change's median is worse than the base's by more than the bound;
- unresolved: the spread (quartile distance over median) of either side is
  wider than the bound, unless every change run beats every base run;
- unchanged: otherwise.

The failure ratio (failed over attempted ops, over all runs) is worse when
the change's exceeds the base's by more than three binomial standard errors;
with no failure at the base, any failure is worse.  Closed-loop runs attempt
more ops on a faster machine, so counts alone would differ between two sets
of runs of the same code.  A gain does not count when the failure ratio is
worse.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from run import RECORD, ROOT


def load(paths: list[str]) -> dict:
    """{workload: [record, ...]} of the untraced runs in the files, in order."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        for line in Path(path).read_text().splitlines():
            if not line.startswith("{"):
                continue
            rec = json.loads(line)
            if rec.get("record") == RECORD and rec["trace"] == 0 and not rec["smoke"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], bound: float, higher: bool) -> str:
    sign = 1.0 if higher else -1.0
    b1, b_med, b3 = quartiles(base)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if sign * (c_med - b_med) > 0 and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b3 - b1:
        return "better"
    if -sign * (c_med - b_med) > bound * abs(b_med):
        return "worse"
    spread = max((b3 - b1) / abs(b_med), (c3 - c1) / abs(c_med))
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def more_failures(b_failed: int, b_attempted: int, c_failed: int, c_attempted: int) -> bool:
    p = b_failed / b_attempted
    return c_failed / c_attempted > p + 3 * math.sqrt(p * (1 - p) / c_attempted)


def compare(base: dict, change: dict, benchmark: dict) -> list[dict]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        b_runs, c_runs = base[workload], change[workload]
        b_failed, b_attempted = (sum(r[k] for r in b_runs) for k in ("failed", "attempted"))
        c_failed, c_attempted = (sum(r[k] for r in c_runs) for k in ("failed", "attempted"))
        failures_worse = more_failures(b_failed, b_attempted, c_failed, c_attempted)
        for m in benchmark["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            result = verdict(b, c, m["bound"], m["better"] == "higher")
            if result == "better" and failures_worse:
                result = "unchanged"
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "base": quartiles(b),
                    "change": quartiles(c),
                    "runs": (len(b), len(c)),
                    "verdict": result,
                }
            )
        rows.append(
            {
                "workload": workload,
                "metric": "fail_ratio",
                "unit": "ratio",
                "base": (b_failed / b_attempted,) * 3,
                "change": (c_failed / c_attempted,) * 3,
                "runs": (len(b_runs), len(c_runs)),
                "verdict": "worse" if failures_worse else "unchanged",
            }
        )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two benchmark result sets.")
    parser.add_argument("--base", nargs="+", required=True, help="result files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load(args.base), load(args.change), benchmark)
    if not rows:
        print("no workload has untraced runs in both result sets", file=sys.stderr)
        return 1
    print(f"{'workload':8} {'metric':12} {'unit':5} {'base q1/median/q3':>30} {'change q1/median/q3':>30} runs   verdict")
    for r in rows:
        base = "/".join(f"{v:.4g}" for v in r["base"])
        change = "/".join(f"{v:.4g}" for v in r["change"])
        runs = "{}/{}".format(*r["runs"])
        print(f"{r['workload']:8} {r['metric']:12} {r['unit']:5} {base:>30} {change:>30} {runs:6} {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
