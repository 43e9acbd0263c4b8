"""Do two sets of runs of the same checkout agree within the benchmark's bounds?

    python3 bench_e2e/agree.py [--runs 10] [--workloads a,b] [--output FILE]

Runs the benchmark ``--runs`` times per set on each workload, the two sets
interleaved (A B A B ...) so that both see the same drift of the host, every
run with another seed.  Per end-to-end metric and workload it prints each
set's median and quartiles (``statistics.quantiles(values, n=4)``) and fails
if the medians differ by more than the metric's bound, or if either set's
IQR / median exceeds it (``setup_s`` is held to the median rule only, as the
builder's contract does).  ``AGREEMENT.md`` is this program's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(command: List[str], workload: str, seed: int, seconds: int) -> Dict[str, float]:
    finished = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if finished.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {finished.returncode}:\n{finished.stderr[-2000:]}")
    result = json.loads(finished.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(values: List[float]) -> Tuple[float, float, float, float]:
    """median, first quartile, third quartile, IQR / median"""
    median = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / median


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 5)")
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--output", help="also write the report to this file")
    args = parser.parse_args()
    if args.runs < 5:
        sys.exit("--runs must be at least 5")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        specification = json.load(handle)
    workloads = [w["name"] for w in specification["workloads"]]
    if args.workloads:
        workloads = [name for name in workloads if name in args.workloads.split(",")]
    seconds = specification["run_seconds"]

    started = time.time()
    values: Dict[Tuple[str, str, str], List[float]] = {}
    for run in range(args.runs):
        for offset, label in ((0, "A"), (1, "B")):
            seed = 1 + 2 * run + offset
            for workload in workloads:
                metrics = one_run(specification["command"], workload, seed, seconds)
                for name, value in metrics.items():
                    values.setdefault((workload, name, label), []).append(value)
                print(f"run {run + 1}/{args.runs} set {label} seed {seed} {workload}: done "
                      f"({time.time() - started:.0f} s)", file=sys.stderr)

    lines = [
        "# Agreement of two interleaved sets of runs",
        "",
        f"`python3 bench_e2e/agree.py --runs {args.runs}`: {args.runs} runs per set and "
        f"workload, `--seconds {seconds}`, set A on seeds 1, 3, 5, ... and set B on seeds "
        f"2, 4, 6, ..., {time.time() - started:.0f} s in all.  `spread` is IQR / median; "
        "`shift` is |median B - median A| / median A.",
        "",
        "| workload | metric | unit | median A | Q1-Q3 A | spread A | median B | Q1-Q3 B "
        "| spread B | shift | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for workload in workloads:
        for metric in specification["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = summary(values[(workload, name, "A")])
            b = summary(values[(workload, name, "B")])
            shift = abs(b[0] - a[0]) / a[0]
            spread_held = name == "setup_s" or max(a[3], b[3]) <= bound
            verdict = "ok" if shift <= bound and spread_held else "FAIL"
            failures += verdict == "FAIL"
            lines.append(
                f"| {workload} | {name} | {metric['unit']} | {a[0]:.4g} | {a[1]:.4g}-{a[2]:.4g} "
                f"| {a[3]:.1%} | {b[0]:.4g} | {b[1]:.4g}-{b[2]:.4g} | {b[3]:.1%} "
                f"| {shift:.1%} | {bound:.0%} | {verdict} |"
            )
    lines += ["", f"{failures} failures." if failures else "Every metric holds its bound."]
    report = "\n".join(lines) + "\n"
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
