"""The repository benchmark: one command, four workloads.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench_e2e/run.py [--seed N] [--quick]          # all four, both modes

With ``--workload`` the process *is* the workload child: it makes the inputs
from the seed, measures, checks every answer against :mod:`bench_e2e.oracle`
and prints every metric by name with its unit, then one JSON object as the
last line.  ``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones (and writes the spans of the traced pass to
``bench_e2e/.work/spans-NAME.jsonl``).  Without ``--workload`` each workload
runs in a child process of its own, in both modes, and the three protein
workloads must return identical hit lists.

The exit code is non-zero if any answer was wrong.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_ROOT = os.path.join(ROOT, "bench_e2e", ".work")


def parse_arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in this process")
    parser.add_argument("--seed", type=int, default=7, help="drives data and queries only")
    parser.add_argument("--seconds", type=float, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="8 queries x 2 passes, 3 cold spawns: a smoke run, no agreement")
    return parser.parse_args()


def load_specification() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args: argparse.Namespace, specification: Dict[str, object]) -> int:
    from bench_e2e.workloads import WORKLOADS, Session, end_to_end, per_layer

    by_name = {workload.name: workload for workload in WORKLOADS}
    if args.workload not in by_name:
        sys.exit(f"unknown workload {args.workload!r}; one of {', '.join(by_name)}")
    declared = specification["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    seconds = args.seconds if args.seconds is not None else float(specification["run_seconds"])

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    report: List[str] = []
    try:
        session = Session(by_name[args.workload], args.seed, work_dir, args.quick)
        if args.trace:
            spans = os.path.join(WORK_ROOT, f"spans-{args.workload}.jsonl")
            values = per_layer(session, seconds, list(units), report, spans)
        else:
            values = end_to_end(session, seconds, report)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"window {seconds:g} s{'  QUICK' if args.quick else ''}")
    for line in report:
        print(line)
    print(f"# hits sha256 {session.hits_digest}")
    print(f"# ops_attempted {session.attempted}  ops_failed {session.failed}")
    for name, unit in units.items():
        print(f"{name:42s} {values[name]:16.6f} {unit}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if session.failed == 0 else 1


def run_all(args: argparse.Namespace, specification: Dict[str, object]) -> int:
    """Every workload in a child of its own, untraced then traced."""
    digests: Dict[str, str] = {}
    merged: Dict[str, object] = {}
    attempted = failed = 0
    status = 0
    jobs = [(workload["name"], trace) for workload in specification["workloads"] for trace in (0, 1)]

    def launch(name: str, trace: int) -> subprocess.Popen:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(trace)]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        if args.quick:
            command.append("--quick")
        return subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    # A measured run has the machine to itself: each child starts when the one
    # before it has ended.  A smoke run measures nothing and starts them all.
    children = [launch(*job) for job in jobs] if args.quick else (launch(*job) for job in jobs)
    for (name, trace), child in zip(jobs, children):
        stdout, stderr = child.communicate()
        sys.stderr.write(stderr)
        lines = stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):        # the child died before its result line
            result = None
        print("\n".join(lines if result is None else lines[:-1]))
        if child.returncode != 0 or result is None:
            print(f"# {name} trace {trace}: exit {child.returncode}")
            status = 1
        if result is None:
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged[f"{name}/{metric}"] = value
        for line in lines:
            if line.startswith("# hits sha256 "):
                digests.setdefault(name, line.split()[-1])
    protein = {digests.get(name) for name in ("mem_motif", "disk_tight", "shard4_serial")}
    if len(protein) != 1:
        print(f"# PARITY FAILURE: protein workloads returned different hit lists: {digests}")
        status = 1
    else:
        print("# parity: mem_motif, disk_tight and shard4_serial returned identical hit lists")
    print(json.dumps({"correct": status == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return status


def main() -> int:
    args = parse_arguments()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("bench_e2e measures the program under src/repro, which is not here")
    if os.environ.get("PYTHONHASHSEED") != "0" or "OASIS_KERNEL" in os.environ:
        # String hashing decides dict layout and with it a few percent of run
        # time; pin it, and the production kernel, for every run alike.
        environment = {k: v for k, v in os.environ.items() if k != "OASIS_KERNEL"}
        environment["PYTHONHASHSEED"] = "0"
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:],
                  environment)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    specification = load_specification()
    if args.workload is None:
        return run_all(args, specification)
    return run_workload(args, specification)


if __name__ == "__main__":
    sys.exit(main())
