"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exit codes (same contract as ``python -m repro.obs``):

* ``0`` -- every rule passed on every file (suppressions may have fired;
  they are listed, not hidden);
* ``1`` -- violations or parse errors;
* ``2`` -- usage error (no such path).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.framework import analyze_paths
from repro.analysis.registry import all_rules, rule_catalog


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Run the repo-native invariant rules over Python sources.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the enforced-invariant catalog and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="print only the summary line",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits 2 on usage errors already; normalise --help to 0.
        return int(exit_request.code or 0)

    if args.list_rules:
        print(rule_catalog())
        return 0

    for path in args.paths:
        if not os.path.exists(path):
            print(f"error: no such path: {path}", file=sys.stderr)
            return 2

    report = analyze_paths(args.paths, rules=all_rules())
    if args.quiet:
        print(report.format().splitlines()[-1])
    else:
        print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
