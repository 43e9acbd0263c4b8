"""A cold command run with the reference kernel around it, in one process.

    python3 bench_e2e/coldchild.py -m repro.cli search ...
    python3 bench_e2e/coldchild.py bench_e2e/oneshot.py ...
    python3 bench_e2e/coldchild.py -c "import repro.cli"

A cold spawn runs on whichever core is free, so the parent's calibration says
nothing about it.  This wrapper runs the frozen kernel three times before and
three times after the command, in the child itself, and prints the six
durations as the last line of stderr; the parent measures spawn -> exit and
divides by the slowdown they show.  Apart from the kernel runs (subtracted)
the child does what ``python3 -m repro.cli ...`` does: start the interpreter,
import, build or open, search, print.
"""

from __future__ import annotations

import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calib import reference_kernel  # noqa: E402


def main() -> int:
    before = [reference_kernel() for _ in range(3)]
    arguments = sys.argv[1:]
    status = 0
    try:
        if arguments[0] == "-m":
            sys.argv = arguments[1:]
            runpy.run_module(arguments[1], run_name="__main__", alter_sys=True)
        elif arguments[0] == "-c":
            exec(arguments[1], {"__name__": "__main__"})
        else:
            sys.argv = arguments
            runpy.run_path(arguments[0], run_name="__main__")
    except SystemExit as exit_request:
        code = exit_request.code
        status = code if isinstance(code, int) else (0 if code is None else 1)
        if isinstance(code, str):
            print(code, file=sys.stderr)
    sys.stdout.flush()
    after = [reference_kernel() for _ in range(3)]
    print("KERNEL " + " ".join(repr(value) for value in before + after), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
