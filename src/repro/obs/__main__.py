"""The telemetry tools' one entry point: ``python -m repro.obs <subcommand>``.

* ``validate [--tree] FILE`` -- load a recording (what ``search --trace``
  wrote) and check it structurally; ``--tree`` prints the span tree first.
* ``report [--markdown] [--top N] FILE`` -- validate, then replay it:
  header, span tree, span analysis.

Exit codes, both subcommands: 0 ok; 1 the file is unreadable, invalid or
empty, one problem per stderr line; 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.obs.recording import Recording, load, render, span_tree, validate


def _load_valid(path: str) -> Optional[Recording]:
    """The recording at ``path``, or ``None`` with the problems on stderr."""
    try:
        recording = load(path)
    except (OSError, ValueError) as error:
        print(f"unreadable recording {path}: {error}", file=sys.stderr)
        return None
    problems = validate(recording)
    for problem in problems:
        print(problem, file=sys.stderr)
    return None if problems else recording


def _validate(args: argparse.Namespace) -> int:
    recording = _load_valid(args.file)
    if recording is None:
        return 1
    if args.tree:
        print(span_tree(recording.spans))
    header = recording.header
    print(
        f"ok: {len(recording.spans)} spans "
        f"(reason={header['reason']}, trace {header.get('trace_id')})"
    )
    return 0


def _report(args: argparse.Namespace) -> int:
    recording = _load_valid(args.file)
    if recording is None:
        return 1
    print(render(recording, markdown=args.markdown, title=args.file, top=args.top))
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs", description="Read what the telemetry stack wrote."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate_cmd = commands.add_parser("validate", help="check a --trace file")
    validate_cmd.add_argument("file", metavar="FILE")
    validate_cmd.add_argument("--tree", action="store_true", help="print the span tree first")
    validate_cmd.set_defaults(handler=_validate)

    report_cmd = commands.add_parser("report", help="replay a --trace file")
    report_cmd.add_argument("file", metavar="FILE")
    report_cmd.add_argument("--markdown", action="store_true", help="markdown tables")
    report_cmd.add_argument(
        "--top", type=int, default=5, metavar="N", help="length of the slowest-query list"
    )
    report_cmd.set_defaults(handler=_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exit_request:
        # argparse exits 2 on usage errors already; normalise --help to 0.
        return int(exit_request.code or 0)
    try:
        return int(args.handler(args))
    except BrokenPipeError:  # reader (e.g. `| head`) closed the pipe early
        return 0


if __name__ == "__main__":
    sys.exit(main())
