"""Command-line interface: ``repro-oasis``.

Sub-commands
------------
``generate``
    Write a synthetic SWISS-PROT-like database (and optionally a motif
    workload) to FASTA / text files.
``search``
    Run OASIS searches against a FASTA database and print the hits in
    decreasing score order.  ``--query`` searches one sequence; ``--queries``
    runs a whole file of them through ``search_many`` -- the plain serial
    loop for one worker, ``--workers N`` threads otherwise -- optionally with
    a per-query ``--timeout``.
    ``--database F`` builds one in-memory index over F; ``--index DIR``
    searches a persistent index built earlier, and ``--backend`` picks its
    scatter strategy (``serial``, the default: one search of the whole tree,
    or ``processes[:N]``: one task per root partition -- processes escape
    the GIL).
``index``
    Manage persistent indexes: ``index build`` writes one disk image of the
    database plus a self-describing catalog that records ``--shards``, the
    number of root partitions a process scatter searches side by side;
    ``index info`` prints a catalog's layout.
``experiment``
    Run one of the paper's experiments (figure3 .. figure9, space) and print
    its table.

Examples
--------
::

    repro-oasis generate --output proteins.fasta --queries workload.txt --seed 7
    repro-oasis search --database proteins.fasta --query MKVLAADTGLAV --evalue 20
    repro-oasis search --database proteins.fasta --queries workload.txt --workers 4
    repro-oasis index build --database proteins.fasta --output proteins.index --shards 4
    repro-oasis index info proteins.index
    repro-oasis search --index proteins.index --queries workload.txt --workers 4
    repro-oasis experiment figure4 --scale tiny
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import List, Optional

from repro.core.request import SearchRequest
from repro.scoring.data import available_matrices, load_matrix
from repro.scoring.gaps import DEFAULT_GAP_MODEL, FixedGapModel
from repro.sequences.fasta import read_fasta, write_fasta

DEFAULT_MATRIX = "PAM30"
DEFAULT_GAP = DEFAULT_GAP_MODEL.per_symbol

#: ``search`` flag (argparse dest) -> the :class:`SearchRequest` field it sets.
REQUEST_OPTIONS = {
    "evalue": "evalue",
    "min_score": "min_score",
    "max_results": "max_results",
    "timeout": "time_budget",
}

#: ``experiment`` name -> its driver module under :mod:`repro.experiments`.
EXPERIMENTS = {
    "figure3": "figure3",
    "figure4": "figure4",
    "figure5": "figure5",
    "figure6": "figure6",
    "figure7": "figure7",
    "figure8": "figure8",
    "figure9": "figure9",
    "space": "table_space",
}


def _build_parser() -> argparse.ArgumentParser:
    from repro.experiments.scales import available_scales

    parser = argparse.ArgumentParser(
        prog="repro-oasis",
        description="OASIS (VLDB 2003) reproduction: accurate online local-alignment search.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-v: info, -vv: debug; default warnings only)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic protein database")
    generate.add_argument("--output", required=True, help="FASTA file to write")
    generate.add_argument("--queries", help="optional file to write a motif workload to")
    generate.add_argument("--families", type=int, default=25)
    generate.add_argument("--singletons", type=int, default=40)
    generate.add_argument("--query-count", type=int, default=100)
    generate.add_argument("--seed", type=int, default=0)

    search = subparsers.add_parser("search", help="search a FASTA database with OASIS")
    search.add_argument("--database", help="FASTA file with the target sequences")
    search.add_argument(
        "--index",
        help="persistent sharded index directory (from `index build`); "
        "replaces --database and skips all index construction",
    )
    queries = search.add_mutually_exclusive_group(required=True)
    queries.add_argument("--query", help="query sequence text")
    queries.add_argument("--queries", help="file with one query sequence per line (batch mode)")
    search.add_argument(
        "--matrix", default=None, choices=available_matrices(), help="substitution matrix"
    )
    search.add_argument("--gap", type=int, default=None, help="fixed gap penalty (negative)")
    selectivity = search.add_mutually_exclusive_group()
    selectivity.add_argument("--evalue", type=float, help="E-value cutoff (Equation 3)")
    selectivity.add_argument("--min-score", type=int, help="raw minimum alignment score")
    search.add_argument("--max-results", type=int, help="stop after this many hits (online mode)")
    search.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent search threads over the shared index (default 1)",
    )
    search.add_argument(
        "--timeout",
        type=float,
        help="per-query wall-clock budget in seconds (partial results are kept)",
    )
    search.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="scatter backend of the --index shards: serial (default) or "
        "processes[:N] (processes escape the GIL for CPU-bound search); "
        "requires --index",
    )
    search.add_argument(
        "--kernel",
        default=None,
        metavar="NAME",
        help="expansion kernel: compiled (default where gcc builds it: the "
        "live-cell kernel's column step in C), live (the same step in "
        "Python, the default elsewhere) or reference (the dense oracle both "
        "are parity-gated against: identical hits and counters, only "
        "slower); also via OASIS_KERNEL",
    )
    search.add_argument(
        "--trace",
        metavar="FILE",
        help="record a span trace of the run and write it to FILE as "
        "JSON lines (a header, then one span per line; check with "
        "`python -m repro.obs validate FILE`)",
    )
    search.add_argument(
        "--metrics",
        action="store_true",
        help="after the run, print the searches' own statistics to stderr: "
        "their counters summed (columns and nodes expanded, buffer-pool "
        "hits, misses and evictions), the query counts, exact p50/p90/p99 "
        "query latency and the peak RSS",
    )
    search.add_argument(
        "--slow-log",
        type=float,
        metavar="SECONDS",
        help="after the run, log every query whose span exceeded this many "
        "seconds to stderr with its per-phase time breakdown "
        "(expand/scatter/shard/merge)",
    )

    index = subparsers.add_parser("index", help="manage persistent sharded indexes")
    index_commands = index.add_subparsers(dest="index_command", required=True)

    index_build = index_commands.add_parser(
        "build", help="build a persistent sharded index directory"
    )
    index_build.add_argument("--database", required=True, help="FASTA file to index")
    index_build.add_argument("--output", required=True, help="index directory to create")
    index_build.add_argument(
        "--shards",
        type=int,
        default=1,
        help="number of partitions of the tree's root children that a "
        "process scatter searches side by side (the image is the same)",
    )
    index_build.add_argument(
        "--matrix",
        default=DEFAULT_MATRIX,
        choices=available_matrices(),
        help="substitution matrix the index will be served with",
    )
    index_build.add_argument(
        "--gap", type=int, default=DEFAULT_GAP, help="fixed gap penalty (negative)"
    )
    index_build.add_argument(
        "--block-size", type=int, default=2048, help="disk-image block size in bytes"
    )

    index_info = index_commands.add_parser("info", help="describe a sharded index")
    index_info.add_argument("directory", help="index directory (with catalog.json)")

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument("name", choices=list(EXPERIMENTS))
    experiment.add_argument(
        "--scale", default=None, choices=available_scales(), help="dataset scale"
    )
    return parser


def _command_generate(args: argparse.Namespace) -> int:
    from repro.datagen.motifs import MotifWorkloadGenerator
    from repro.datagen.protein import SwissProtLikeGenerator

    if args.query_count < 1:
        return _fail("generate", "--query-count must be at least 1")
    for path in filter(None, (args.output, args.queries)):
        directory = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(directory):
            return _fail("generate", f"cannot write {path}: no directory {directory}")
    try:
        generator = SwissProtLikeGenerator(
            seed=args.seed, family_count=args.families, singleton_count=args.singletons
        )
    except ValueError as error:
        return _fail("generate", error)
    database = generator.generate()
    write_fasta(database, args.output)
    print(
        f"wrote {len(database)} sequences ({database.total_symbols} residues) to {args.output}"
    )
    if args.queries:
        workload = MotifWorkloadGenerator(
            generator, seed=args.seed + 1, query_count=args.query_count
        ).generate()
        with open(args.queries, "w", encoding="utf-8") as handle:
            for query in workload:
                handle.write(query.text + "\n")
        print(f"wrote {len(workload)} queries to {args.queries}")
    return 0


def _read_query_file(path: str) -> List[str]:
    with open(path, "r", encoding="utf-8") as handle:
        queries = [line.strip() for line in handle]
    queries = [query for query in queries if query]
    if not queries:
        raise ValueError(f"no queries found in {path}")
    return queries


def _print_single_result(result) -> None:
    timed_out = bool(result.parameters.get("timed_out"))
    if not result.hits:
        if timed_out:
            print("no alignments found before the time budget ran out")
        else:
            print("no alignments above the threshold")
        return
    print(f"{'sequence':30s} {'score':>6s} {'E-value':>12s}")
    for hit in result:
        evalue = f"{hit.evalue:.3g}" if hit.evalue is not None else "-"
        print(f"{hit.sequence_identifier:30s} {hit.score:6d} {evalue:>12s}")
    print(
        f"\n{len(result)} hits in {result.elapsed_seconds:.3f}s "
        f"({result.columns_expanded} DP columns expanded)"
    )
    statistics = result.statistics
    buffer_requests = getattr(statistics, "buffer_hits", 0) + getattr(
        statistics, "buffer_misses", 0
    )
    if buffer_requests:
        print(
            f"buffer pool: {statistics.buffer_hits} hits, "
            f"{statistics.buffer_misses} misses, "
            f"{statistics.buffer_evictions} evictions "
            f"({statistics.buffer_hits / buffer_requests:.1%} hit ratio)"
        )
    if timed_out:
        print("warning: time budget exhausted -- the hit list is partial")


def _fail(command: str, error: object) -> int:
    """One ``repro-oasis COMMAND: error: ...`` line on stderr; the exit code."""
    print(f"repro-oasis {command}: error: {error}", file=sys.stderr)
    return 2


def _parse_kernel_arg(name: Optional[str]) -> Optional[str]:
    """A --kernel name; a ``ValueError`` if it is unknown or cannot run here."""
    if name is None:
        return None
    from repro.core.kernels import get_kernel

    return get_kernel(name).name


def _build_search_engine(args: argparse.Namespace):
    """Resolve --index / --database into a ready-to-search engine.

    Each branch imports the engine it builds: the sharding layer on
    ``--index`` (a ``--database`` search never loads it), the in-memory
    engine and its tree builder on ``--database`` only (an ``--index``
    search loads neither the builder nor NumPy).
    """
    kernel = _parse_kernel_arg(args.kernel)
    if args.index is not None:
        from repro.sharding import ShardedEngine

        # A persistent catalog is authoritative for its own configuration:
        # only an *explicit* --matrix/--gap is checked against it, and the
        # bundled FASTA replaces --database unless one is supplied.
        matrix = load_matrix(args.matrix) if args.matrix is not None else None
        gap_model = FixedGapModel(args.gap) if args.gap is not None else None
        database = read_fasta(args.database) if args.database is not None else None
        return ShardedEngine.open(
            args.index,
            database=database,
            matrix=matrix,
            gap_model=gap_model,
            # Refused by the engine's own scatter check, as from the library.
            backend=args.backend,
            kernel=kernel,
        )

    if args.database is None:
        raise ValueError("either --database or --index is required")
    if args.backend is not None:
        raise ValueError(
            "--backend selects the scatter strategy of a sharded index; "
            "it needs --index DIR"
        )
    database = read_fasta(args.database)
    matrix = load_matrix(args.matrix if args.matrix is not None else DEFAULT_MATRIX)
    gap_model = FixedGapModel(args.gap if args.gap is not None else DEFAULT_GAP)
    from repro.core.engine import OasisEngine

    return OasisEngine.build(database, matrix=matrix, gap_model=gap_model, kernel=kernel)


def _command_search(args: argparse.Namespace) -> int:
    if args.evalue is None and args.min_score is None:
        args.evalue = 10.0
    if args.workers < 1:
        return _fail("search", "--workers must be at least 1")
    if args.slow_log is not None and not args.slow_log >= 0:
        return _fail("search", f"--slow-log must be non-negative, not {args.slow_log}")
    # Validate the workload before opening any index: a bad --queries path
    # must not leak opened shard cursors.
    try:
        queries = [args.query] if args.query is not None else _read_query_file(args.queries)
    except (OSError, ValueError) as error:
        return _fail("search", error)
    # One request for the run (each query of a batch is this value with its
    # own text); an option it rejects is a usage error, not a traceback.
    try:
        template = SearchRequest(
            queries[0], **{name: getattr(args, flag) for flag, name in REQUEST_OPTIONS.items()}
        )
    except ValueError as error:
        return _fail("search", error)

    tracer = None
    if args.trace or args.slow_log is not None:
        from repro.obs import Tracer

        tracer = Tracer()

    try:
        engine = _build_search_engine(args)
    except (OSError, ValueError) as error:
        # A bad option, an input that cannot be read, or an index this code
        # cannot serve (no catalog, another configuration, another format,
        # not the image of its database) fails defined: never wrong hits.
        return _fail("search", error)
    if args.evalue is not None:
        # Equation 3's ratio K*m*n/E grows with the query length m: an
        # E-value that gives no finite score for the shortest query gives
        # none for any, so it is one usage error for the run, not one failed
        # row per query.
        try:
            engine.min_score_for(min(queries, key=len), args.evalue)
        except ValueError as error:
            engine.close()
            return _fail("search", error)

    # Single and batch mode both run through search_many; a lone query is
    # simply a batch of one.
    status = 0
    report = None
    try:
        report = engine.search_many(
            queries, workers=args.workers, tracer=tracer, template=template
        )
    except BaseException as error:
        # Ctrl-C: the queries that finished still have their numbers.
        report = getattr(error, "batch_report", None)
        raise
    finally:
        engine.close()
        # Also on the way out of an interrupted run (Ctrl-C): every span
        # closes as the exception unwinds, so the trace is still one tree.
        if tracer is not None:
            status = _emit_telemetry(args, tracer)
        if args.metrics and not status and report is not None:
            _emit_metrics(report)
    if status:
        return status

    if len(queries) == 1:
        try:
            report.raise_first_error()
        except ValueError as error:
            # A symbol outside the database's alphabet, or an E-value that
            # Equation 3 cannot turn into a score, is a usage error, like an
            # empty query; a batch reports it in the query's row instead.
            return _fail("search", error)
        _print_single_result(report.outcomes[0].result)
        return 0

    # Batch mode is fault-tolerant: a malformed query must not discard the
    # other results, so failures become rows instead of a traceback.
    print(f"{'query':40s} {'hits':>6s} {'best':>6s} {'seconds':>9s}")
    for outcome in report.outcomes:
        label = outcome.query if len(outcome.query) <= 40 else outcome.query[:37] + "..."
        if not outcome.ok:
            print(f"{label:40s} {'-':>6s} {'-':>6s} {'-':>9s} error: {outcome.error}")
            continue
        result = outcome.result
        flag = " (timeout)" if outcome.timed_out else ""
        print(
            f"{label:40s} {len(result):6d} {result.best_score:6d} "
            f"{outcome.elapsed_seconds:9.3f}{flag}"
        )
    print()
    print(report.format_summary())
    return 1 if report.statistics.failed else 0


def _emit_slow_log(threshold: float, tracer) -> None:
    """Log every query span over ``threshold`` with its phase breakdown."""
    from repro.obs import phase_breakdown, span_phase

    records = tracer.records()
    slow = sorted(
        (
            record
            for record in records
            if record.name == "query" and record.wall_seconds >= threshold
        ),
        key=lambda record: (-record.wall_seconds, record.span_id),
    )
    if not slow:
        return
    print(f"--- slow queries (>= {threshold:g}s) ---", file=sys.stderr)
    for record in slow:
        print(
            f"query span {record.span_id} wall={record.wall_seconds:.3f}s "
            f"cpu={record.cpu_seconds:.3f}s pid={record.pid} "
            f"phase={span_phase(record)} status={record.status}",
            file=sys.stderr,
        )
        breakdown = phase_breakdown(records, root_id=record.span_id)
        for phase in sorted(breakdown, key=lambda name: (-breakdown[name], name)):
            seconds = breakdown[phase]
            share = seconds / record.wall_seconds if record.wall_seconds else 0.0
            print(f"  {phase:8s} {seconds:8.3f}s {share:6.1%}", file=sys.stderr)


def _peak_rss_bytes() -> Optional[int]:
    """The process's peak resident set size (``VmHWM``), or ``None`` off Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _emit_metrics(report) -> None:
    """Print the batch's own statistics, then the peak RSS."""
    print("--- metrics ---", file=sys.stderr)
    print(report.format_metrics(), file=sys.stderr)
    peak = _peak_rss_bytes()
    if peak is not None:
        print(f"peak_rss_mb = {peak / 2**20:.1f}", file=sys.stderr)


def _emit_telemetry(args: argparse.Namespace, tracer) -> int:
    """Write the trace file and/or log the slow queries after a search.

    Returns 0, or the exit code of the one error line printed when the trace
    file cannot be written (its directory does not exist, say).
    """
    if args.slow_log is not None:
        _emit_slow_log(args.slow_log, tracer)
    if args.trace:
        from repro.obs.recording import Recording, write

        records = tracer.records()
        try:
            write(args.trace, Recording.of(records, reason="trace", trace_id=tracer.trace_id))
        except OSError as error:
            return _fail("search", f"cannot write the --trace file: {error}")
        print(f"wrote {len(records)} spans to {args.trace}", file=sys.stderr)
    return 0


def _command_index(args: argparse.Namespace) -> int:
    handlers = {"build": _command_index_build, "info": _command_index_info}
    return handlers[args.index_command](args)


def _command_index_build(args: argparse.Namespace) -> int:
    from repro.sharding import ShardedIndexBuilder

    if args.shards < 1:
        return _fail("index build", "--shards must be at least 1")
    try:
        # A bad block size or partition count is refused before anything is written.
        builder = ShardedIndexBuilder(
            load_matrix(args.matrix),
            FixedGapModel(args.gap),
            shard_count=args.shards,
            block_size=args.block_size,
        )
        database = read_fasta(args.database)
        catalog = builder.build(database, args.output)
    except (OSError, ValueError) as error:
        return _fail("index build", error)
    print(
        f"built index of {len(database)} sequences ({database.total_symbols} "
        f"residues, {catalog.partitions} partitions) in {args.output}"
    )
    return 0


def _command_index_info(args: argparse.Namespace) -> int:
    from repro.sharding import ShardCatalog
    from repro.storage import DiskLayout

    try:
        catalog = ShardCatalog.load(args.directory)
        image_path = catalog.image_path(args.directory)
        if os.path.exists(image_path):
            DiskLayout.read_header(image_path)
    except (OSError, ValueError) as error:
        # No catalog, a stale format, an image that is not one: one line.
        return _fail("index info", error)
    print(f"sharded index: {args.directory}")
    print(
        f"database: {catalog.database_name} ({catalog.sequence_count} sequences, "
        f"{catalog.total_residues} residues)"
    )
    print(
        f"configuration: matrix={catalog.matrix_name}, gap={catalog.gap_penalty}, "
        f"block_size={catalog.block_size}"
    )
    print(f"partitions: {catalog.partitions}")
    print(f"image: {os.path.relpath(image_path, args.directory)}")
    try:
        image_bytes = os.path.getsize(image_path)
    except OSError:
        print("on disk: missing")
        return 0
    print(
        f"on disk: {image_bytes:,d} bytes "
        f"({image_bytes / max(catalog.total_residues, 1):.1f} bytes/residue)"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import default_config

    try:
        config = default_config(args.scale)
    except ValueError as error:  # an unknown OASIS_BENCH_SCALE
        return _fail("experiment", error)
    module = importlib.import_module(f"repro.experiments.{EXPERIMENTS[args.name]}")
    print(module.run(config).format_table())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point used by the ``repro-oasis`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    from repro.obs.logsetup import configure_logging

    configure_logging(args.verbose)
    handlers = {
        "generate": _command_generate,
        "search": _command_search,
        "index": _command_index,
        "experiment": _command_experiment,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
