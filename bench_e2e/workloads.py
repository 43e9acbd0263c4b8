"""The four workloads: how each is set up, queried, checked and traced.

All calls into the program go through its public surface (``OasisEngine``,
``ShardedIndexBuilder``, ``ShardedEngine``, ``DiskSuffixTree``, the CLI); the
program sees only the FASTA file and query strings :mod:`bench_e2e.data` made.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import OasisEngine, ShardedEngine, ShardedIndexBuilder, Tracer
from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.evalue import SelectivityConverter
from repro.scoring.data import load_matrix, nucleotide_matrix
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.fasta import read_fasta
from repro.sharding import ShardCatalog, ShardSpec, shard_pool_budgets
from repro.sharding.planner import slice_shard
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DEFAULT_BUFFER_POOL_BYTES, DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree

from bench_e2e import data
from bench_e2e.calib import CALIB_NOMINAL_S, Calibrator
from bench_e2e.oracle import HitList, Oracle, parse_fasta
from bench_e2e.trace import (
    LayerClock,
    QueryTrace,
    TimedCursor,
    TimedKernel,
    traced_query,
    write_spans,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BLOCK_SIZE = 2048
#: The paper's E = 20 000 refers to 40 M residues of SWISS-PROT; scaling it by
#: database size keeps the score threshold, as ``experiments/common.py`` does.
PAPER_EVALUE = 20_000.0
PAPER_RESIDUES = 40_000_000
SETUP_REPETITIONS = 5
COLD_SPAWNS = 7
WARMUP_QUERIES = 8
SIDE_QUERIES = 12          # the per-layer side measurements use the first 12 queries


@dataclass(frozen=True)
class Workload:
    """Why each was chosen is in ``BENCHMARK.json``."""

    name: str
    alphabet: str            # "protein" or "dna"
    shards: int              # 0: in-memory engine; n: persistent n-shard index
    tight_pool: bool = False  # buffer pool of 1/8 of the image instead of 256 MB


WORKLOADS: Tuple[Workload, ...] = (
    Workload("mem_motif", "protein", 0),
    Workload("disk_tight", "protein", 1, tight_pool=True),
    Workload("shard4_serial", "protein", 4),
    Workload("dna_long", "dna", 0),
)


def percentile(values: Sequence[float], percent: float) -> float:
    """Linear-interpolation percentile."""
    return float(np.percentile(values, percent))


@dataclass
class Sample:
    """One timed query."""

    query_index: int
    raw: float                       # execute() call -> iterator exhausted
    scale: float                     # calibrated / raw for this operation
    ready: float                     # execute() call -> return
    first: Optional[float]           # execute() call -> first hit, None without hits
    hits: HitList
    statistics: object               # the execution's OasisSearchStatistics


def stream_query(engine, query: str, kwargs: Dict[str, object]):
    """The timed operation: start a search, stream it to exhaustion."""
    start = time.perf_counter()
    execution = engine.execute(query, **kwargs)
    ready = time.perf_counter() - start
    first: Optional[float] = None
    hits: HitList = []
    for hit in execution:
        if first is None:
            first = time.perf_counter() - start
        hits.append((hit.sequence_identifier, hit.score))
    return hits, ready, first, execution


class Session:
    """One run of one workload: its inputs on disk, its engine, its clock."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, quick: bool):
        self.workload = workload
        self.work_dir = work_dir
        self.quick = quick
        count = 8 if quick else 60
        if workload.alphabet == "protein":
            self.inputs = data.protein_inputs(seed, count)
        else:
            self.inputs = data.dna_inputs(seed, count)
        self.queries = list(self.inputs.queries)
        self.fasta_path = os.path.join(work_dir, "database.fasta")
        with open(self.fasta_path, "w", encoding="utf-8") as handle:
            handle.write(self.inputs.fasta)
        self.index_dir = os.path.join(work_dir, "index")
        self.calibrator = Calibrator()
        self.evalue = PAPER_EVALUE * self.inputs.residues / PAPER_RESIDUES
        self.attempted = 0
        self.failed = 0
        self.reference: List[HitList] = []
        self.min_scores: List[int] = []
        self.hits_digest = ""

    # ------------------------------------------------------------------ #
    # The program's configuration for this workload
    # ------------------------------------------------------------------ #
    def read_database(self):
        alphabet = PROTEIN_ALPHABET if self.workload.alphabet == "protein" else DNA_ALPHABET
        return read_fasta(self.fasta_path, alphabet=alphabet)

    def scoring(self):
        if self.workload.alphabet == "protein":
            return load_matrix("PAM30"), FixedGapModel(-8)
        return nucleotide_matrix(1, -3), FixedGapModel(-4)

    def search_kwargs(self, query: str) -> Dict[str, object]:
        if self.workload.alphabet == "protein":
            return {"evalue": self.evalue}
        return {"min_score": max(16, int(0.45 * len(query)))}

    def pool_bytes(self) -> int:
        if not self.workload.tight_pool:
            return DEFAULT_BUFFER_POOL_BYTES
        return math.ceil(self.image_bytes() / 8)

    def image_paths(self) -> List[str]:
        if self.workload.shards == 0:
            return [os.path.join(self.work_dir, "memory.oasis")]
        catalog = ShardCatalog.load(self.index_dir)
        return [catalog.shard_image_path(self.index_dir, entry) for entry in catalog.shards]

    def image_bytes(self) -> int:
        return sum(os.path.getsize(path) for path in self.image_paths())

    def setup(self):
        """FASTA on disk -> engine ready: what ``setup_s`` times."""
        database = self.read_database()
        matrix, gap_model = self.scoring()
        if self.workload.shards == 0:
            return OasisEngine.build(database, matrix, gap_model)
        shutil.rmtree(self.index_dir, ignore_errors=True)
        ShardedIndexBuilder(
            matrix, gap_model, shard_count=self.workload.shards, block_size=BLOCK_SIZE
        ).build(database, self.index_dir)
        return ShardedEngine.open(
            self.index_dir, buffer_pool_bytes=self.pool_bytes(), backend="serial"
        )

    @staticmethod
    def close(engine) -> None:
        close = getattr(engine, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------ #
    # Timed passes
    # ------------------------------------------------------------------ #
    def warm_up(self, engine) -> None:
        for query in self.queries[:WARMUP_QUERIES]:
            stream_query(engine, query, self.search_kwargs(query))

    def timed_pass(self, engine, queries: Optional[Sequence[int]] = None) -> List[Sample]:
        """One closed-loop pass, one client, every operation calibrated."""
        gc.collect()
        samples: List[Sample] = []
        indices = range(len(self.queries)) if queries is None else queries
        for index in indices:
            query = self.queries[index]
            kwargs = self.search_kwargs(query)
            (hits, ready, first, execution), raw, calibrated = self.calibrator.timed(
                lambda: stream_query(engine, query, kwargs)
            )
            samples.append(
                Sample(index, raw, calibrated / raw, ready, first, hits, execution.statistics)
            )
        return samples

    def timed_passes(self, engine, seconds: float, least: int) -> List[List[Sample]]:
        """Whole passes, as many as end within ``seconds``, and at least ``least``."""
        passes: List[List[Sample]] = []
        start = time.perf_counter()
        longest = 0.0
        while len(passes) < least or time.perf_counter() - start + longest <= seconds:
            began = time.perf_counter()
            passes.append(self.timed_pass(engine))
            longest = max(longest, time.perf_counter() - began)
        return passes

    # ------------------------------------------------------------------ #
    # Correctness
    # ------------------------------------------------------------------ #
    def build_oracle(self, engine) -> None:
        """Reference hit lists, computed once per query set.  The thresholds
        are the program's own (``min_score_for`` for an E-value cut-off)."""
        matrix, gap_model = self.scoring()
        symbols = "".join(sorted(set(self.inputs.fasta) & set(matrix.alphabet.symbols)))
        scores = {(a, b): matrix.score(a, b) for a in symbols for b in symbols}
        oracle = Oracle(parse_fasta(self.inputs.fasta), symbols, scores, gap_model.per_symbol)
        self.min_scores = [
            self.search_kwargs(query).get("min_score") or engine.min_score_for(query, self.evalue)
            for query in self.queries
        ]
        self.reference = [
            oracle.hits(query, min_score)
            for query, min_score in zip(self.queries, self.min_scores)
        ]

    def check(self, query_index: int, hits: HitList) -> None:
        """Count one operation, failed if its hit list is not the reference's."""
        self.attempted += 1
        if hits != self.reference[query_index]:
            self.failed += 1
            print(
                f"MISMATCH {self.workload.name} query {query_index} "
                f"{self.queries[query_index]!r}: got {hits[:3]}... "
                f"want {self.reference[query_index][:3]}...",
                file=sys.stderr,
            )

    def check_passes(self, passes: List[List[Sample]], engine) -> None:
        self.build_oracle(engine)
        listing = json.dumps([sample.hits for sample in passes[0]])
        self.hits_digest = hashlib.sha256(listing.encode()).hexdigest()
        for samples in passes:
            for sample in samples:
                self.check(sample.query_index, sample.hits)

    # ------------------------------------------------------------------ #
    # Cold spawns
    # ------------------------------------------------------------------ #
    def child_environment(self) -> Dict[str, str]:
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(ROOT, "src")
        environment["PYTHONHASHSEED"] = "0"
        environment.pop("OASIS_KERNEL", None)
        return environment

    def cold(self, arguments: List[str]) -> Tuple[float, float, str]:
        """One cold child through ``coldchild.py``.

        Returns spawn -> exit in raw seconds (the wrapper's own kernel runs
        taken off), the same divided by the slowdown those kernel runs show,
        and the child's stdout.  A non-zero exit raises.
        """
        command = [sys.executable, os.path.join(ROOT, "bench_e2e", "coldchild.py"), *arguments]
        start = time.perf_counter()
        finished = subprocess.run(
            command, cwd=ROOT, env=self.child_environment(), capture_output=True,
            text=True, timeout=120,
        )
        elapsed = time.perf_counter() - start
        if finished.returncode != 0:
            raise RuntimeError(
                f"{' '.join(command)} exited {finished.returncode}: {finished.stderr[-400:]}"
            )
        kernel = [float(value) for value in finished.stderr.splitlines()[-1].split()[1:]]
        net = elapsed - sum(kernel)
        slowdown = (min(kernel[:3]) + min(kernel[3:])) / 2.0 / CALIB_NOMINAL_S
        return net, net / slowdown, finished.stdout

    def source_arguments(self) -> List[str]:
        if self.workload.shards == 0:
            return ["--database", self.fasta_path]
        return ["--index", self.index_dir]

    def cli_arguments(self, query_index: int) -> List[str]:
        """The cold command a user would type for this workload."""
        if self.workload.alphabet == "dna":        # the CLI is protein-only
            return self.oneshot_arguments(query_index)
        return ["-m", "repro.cli", "search", *self.source_arguments(),
                "--query", self.queries[query_index], "--evalue", repr(self.evalue)]

    def oneshot_arguments(self, query_index: int) -> List[str]:
        return [os.path.join(ROOT, "bench_e2e", "oneshot.py"),
                "--alphabet", self.workload.alphabet, *self.source_arguments(),
                "--query", self.queries[query_index],
                "--min-score", str(self.min_scores[query_index])]

    @staticmethod
    def parse_hits(stdout: str) -> HitList:
        """``identifier score`` rows of the CLI's table or of ``oneshot.py``."""
        hits: HitList = []
        for line in stdout.splitlines():
            fields = line.split()
            if len(fields) >= 2 and fields[1].lstrip("-").isdigit():
                hits.append((fields[0], int(fields[1])))
        return hits

    def cold_spawns(
        self, count: int, arguments: Callable[[int], List[str]]
    ) -> Tuple[List[float], List[float]]:
        """``count`` cold spawns, each over another of the median-length
        queries, each checked against the oracle; raw and calibrated seconds."""
        median_length = sorted(len(query) for query in self.queries)[len(self.queries) // 2]
        chosen = [i for i, query in enumerate(self.queries) if len(query) == median_length]
        raws: List[float] = []
        calibrated: List[float] = []
        for spawn_index in range(count):
            query_index = chosen[spawn_index % len(chosen)]
            try:
                raw, seconds, stdout = self.cold(arguments(query_index))
            except (RuntimeError, subprocess.TimeoutExpired) as error:
                print(f"COLD SPAWN FAILED: {error}", file=sys.stderr)
                self.attempted += 1
                self.failed += 1
                continue
            self.check(query_index, self.parse_hits(stdout))
            raws.append(raw)
            calibrated.append(seconds)
        return raws, calibrated


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# End-to-end metrics (--trace 0)
# ---------------------------------------------------------------------- #
def pooled(passes: List[List[Sample]]) -> List[Sample]:
    return [sample for samples in passes for sample in samples]


def query_metrics(passes: List[List[Sample]], calibrated: bool) -> Dict[str, float]:
    """The four query metrics, from calibrated or from raw times."""
    samples = pooled(passes)
    scale = (lambda s: s.scale) if calibrated else (lambda s: 1.0)
    totals = [s.raw * scale(s) for s in samples]
    firsts = [s.first * scale(s) for s in samples if s.first is not None]
    pass_seconds = [sum(s.raw * scale(s) for s in one) for one in passes]
    return {
        "query_p50_ms": percentile(totals, 50) * 1e3,
        "query_p90_ms": percentile(totals, 90) * 1e3,
        "first_hit_p50_ms": percentile(firsts, 50) * 1e3 if firsts else 0.0,
        "queries_per_s": len(passes[0]) / statistics.median(pass_seconds),
    }


def measure_setup(session: Session):
    """``SETUP_REPETITIONS`` calibrated set-ups; the last engine is kept."""
    raws: List[float] = []
    calibrated: List[float] = []
    engine = None
    for _ in range(SETUP_REPETITIONS):
        if engine is not None:
            session.close(engine)
        gc.collect()
        engine, raw, seconds = session.calibrator.timed(session.setup)
        raws.append(raw)
        calibrated.append(seconds)
    return engine, statistics.median(raws), statistics.median(calibrated)


def end_to_end(session: Session, seconds: float, report: List[str]) -> Dict[str, float]:
    workload = session.workload
    quick = session.quick
    engine, raw_setup, setup_s = measure_setup(session)
    try:
        session.warm_up(engine)
        passes = session.timed_passes(engine, 0.0 if quick else seconds, least=2)
        rss = peak_rss_mb()
        session.check_passes(passes, engine)
        metrics = query_metrics(passes, calibrated=True)
        metrics["setup_s"] = setup_s

        if workload.shards == 0:
            build_disk_image(engine.cursor, session.image_paths()[0], block_size=BLOCK_SIZE)
        metrics["index_bytes_per_residue"] = session.image_bytes() / session.inputs.residues
        metrics["peak_rss_mb"] = rss

        _, cold = session.cold_spawns(3 if quick else COLD_SPAWNS, session.cli_arguments)
        metrics["cold_total_p50_ms"] = statistics.median(cold) * 1e3 if cold else 0.0
    finally:
        session.close(engine)

    samples = pooled(passes)
    with_hits = sum(1 for s in samples if s.first is not None)
    report.append(
        f"# {workload.name}: {len(passes[0])} queries x {len(passes)} passes = "
        f"{len(samples)} timed operations; first hit over {with_hits} of them; "
        f"{SETUP_REPETITIONS} set-ups; {len(cold)} cold spawns; "
        f"{session.inputs.residues} residues; raw set-up {raw_setup:.4f} s; "
        f"host slowdown p50 {percentile(session.calibrator.slowdowns(), 50):.2f}"
    )
    return metrics


# ---------------------------------------------------------------------- #
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------- #
def traced_engine(session: Session, clock: LayerClock):
    """The workload's engine rebuilt around the timing proxies."""
    workload = session.workload
    database = session.read_database()
    matrix, gap_model = session.scoring()
    kernel = TimedKernel(clock)
    if workload.shards == 0:
        cursor = TimedCursor(GeneralizedSuffixTree.build(database), clock, "suffixtree.cursor")
        return OasisEngine(cursor, matrix, gap_model, kernel=kernel)
    catalog = ShardCatalog.load(session.index_dir)
    converter = SelectivityConverter(
        matrix, database, effective_database_size=database.total_symbols
    )
    budgets = shard_pool_budgets(
        session.pool_bytes(), [entry.residues for entry in catalog.shards], catalog.block_size
    )
    shards = []
    for entry, budget in zip(catalog.shards, budgets):
        spec = ShardSpec(
            index=entry.index, start_sequence=entry.start_sequence,
            stop_sequence=entry.stop_sequence, residues=entry.residues,
        )
        disk = DiskSuffixTree(
            catalog.shard_image_path(session.index_dir, entry),
            slice_shard(database, spec),
            buffer_pool_bytes=budget,
        )
        cursor = TimedCursor(disk, clock, "storage.cursor")
        shards.append(OasisEngine(cursor, matrix, gap_model, converter=converter, kernel=kernel))
    return ShardedEngine(
        shards, database, matrix, gap_model, converter=converter, catalog=catalog,
        directory=session.index_dir, backend="serial", shard_buffer_bytes=budgets,
    )


def traced_pass(session: Session, engine, clock: LayerClock) -> List[QueryTrace]:
    """One pass with the proxies in, every answer checked; returns the spans.

    In-memory engines stream as in the timed passes.  Sharded engines take the
    ``.result()`` path on the serial backend, where the shard searches run one
    after another, so their elapsed times are disjoint and what is left of the
    wall is scatter and merge.
    """
    sharded = session.workload.shards > 0
    traces: List[QueryTrace] = []

    def scatter_merge(result, wall: float) -> Dict[str, Tuple[float, int]]:
        inside = sum(shard["elapsed_seconds"] for shard in result.parameters["shard_stats"])
        return {"sharding.scatter_merge": (max(0.0, wall - inside), 1)}

    gc.collect()
    for index, query in enumerate(session.queries):
        kwargs = session.search_kwargs(query)
        if sharded:
            operation = lambda: engine.execute(query, **kwargs).result()  # noqa: E731
        else:
            operation = lambda: stream_query(engine, query, kwargs)[0]  # noqa: E731
        (value, trace), raw, calibrated = session.calibrator.timed(
            lambda: traced_query(clock, index, operation, scatter_merge if sharded else None)
        )
        trace.scale = calibrated / raw
        hits = [(hit.sequence_identifier, hit.score) for hit in value.hits] if sharded else value
        session.check(index, hits)
        traces.append(trace)
    return traces


def layer_setup(session: Session, metrics: Dict[str, float]):
    """Time each layer's part of the set-up on its own; returns the engine."""
    timed = session.calibrator.timed
    workload = session.workload
    database, _, seconds = timed(session.read_database)
    metrics["sequences.read_fasta_ms"] = seconds * 1e3

    def scoring():
        matrix, gap_model = session.scoring()
        return matrix, gap_model, SelectivityConverter(matrix, database)

    (matrix, gap_model, converter), _, seconds = timed(scoring)
    metrics["scoring.setup_ms"] = seconds * 1e3

    tree, _, seconds = timed(lambda: GeneralizedSuffixTree.build(database))
    metrics["suffixtree.build_s"] = seconds
    metrics["suffixtree.nodes_per_residue"] = tree.node_count / session.inputs.residues

    image = os.path.join(session.work_dir, "memory.oasis")
    _, _, seconds = timed(lambda: build_disk_image(tree, image, block_size=BLOCK_SIZE))
    metrics["storage.image_write_s"] = seconds
    disk, _, seconds = timed(lambda: DiskSuffixTree(image, database))
    metrics["storage.open_ms"] = seconds * 1e3
    disk.close()

    if workload.shards == 0:
        return OasisEngine(tree, matrix, gap_model)

    builder = ShardedIndexBuilder(
        matrix, gap_model, shard_count=workload.shards, block_size=BLOCK_SIZE
    )
    _, _, seconds = timed(lambda: builder.build(database, session.index_dir))
    metrics["sharding.build_s"] = seconds
    _, _, seconds = timed(
        lambda: ShardCatalog.load(session.index_dir).check_database(database)
    )
    metrics["sharding.catalog_check_ms"] = seconds * 1e3
    engine, _, seconds = timed(
        lambda: ShardedEngine.open(
            session.index_dir, buffer_pool_bytes=session.pool_bytes(), backend="serial"
        )
    )
    metrics["sharding.open_ms"] = seconds * 1e3
    return engine


def side_measurements(session: Session, engine, metrics: Dict[str, float]) -> None:
    """Small comparisons over the first ``SIDE_QUERIES`` queries."""
    workload = session.workload
    timed = session.calibrator.timed
    side = list(range(min(SIDE_QUERIES, len(session.queries))))
    queries = [session.queries[i] for i in side]

    # scoring: the E-value -> min_score conversion each protein query pays.
    if workload.alphabet == "protein":
        _, _, seconds = timed(
            lambda: [engine.min_score_for(q, session.evalue) for q in queries * 8]
        )
        metrics["scoring.min_score_us"] = seconds / (len(queries) * 8) * 1e6

    # The plain loop every comparison below is against; it also gives
    # core.result_ms, collecting a finished stream into a SearchResult.
    streams: List[float] = []
    collects: List[float] = []
    columns: List[int] = []

    def plain() -> None:
        for query in queries:
            start = time.perf_counter()
            execution = engine.execute(query, **session.search_kwargs(query))
            for _ in execution:
                pass
            streamed = time.perf_counter()
            execution.result()
            collects.append(time.perf_counter() - streamed)
            streams.append(streamed - start)
            columns.append(execution.statistics.columns_expanded)

    _, raw, seconds = timed(plain)
    scale = seconds / raw
    base_seconds = sum(streams) * scale
    metrics["core.result_ms"] = statistics.mean(collects) * scale * 1e3

    # obs: what an enabled tracer costs.
    tracer = Tracer()

    def traced() -> None:
        for query in queries:
            for _ in engine.execute(query, tracer=tracer, **session.search_kwargs(query)):
                pass

    _, _, seconds = timed(traced)
    metrics["obs.tracer_overhead_share"] = seconds / base_seconds - 1.0

    # baselines: paper Figure 3's quantity, and a second opinion on the oracle.
    matrix, gap_model = session.scoring()
    aligner = SmithWatermanAligner(matrix, gap_model)
    database = engine.database
    few = side[:4]

    def scan() -> List[HitList]:
        return [
            sorted(
                ((hit.sequence_identifier, hit.score)
                 for hit in aligner.search(database, session.queries[i], session.min_scores[i])),
                key=lambda hit: (-hit[1], hit[0]),
            )
            for i in few
        ]

    lists, _, seconds = timed(scan)
    for index, hits in zip(few, lists):
        session.check(index, hits)
    metrics["baselines.sw_over_oasis_ratio"] = seconds / (sum(streams[: len(few)]) * scale)

    if workload.name == "mem_motif":
        # parallel: two threads over one in-memory index against the plain loop.
        kwargs = {"evalue": session.evalue}
        report, _, seconds = timed(lambda: engine.search_many(queries, workers=2, **kwargs))
        for index, outcome in zip(side, report.outcomes):
            hits = [(h.sequence_identifier, h.score) for h in outcome.result.hits]
            session.check(index, hits)
        metrics["parallel.threads2_speedup"] = base_seconds / seconds
        _, _, one = timed(lambda: engine.search_many(queries, workers=1, **kwargs))
        metrics["parallel.executor_overhead_us_per_query"] = (
            (one - base_seconds) / len(queries) * 1e6
        )

    if workload.shards > 0:
        # The same queries on an in-memory engine over the same database.
        memory = OasisEngine.build(session.read_database(), *session.scoring())
        session.warm_up(memory)
        reference = session.timed_pass(memory, side)
        memory_seconds = sum(s.raw * s.scale for s in reference)
        memory_columns = sum(s.statistics.columns_expanded for s in reference)
        metrics["storage.disk_over_mem_ratio"] = base_seconds / memory_seconds
        metrics["sharding.work_amplification"] = sum(columns) / memory_columns

        # The scatter path the CLI takes: execute(q).result() on the backend.
        walls: List[float] = []
        inside: List[float] = []
        slowest: List[float] = []

        def scatter() -> None:
            for index in side:
                query = session.queries[index]
                start = time.perf_counter()
                result = engine.execute(query, **session.search_kwargs(query)).result()
                walls.append(time.perf_counter() - start)
                elapsed = [s["elapsed_seconds"] for s in result.parameters["shard_stats"]]
                inside.append(sum(elapsed))
                slowest.append(max(elapsed) / sum(elapsed))
                session.check(index, [(h.sequence_identifier, h.score) for h in result.hits])

        _, raw, seconds = timed(scatter)
        metrics["sharding.result_path_p50_ms"] = percentile(walls, 50) * (seconds / raw) * 1e3
        metrics["sharding.scatter_overhead_share"] = 1.0 - sum(inside) / sum(walls)
        metrics["sharding.slowest_shard_share"] = statistics.mean(slowest)


def cold_layers(session: Session, metrics: Dict[str, float]) -> None:
    """Cold spawns: the full command, the one-shot script, a bare CLI import."""
    rounds = 1 if session.quick else 2
    raws, cold = session.cold_spawns(rounds, session.cli_arguments)
    metrics["raw.cold_total_p50_ms"] = statistics.median(raws) * 1e3 if raws else 0.0
    if session.workload.alphabet != "protein":
        return
    _, oneshot = session.cold_spawns(rounds, session.oneshot_arguments)
    if cold and oneshot:
        metrics["cli.overhead_ms"] = (statistics.median(cold) - statistics.median(oneshot)) * 1e3
    imports = [session.cold(["-c", "import repro.cli"])[1] for _ in range(rounds)]
    metrics["cli.import_ms"] = statistics.median(imports) * 1e3


def trace_metrics(
    workload: Workload, traces: List[QueryTrace], passes: List[List[Sample]],
    metrics: Dict[str, float],
) -> int:
    """Shares and unit costs from the traced pass, in calibrated seconds (every
    span times its query's scale); returns how many layers had child spans."""
    wall = sum(trace.wall * trace.scale for trace in traces)
    remainder = sum(trace.remainder() * trace.scale for trace in traces)
    layers: Dict[str, Tuple[float, int]] = {}
    for trace in traces:
        if trace.remainder() < 0:
            raise AssertionError(f"query {trace.trace_id}: child spans exceed the root span")
        for layer, (busy, calls) in trace.layers.items():
            total, total_calls = layers.get(layer, (0.0, 0))
            layers[layer] = (total + busy * trace.scale, total_calls + calls)
    columns = sum(s.statistics.columns_expanded for s in passes[0])
    children = sum(s.statistics.nodes_enqueued + s.statistics.nodes_pruned for s in passes[0])
    kernel_busy, _ = layers.get("core.kernels", (0.0, 0))
    metrics["core.kernel_share"] = kernel_busy / wall
    metrics["core.kernel_us_per_column"] = kernel_busy / columns * 1e6
    metrics["core.frontier_share"] = remainder / wall
    metrics["core.frontier_us_per_node"] = remainder / children * 1e6
    cursor_layer = "suffixtree" if workload.shards == 0 else "storage"
    cursor_busy, cursor_calls = layers.get(f"{cursor_layer}.cursor", (0.0, 1))
    metrics[f"{cursor_layer}.cursor_share"] = cursor_busy / wall
    metrics[f"{cursor_layer}.cursor_us_per_call"] = cursor_busy / cursor_calls * 1e6
    scatter_busy, _ = layers.get("sharding.scatter_merge", (0.0, 0))
    metrics["sharding.scatter_merge_share"] = scatter_busy / wall
    timed_pass = statistics.median(sum(s.raw * s.scale for s in one) for one in passes)
    metrics["trace.overhead_share"] = wall / timed_pass - 1.0
    return len(layers)


def per_layer(
    session: Session, seconds: float, names: Sequence[str], report: List[str], spans_path: str
) -> Dict[str, float]:
    workload = session.workload
    metrics: Dict[str, float] = dict.fromkeys(names, 0.0)
    whole, metrics["raw.setup_s"], _ = session.calibrator.timed(session.setup)
    session.close(whole)
    engine = layer_setup(session, metrics)
    try:
        session.warm_up(engine)
        passes = session.timed_passes(engine, 0.0 if session.quick else seconds / 3.0, least=1)
        session.check_passes(passes, engine)
        samples = pooled(passes)
        for name, value in query_metrics(passes, calibrated=False).items():
            metrics[f"raw.{name}"] = value

        # core: exact work counters and the cost of a column.
        count = len(samples)
        columns = sum(s.statistics.columns_expanded for s in samples)
        calibrated_total = sum(s.raw * s.scale for s in samples)
        metrics["core.columns_per_query"] = columns / count
        metrics["core.nodes_expanded_per_query"] = sum(s.statistics.nodes_expanded for s in samples) / count
        metrics["core.nodes_enqueued_per_query"] = sum(s.statistics.nodes_enqueued for s in samples) / count
        metrics["core.nodes_pruned_per_query"] = sum(s.statistics.nodes_pruned for s in samples) / count
        metrics["core.max_queue_size_p50"] = percentile([s.statistics.max_queue_size for s in samples], 50)
        metrics["core.us_per_column"] = calibrated_total / columns * 1e6
        metrics["core.execute_setup_us"] = percentile([s.ready * s.scale for s in samples], 50) * 1e6

        # storage: exact buffer-pool counts of the timed passes.
        requests = sum(s.statistics.buffer_hits + s.statistics.buffer_misses for s in samples)
        if requests:
            misses = sum(s.statistics.buffer_misses for s in samples)
            metrics["storage.pool_hit_ratio"] = 1.0 - misses / requests
            metrics["storage.pool_misses_per_query"] = misses / count
            metrics["storage.pool_evictions_per_query"] = sum(s.statistics.buffer_evictions for s in samples) / count
            metrics["storage.pool_requests_per_column"] = requests / columns

        side_measurements(session, engine, metrics)
        cold_layers(session, metrics)

        # The traced pass.
        clock = LayerClock()
        traced = traced_engine(session, clock)
        try:
            session.warm_up(traced)
            traces = traced_pass(session, traced, clock)
        finally:
            session.close(traced)
    finally:
        session.close(engine)

    write_spans(spans_path, traces)
    layer_count = trace_metrics(workload, traces, passes, metrics)

    slowdowns = session.calibrator.slowdowns()
    metrics["calib.slowdown_p50"] = percentile(slowdowns, 50)
    metrics["calib.slowdown_p90"] = percentile(slowdowns, 90)
    metrics["calib.nominal_s"] = CALIB_NOMINAL_S
    report.append(
        f"# {workload.name}: {len(passes[0])} queries x {len(passes)} untraced passes, "
        f"1 traced pass of {len(traces)} queries ({len(traces) * (layer_count + 2)} spans "
        f"written to {os.path.relpath(spans_path, ROOT)}), side measurements over "
        f"{min(SIDE_QUERIES, len(session.queries))} queries"
    )
    return {name: metrics[name] for name in names}
