"""Shared experiment configuration, dataset construction and engine calls.

Every experiment of Section 4 runs against the same kind of dataset: a
SWISS-PROT-like protein database, a ProClass-like short-query workload, PAM30
scoring with a fixed gap penalty, and selectivity expressed as an E-value.
This module owns that setup, the datasets of the scale presets
(:mod:`repro.experiments.scales`; the paper's 40 M residues are far beyond
what a pure-Python suffix tree can index in a benchmark run), a small cache
so that the per-figure benchmarks that share a configuration also share the
constructed index, and the two helpers the figures time the engines with:
:func:`searches` and :func:`means_by_length`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.baselines.blast import BlastLikeSearch
from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.results import SearchResult
from repro.datagen.motifs import MotifWorkload, MotifWorkloadGenerator
from repro.datagen.protein import SwissProtLikeGenerator
from repro.experiments.scales import SCALE_ENVIRONMENT_VARIABLE, SCALE_PRESETS, available_scales
from repro.scoring.data import load_matrix
from repro.scoring.gaps import FixedGapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase

# The paper's setup: PAM30, a fixed gap penalty, an E-value of 20 000 (the
# BLAST-recommended value for short protein queries) and a short-peptide
# workload.
SEED = 7
MATRIX_NAME = "PAM30"
GAP_PENALTY = -8
EVALUE = 20_000.0
QUERY_LENGTH_RANGE = (6, 56)
QUERY_MEAN_LENGTH = 16.0
#: Block size of the disk images of Figures 7-8 and the space table.
BLOCK_SIZE = 2048
#: The SWISS-PROT size the paper's E-values refer to.  E-values scale with
#: the search space (Equation 2), so quoting "E = 20 000" against a
#: scaled-down synthetic database would make the threshold vacuous; scaling E
#: by ``our size / paper size`` keeps the *score threshold* (Equation 3) --
#: and therefore the selectivity the paper configured -- unchanged.
PAPER_DATABASE_SIZE = 40_000_000


def effective_evalue(database_symbols: int, evalue: float = EVALUE) -> float:
    """Translate a paper E-value into one appropriate for our database size."""
    return evalue * database_symbols / PAPER_DATABASE_SIZE


@dataclass(frozen=True)
class ExperimentConfig:
    """What a caller may vary about an experiment; the rest is the paper's setup."""

    scale: str = "small"
    query_count: Optional[int] = None
    #: Seconds charged per buffer-pool miss by Figure 7 (a 2003-era disk seek).
    simulated_miss_latency: float = 0.005

    def __post_init__(self) -> None:
        if self.scale not in SCALE_PRESETS:
            raise ValueError(
                f"unknown scale {self.scale!r}; available: {', '.join(available_scales())}"
            )

    def preset(self) -> Dict[str, int]:
        return SCALE_PRESETS[self.scale]

    def effective_query_count(self) -> int:
        return self.query_count if self.query_count is not None else self.preset()["query_count"]


def default_config(scale: Optional[str] = None, **overrides) -> ExperimentConfig:
    """The default configuration, honouring ``OASIS_BENCH_SCALE``."""
    if scale is None:
        scale = os.environ.get(SCALE_ENVIRONMENT_VARIABLE, "small")
    return replace(ExperimentConfig(scale=scale), **overrides)


@dataclass
class ProteinDataset:
    """Everything the protein experiments need, constructed once."""

    config: ExperimentConfig
    database: SequenceDatabase
    workload: MotifWorkload
    matrix: SubstitutionMatrix
    gap_model: FixedGapModel
    converter: SelectivityConverter
    engine: OasisEngine = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def database_symbols(self) -> int:
        return self.database.total_symbols

    @cached_property
    def blast(self) -> BlastLikeSearch:
        """The BLAST-like baseline, its word index built on first use."""
        return BlastLikeSearch(
            self.database, self.matrix, self.gap_model, statistics=self.converter.parameters
        )


_DATASET_CACHE: Dict[Tuple, ProteinDataset] = {}


def build_protein_dataset(config: Optional[ExperimentConfig] = None) -> ProteinDataset:
    """Build (or fetch from cache) the dataset for a configuration.

    The OASIS in-memory index is built eagerly because almost every experiment
    needs it; the disk-resident index of Figures 7-8 is built by those
    experiments on top of the same database.
    """
    config = config or default_config()
    key = (config.scale, config.query_count)
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        return cached

    preset = config.preset()
    generator = SwissProtLikeGenerator(
        seed=SEED,
        family_count=preset["family_count"],
        members_per_family=(preset["members_low"], preset["members_high"]),
        ancestor_length=(preset["ancestor_low"], preset["ancestor_high"]),
        singleton_count=preset["singleton_count"],
        singleton_length=(preset["singleton_low"], preset["singleton_high"]),
    )
    database = generator.generate()
    workload = MotifWorkloadGenerator(
        generator,
        seed=SEED + 1,
        query_count=config.effective_query_count(),
        length_range=QUERY_LENGTH_RANGE,
        mean_length=QUERY_MEAN_LENGTH,
    ).generate()

    matrix = load_matrix(MATRIX_NAME)
    gap_model = FixedGapModel(GAP_PENALTY)
    converter = SelectivityConverter(matrix, database)
    engine = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
    # Reuse the engine's converter so every engine shares identical statistics.
    engine.converter = converter

    dataset = ProteinDataset(
        config=config,
        database=database,
        workload=workload,
        matrix=matrix,
        gap_model=gap_model,
        converter=converter,
        engine=engine,
    )
    _DATASET_CACHE[key] = dataset
    return dataset


def clear_dataset_cache() -> None:
    """Drop cached datasets (used by tests that need isolation)."""
    _DATASET_CACHE.clear()


#: One engine's answer to one query.
Search = Callable[[str], SearchResult]


def searches(dataset: ProteinDataset, evalue: float) -> Dict[str, Search]:
    """OASIS, BLAST and S-W at one E-value, as ``{name: query -> SearchResult}``.

    S-W takes a score, so its threshold is the one Equation 3 gives OASIS.
    """
    converter = dataset.converter
    aligner = SmithWatermanAligner(dataset.matrix, dataset.gap_model)

    def smith_waterman(query: str) -> SearchResult:
        return aligner.search(
            dataset.database,
            query,
            min_score=converter.min_score_for_evalue(evalue, len(query)),
            statistics=converter.parameters,
        )

    return {
        "OASIS": lambda query: dataset.engine.search(query, evalue=evalue),
        "BLAST": lambda query: dataset.blast.search(query, evalue=evalue),
        "S-W": smith_waterman,
    }


@dataclass
class LengthMeans:
    """Per-query means over the queries of one length."""

    query_length: int
    query_count: int
    seconds: float
    columns: float
    hits: float


def means_by_length(results: Iterable[SearchResult]) -> Dict[int, LengthMeans]:
    """Fold per-query results into per-query-length means, by increasing length."""
    grouped: Dict[int, List[SearchResult]] = {}
    for result in results:
        grouped.setdefault(len(result.query), []).append(result)
    return {
        length: LengthMeans(
            query_length=length,
            query_count=len(rows),
            seconds=sum(row.elapsed_seconds for row in rows) / len(rows),
            columns=sum(row.columns_expanded for row in rows) / len(rows),
            hits=sum(len(row) for row in rows) / len(rows),
        )
        for length, rows in sorted(grouped.items())
    }
