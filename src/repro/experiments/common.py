"""Shared experiment configuration and dataset construction.

Every experiment of Section 4 runs against the same kind of dataset: a
SWISS-PROT-like protein database, a ProClass-like short-query workload, PAM30
scoring with a fixed gap penalty, and selectivity expressed as an E-value.
This module owns that configuration, the datasets of the scale presets
(:mod:`repro.experiments.scales`; the paper's 40 M residues are far beyond
what a pure-Python suffix tree can index in a benchmark run), and a small
cache so that the per-figure benchmarks that share a configuration also
share the constructed index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.datagen.motifs import MotifWorkload, MotifWorkloadGenerator
from repro.datagen.protein import SwissProtLikeGenerator
from repro.experiments.scales import SCALE_ENVIRONMENT_VARIABLE, SCALE_PRESETS, available_scales
from repro.scoring.data import load_matrix
from repro.scoring.gaps import FixedGapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase

@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by every experiment.

    The defaults reproduce the paper's setup: PAM30, a fixed gap penalty, an
    E-value of 20 000 (the BLAST-recommended value for short protein queries)
    and a short-peptide workload.
    """

    seed: int = 7
    scale: str = "small"
    matrix_name: str = "PAM30"
    gap_penalty: int = -8
    evalue: float = 20_000.0
    query_count: Optional[int] = None
    query_length_range: Tuple[int, int] = (6, 56)
    query_mean_length: float = 16.0
    block_size: int = 2048
    simulated_miss_latency: float = 0.005
    #: The SWISS-PROT size the paper's E-values refer to.  E-values scale with
    #: the search space (Equation 2), so quoting "E = 20 000" against a
    #: scaled-down synthetic database would make the threshold vacuous;
    #: scaling E by ``our size / paper size`` keeps the *score threshold*
    #: (Equation 3) -- and therefore the selectivity the paper configured --
    #: unchanged.
    paper_database_size: int = 40_000_000

    def effective_evalue(self, database_symbols: int, evalue: Optional[float] = None) -> float:
        """Translate a paper E-value into one appropriate for our database size."""
        nominal = self.evalue if evalue is None else evalue
        return nominal * database_symbols / self.paper_database_size

    def preset(self) -> Dict[str, int]:
        try:
            return SCALE_PRESETS[self.scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {self.scale!r}; available: {', '.join(available_scales())}"
            ) from None

    def effective_query_count(self) -> int:
        return self.query_count if self.query_count is not None else self.preset()["query_count"]

    def cache_key(self) -> Tuple:
        return (
            self.seed,
            self.scale,
            self.matrix_name,
            self.gap_penalty,
            self.query_count,
            self.query_length_range,
            self.query_mean_length,
        )


def default_config(scale: Optional[str] = None, **overrides) -> ExperimentConfig:
    """The default configuration, honouring ``OASIS_BENCH_SCALE``."""
    if scale is None:
        scale = os.environ.get(SCALE_ENVIRONMENT_VARIABLE, "small")
    config = ExperimentConfig(scale=scale)
    if overrides:
        config = replace(config, **overrides)
    return config


@dataclass
class ProteinDataset:
    """Everything the protein experiments need, constructed once."""

    config: ExperimentConfig
    database: SequenceDatabase
    workload: MotifWorkload
    generator: SwissProtLikeGenerator
    matrix: SubstitutionMatrix
    gap_model: FixedGapModel
    converter: SelectivityConverter
    engine: OasisEngine = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def database_symbols(self) -> int:
        return self.database.total_symbols


_DATASET_CACHE: Dict[Tuple, ProteinDataset] = {}


def build_protein_dataset(config: Optional[ExperimentConfig] = None) -> ProteinDataset:
    """Build (or fetch from cache) the dataset for a configuration.

    The OASIS in-memory index is built eagerly because almost every experiment
    needs it; the disk-resident index of Figures 7-8 is built by those
    experiments on top of the same database.
    """
    config = config or default_config()
    key = config.cache_key()
    cached = _DATASET_CACHE.get(key)
    if cached is not None:
        return cached

    preset = config.preset()
    generator = SwissProtLikeGenerator(
        seed=config.seed,
        family_count=preset["family_count"],
        members_per_family=(preset["members_low"], preset["members_high"]),
        ancestor_length=(preset["ancestor_low"], preset["ancestor_high"]),
        singleton_count=preset["singleton_count"],
        singleton_length=(preset["singleton_low"], preset["singleton_high"]),
    )
    database = generator.generate()
    workload = MotifWorkloadGenerator(
        generator,
        seed=config.seed + 1,
        query_count=config.effective_query_count(),
        length_range=config.query_length_range,
        mean_length=config.query_mean_length,
    ).generate()

    matrix = load_matrix(config.matrix_name)
    gap_model = FixedGapModel(config.gap_penalty)
    converter = SelectivityConverter(matrix, database)
    engine = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
    # Reuse the engine's converter so every adapter shares identical statistics.
    engine.converter = converter

    dataset = ProteinDataset(
        config=config,
        database=database,
        workload=workload,
        generator=generator,
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
