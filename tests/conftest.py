"""Shared fixtures and helpers for the test-suite.

The fixtures keep test inputs tiny (a handful of short sequences) so the whole
suite stays fast; the heavier end-to-end checks (experiments, disk images)
use the "tiny" experiment scale.
"""

from __future__ import annotations

import os
import random
from typing import Callable, List

import pytest
from hypothesis import HealthCheck, settings

from repro.scoring.data import pam30, unit_matrix
from repro.scoring.gaps import FixedGapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import (
    AMINO_ACIDS,
    PAPER_TARGET,
    brute_force_local_score,
    random_dna,
    random_protein,
)


# Example budgets of the property tests that do not fix their own (the
# differentials against Smith-Waterman in tests/test_disk_differential.py and
# tests/test_kernel_parity.py, the scan in tests/test_smith_waterman.py):
# bounded in tier-1, larger in the CI steps that set HYPOTHESIS_PROFILE=ci.
settings.register_profile(
    "tier1", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile("ci", settings.get_profile("tier1"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture(scope="session")
def pam30_matrix() -> SubstitutionMatrix:
    return pam30()


@pytest.fixture(scope="session")
def unit_dna_matrix() -> SubstitutionMatrix:
    return unit_matrix(DNA_ALPHABET)


@pytest.fixture(scope="session")
def gap8() -> FixedGapModel:
    return FixedGapModel(-8)


@pytest.fixture
def paper_database() -> SequenceDatabase:
    """The single-sequence database of the paper's running example."""
    return SequenceDatabase.from_texts([PAPER_TARGET], alphabet=DNA_ALPHABET, name="paper")


@pytest.fixture
def paper_tree(paper_database) -> GeneralizedSuffixTree:
    return GeneralizedSuffixTree.build(paper_database)


@pytest.fixture
def small_protein_database() -> SequenceDatabase:
    """A deterministic multi-sequence protein database with planted homology."""
    rng = random.Random(42)
    core = "WKDDGNGYISAAE"
    texts: List[str] = []
    for index in range(6):
        prefix = random_protein(rng, rng.randint(5, 30))
        suffix = random_protein(rng, rng.randint(5, 30))
        mutated = list(core)
        if index % 2 == 1:
            position = rng.randrange(len(mutated))
            mutated[position] = rng.choice(AMINO_ACIDS)
        texts.append(prefix + "".join(mutated) + suffix)
    for _ in range(4):
        texts.append(random_protein(rng, rng.randint(10, 60)))
    database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET, name="small-protein")
    return database


@pytest.fixture
def small_dna_database() -> SequenceDatabase:
    rng = random.Random(7)
    texts = [random_dna(rng, rng.randint(15, 80)) for _ in range(8)]
    return SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET, name="small-dna")


@pytest.fixture
def brute_force() -> Callable[[str, str, SubstitutionMatrix, int], int]:
    return brute_force_local_score
