"""Synthetic workload generators.

The paper evaluates OASIS on SWISS-PROT (~40 M residues), the Drosophila
genome (~120 M nt) and a 100-query workload of short peptide motifs drawn from
ProClass.  Those resources cannot be shipped with an offline reproduction, so
this package generates statistically similar substitutes:

* :class:`SwissProtLikeGenerator` -- protein databases with family structure
  (homologous sequences derived from common ancestors) and realistic residue
  composition;
* :class:`GenomeGenerator` -- nucleotide sequences with repeat structure;
* :class:`MotifWorkloadGenerator` -- short query peptides extracted from the
  generated families and lightly mutated, reproducing the key property of the
  ProClass workload: short queries that really do have strong local alignments
  in the database.

Every generator is deterministic given its ``seed``, so experiments and tests
are reproducible.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.datagen.random_source import AMINO_ACID_FREQUENCIES, RandomSource
    from repro.datagen.protein import SwissProtLikeGenerator
    from repro.datagen.nucleotide import GenomeGenerator
    from repro.datagen.motifs import MotifQuery, MotifWorkload, MotifWorkloadGenerator
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.datagen.random_source": ("AMINO_ACID_FREQUENCIES", "RandomSource"),
            "repro.datagen.protein": ("SwissProtLikeGenerator",),
            "repro.datagen.nucleotide": ("GenomeGenerator",),
            "repro.datagen.motifs": (
                "MotifQuery",
                "MotifWorkload",
                "MotifWorkloadGenerator",
            ),
        },
    )

__all__ = [
    "AMINO_ACID_FREQUENCIES",
    "RandomSource",
    "SwissProtLikeGenerator",
    "GenomeGenerator",
    "MotifQuery",
    "MotifWorkload",
    "MotifWorkloadGenerator",
]
