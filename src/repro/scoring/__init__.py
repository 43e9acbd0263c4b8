"""Scoring substrate: substitution matrices, gap models, alignment statistics.

The OASIS paper scores alignments with an arbitrary substitution matrix plus a
fixed (linear) gap penalty, and converts between BLAST ``E``-values and OASIS
``minScore`` thresholds with the Karlin-Altschul equations (Equations 2-3 in
the paper).  This package provides all of those pieces.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.scoring.matrix import SubstitutionMatrix
    from repro.scoring.data import (
        unit_matrix,
        blosum62,
        blosum45,
        pam30,
        pam70,
        nucleotide_matrix,
        available_matrices,
        load_matrix,
    )
    from repro.scoring.gaps import GapModel, FixedGapModel, AffineGapModel
    from repro.scoring.karlin_altschul import (
        KarlinAltschulParameters,
        estimate_karlin_altschul,
        evalue_from_score,
        score_from_evalue,
        bit_score,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.scoring.matrix": ("SubstitutionMatrix",),
            "repro.scoring.data": (
                "unit_matrix",
                "blosum62",
                "blosum45",
                "pam30",
                "pam70",
                "nucleotide_matrix",
                "available_matrices",
                "load_matrix",
            ),
            "repro.scoring.gaps": ("GapModel", "FixedGapModel", "AffineGapModel"),
            "repro.scoring.karlin_altschul": (
                "KarlinAltschulParameters",
                "estimate_karlin_altschul",
                "evalue_from_score",
                "score_from_evalue",
                "bit_score",
            ),
        },
    )

__all__ = [
    "SubstitutionMatrix",
    "unit_matrix",
    "blosum62",
    "blosum45",
    "pam30",
    "pam70",
    "nucleotide_matrix",
    "available_matrices",
    "load_matrix",
    "GapModel",
    "FixedGapModel",
    "AffineGapModel",
    "KarlinAltschulParameters",
    "estimate_karlin_altschul",
    "evalue_from_score",
    "score_from_evalue",
    "bit_score",
]
