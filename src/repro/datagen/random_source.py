"""Seeded randomness helpers shared by the data generators.

Keeping one thin wrapper around :class:`random.Random` (rather than the module
-level functions) guarantees that every generator is reproducible from its
seed and independent of any other randomness in the process.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

#: Approximate background frequencies of the 20 standard amino acids in
#: curated protein databases (SWISS-PROT composition, rounded).  Used both to
#: generate realistic synthetic proteins and as the default background for
#: Karlin-Altschul statistics in the experiments.
AMINO_ACID_FREQUENCIES: Dict[str, float] = {
    "A": 0.0826, "R": 0.0553, "N": 0.0406, "D": 0.0546, "C": 0.0137,
    "Q": 0.0393, "E": 0.0674, "G": 0.0708, "H": 0.0227, "I": 0.0593,
    "L": 0.0965, "K": 0.0582, "M": 0.0241, "F": 0.0386, "P": 0.0472,
    "S": 0.0660, "T": 0.0535, "W": 0.0110, "Y": 0.0292, "V": 0.0687,
}

#: Background frequencies for nucleotides (roughly the Drosophila genome AT bias).
NUCLEOTIDE_FREQUENCIES: Dict[str, float] = {"A": 0.29, "C": 0.21, "G": 0.21, "T": 0.29}


class RandomSource:
    """A seeded random source with weighted-symbol convenience methods."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._random = random.Random(seed)

    # ------------------------------------------------------------------ #
    # Pass-through primitives
    # ------------------------------------------------------------------ #
    def random(self) -> float:
        return self._random.random()

    def randint(self, low: int, high: int) -> int:
        """Inclusive integer in ``[low, high]``."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence):
        return self._random.choice(items)

    def sample(self, items: Sequence, count: int) -> List:
        return self._random.sample(list(items), count)

    def shuffle(self, items: List) -> None:
        self._random.shuffle(items)

    def gauss(self, mean: float, sigma: float) -> float:
        return self._random.gauss(mean, sigma)

    def spawn(self, label: int) -> "RandomSource":
        """An independent child source (stable function of seed and label)."""
        return RandomSource(hash((self.seed, label)) & 0x7FFFFFFF)

    # ------------------------------------------------------------------ #
    # Weighted symbols
    # ------------------------------------------------------------------ #
    def weighted_sequence(self, frequencies: Dict[str, float], length: int) -> str:
        """Draw a sequence of ``length`` symbols according to a frequency table."""
        return "".join(
            self._random.choices(
                list(frequencies.keys()), weights=list(frequencies.values()), k=length
            )
        )

    def length_from_range(self, low: int, high: int, mean: float | None = None) -> int:
        """Draw a length in ``[low, high]``, optionally biased toward ``mean``.

        When a mean is supplied the draw uses a (clamped) normal distribution
        with a spread of a quarter of the range, which gives the short-query
        workloads their ProClass-like length profile.
        """
        if mean is None:
            return self.randint(low, high)
        sigma = max(1.0, (high - low) / 4.0)
        value = int(round(self.gauss(mean, sigma)))
        return max(low, min(high, value))
