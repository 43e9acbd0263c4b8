"""Karlin-Altschul statistics: the E-value machinery of Equations 2-3.

BLAST expresses search selectivity as an *E-value*: the number of alignments
with at least a given score that one expects to find by chance in a database
of the given size.  The paper relates E-values to raw alignment scores with

    E = K * m * n * exp(-lambda * S)                      (Equation 2)

and derives OASIS's ``minScore`` threshold from a target E-value with

    minScore = ceil( ln(K * m * n / E) / lambda )         (Equation 3)

where ``m`` is the query length, ``n`` the database size (total residues) and
``K``/``lambda`` are scaling constants that depend on the substitution matrix
and the background residue frequencies.

This module estimates ``lambda`` as the unique positive solution of

    sum_ij  p_i * p_j * exp(lambda * s_ij)  =  1

(the standard Karlin-Altschul characteristic equation, solved by bisection)
and ``K`` with the standard geometric-series approximation used by several
BLAST re-implementations.  The absolute value of ``K`` only shifts E-values by
a constant factor; every comparison in the paper (and in our benchmarks) uses
the *same* constants on both sides of the comparison, so the approximation
does not affect any reproduced shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional

from repro.scoring.matrix import SubstitutionMatrix


class KarlinAltschulError(ValueError):
    """Raised when statistics cannot be computed for a scoring system."""


@dataclass(frozen=True)
class KarlinAltschulParameters:
    """The (lambda, K, H) triple describing a scoring system's statistics.

    Attributes
    ----------
    lambda_:
        The scale parameter of the extreme-value distribution of local
        alignment scores (per-unit-score decay rate).
    k:
        The search-space scaling constant.
    h:
        The relative entropy of the scoring system in nats per aligned pair
        (useful for reporting; not used by the equations above).
    """

    lambda_: float
    k: float
    h: float

    def evalue(self, score: float, query_length: int, database_size: int) -> float:
        """Equation 2: the E-value of a raw score in an m x n search space."""
        if query_length <= 0 or database_size <= 0:
            raise ValueError("query length and database size must be positive")
        return self.k * query_length * database_size * math.exp(-self.lambda_ * score)

    def min_score(self, evalue: float, query_length: int, database_size: int) -> int:
        """Equation 3: the smallest integer score whose E-value is <= ``evalue``."""
        if evalue <= 0:
            raise ValueError("the target E-value must be positive")
        if query_length <= 0 or database_size <= 0:
            raise ValueError("query length and database size must be positive")
        ratio = self.k * query_length * database_size / evalue
        if ratio == math.inf:
            raise ValueError(
                f"the E-value {evalue!r} is too small: Equation 3 gives no finite score"
            )
        if ratio <= 1.0:
            # A score of 0 or less already meets the target (this also covers
            # a ratio that underflowed to 0, whose logarithm is undefined).
            return 1
        # Scores are integral; any score >= the bound satisfies the E-value target.
        return math.ceil(math.log(ratio) / self.lambda_)

    def bit_score(self, score: float) -> float:
        """Convert a raw score to a normalised bit score."""
        return (self.lambda_ * score - math.log(self.k)) / math.log(2.0)


def _background_vector(
    matrix: SubstitutionMatrix, frequencies: Optional[Mapping[str, float]]
) -> List[float]:
    """Background frequencies as a list aligned with the alphabet codes."""
    n = len(matrix.alphabet)
    if frequencies is None:
        return [1.0 / n] * n
    vector = [0.0] * n
    for symbol, value in frequencies.items():
        if value < 0:
            raise ValueError(f"negative background frequency for {symbol!r}")
        vector[matrix.alphabet.code(symbol)] = value
    total = math.fsum(vector)
    if total <= 0:
        raise ValueError("background frequencies must sum to a positive value")
    return [value / total for value in vector]


def estimate_karlin_altschul(
    matrix: SubstitutionMatrix,
    frequencies: Optional[Mapping[str, float]] = None,
    tolerance: float = 1e-9,
    max_iterations: int = 200,
) -> KarlinAltschulParameters:
    """Estimate (lambda, K, H) for a substitution matrix.

    Parameters
    ----------
    matrix:
        The substitution matrix.  Its expected score under ``frequencies``
        must be negative and its maximum score positive, otherwise local
        alignment statistics are undefined.
    frequencies:
        Background symbol frequencies (e.g. from
        :meth:`repro.sequences.SequenceDatabase.residue_frequencies`).
        Uniform when omitted.
    """
    freq = _background_vector(matrix, frequencies)
    n = len(matrix.alphabet)
    # Every sum below runs over symbol pairs, and a pair enters only through
    # its score: group the pair probabilities p_i * p_j by score value once,
    # so each evaluation of the characteristic function takes one exp per
    # distinct score (a few dozen) instead of one per pair.
    by_score: Dict[int, List[float]] = {}
    for i in range(n):
        row = matrix.rows[i]
        for j in range(n):
            by_score.setdefault(row[j], []).append(freq[i] * freq[j])
    weights = [(score, math.fsum(probabilities)) for score, probabilities in by_score.items()]

    expected = math.fsum(probability * score for score, probability in weights)
    if expected >= 0:
        raise KarlinAltschulError(
            f"matrix {matrix.name!r} has non-negative expected score ({expected:.3f}); "
            "local alignment statistics are undefined"
        )
    if max(by_score) <= 0:
        raise KarlinAltschulError(
            f"matrix {matrix.name!r} has no positive score; no alignment can ever "
            "exceed a positive threshold"
        )

    def characteristic(lam: float) -> float:
        terms = (probability * math.exp(lam * score) for score, probability in weights)
        return math.fsum(terms) - 1.0

    # The characteristic function is -something at 0+ (negative expectation)
    # and grows without bound, so a positive root exists.  Bracket it.
    low = 1e-6
    high = 0.5
    while characteristic(high) < 0:
        high *= 2.0
        if high > 1e3:  # pragma: no cover - defensive
            raise KarlinAltschulError("failed to bracket lambda")
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        if characteristic(mid) < 0:
            low = mid
        else:
            high = mid
        if high - low < tolerance:
            break
    lam = 0.5 * (low + high)

    # Relative entropy H = lambda * sum q_ij * s_ij with q_ij the aligned-pair
    # distribution implied by lambda.
    tilted = [(score, probability * math.exp(lam * score)) for score, probability in weights]
    total = math.fsum(q for _, q in tilted)
    h = lam * math.fsum(q * score for score, q in tilted) / total

    # K approximation: the rigorous computation requires the full generating
    # function machinery; the standard practical approximation
    # K ~= H / lambda * exp(-lambda * delta) with delta the score granularity
    # is accurate to within a small constant factor, which is sufficient here
    # because K enters the benchmarks identically for every engine.
    delta = _score_granularity(by_score)
    k = max(1e-4, (h / lam) * math.exp(-lam * delta))

    return KarlinAltschulParameters(lambda_=lam, k=k, h=h)


def _score_granularity(scores: Iterable[int]) -> float:
    """Greatest common divisor of the score values (their lattice spacing)."""
    gcd = math.gcd(*(abs(int(score)) for score in scores))
    return float(gcd) if gcd else 1.0


# --------------------------------------------------------------------------- #
# Convenience wrappers used throughout the experiments
# --------------------------------------------------------------------------- #
def evalue_from_score(
    score: float,
    query_length: int,
    database_size: int,
    parameters: KarlinAltschulParameters,
) -> float:
    """Equation 2 as a free function."""
    return parameters.evalue(score, query_length, database_size)


def score_from_evalue(
    evalue: float,
    query_length: int,
    database_size: int,
    parameters: KarlinAltschulParameters,
) -> int:
    """Equation 3 as a free function."""
    return parameters.min_score(evalue, query_length, database_size)


def bit_score(score: float, parameters: KarlinAltschulParameters) -> float:
    """Normalised bit score of a raw score."""
    return parameters.bit_score(score)
