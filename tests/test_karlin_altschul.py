"""Unit tests for repro.scoring.karlin_altschul (Equations 2-3 of the paper)."""

import math

import pytest

from repro.scoring.data import blosum62, nucleotide_matrix, pam30, unit_matrix
from repro.scoring.karlin_altschul import (
    KarlinAltschulError,
    bit_score,
    estimate_karlin_altschul,
    evalue_from_score,
    score_from_evalue,
)
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.alphabet import DNA_ALPHABET
from support import scaled_matrix


class TestEstimation:
    def test_lambda_positive_and_moderate(self):
        params = estimate_karlin_altschul(pam30())
        assert 0.05 < params.lambda_ < 1.5

    def test_characteristic_equation_satisfied(self):
        # lambda must satisfy sum p_i p_j exp(lambda s_ij) = 1.
        matrix = blosum62()
        params = estimate_karlin_altschul(matrix)
        n = len(matrix.alphabet)
        total = 0.0
        for i in range(n):
            for j in range(n):
                total += (1 / n) * (1 / n) * math.exp(params.lambda_ * matrix.lookup[i, j])
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_k_and_h_positive(self):
        params = estimate_karlin_altschul(pam30())
        assert params.k > 0
        assert params.h > 0

    def test_background_frequencies_change_lambda(self):
        from repro.datagen.random_source import AMINO_ACID_FREQUENCIES

        uniform = estimate_karlin_altschul(blosum62())
        realistic = estimate_karlin_altschul(blosum62(), frequencies=AMINO_ACID_FREQUENCIES)
        assert abs(uniform.lambda_ - realistic.lambda_) > 1e-6

    def test_non_negative_expectation_rejected(self):
        always_positive = SubstitutionMatrix.from_match_mismatch(
            "bad", DNA_ALPHABET, match=2, mismatch=1
        )
        with pytest.raises(KarlinAltschulError):
            estimate_karlin_altschul(always_positive)

    def test_all_negative_matrix_rejected(self):
        hopeless = SubstitutionMatrix.from_match_mismatch(
            "hopeless", DNA_ALPHABET, match=-1, mismatch=-2
        )
        with pytest.raises(KarlinAltschulError):
            estimate_karlin_altschul(hopeless)

    def test_bad_background_rejected(self):
        with pytest.raises(ValueError):
            estimate_karlin_altschul(blosum62(), frequencies={"A": -1.0})
        with pytest.raises(ValueError):
            estimate_karlin_altschul(blosum62(), frequencies={"A": 0.0})

    @pytest.mark.parametrize("scale", [1, 1000, 2**20])
    @pytest.mark.parametrize("name", ["PAM30", "nucleotide(1,-3)"])
    def test_a_scaled_matrix_scales_lambda_and_keeps_h(self, name, scale):
        base = pam30() if name == "PAM30" else nucleotide_matrix(1, -3)
        reference = estimate_karlin_altschul(base)
        params = estimate_karlin_altschul(scaled_matrix(base, scale))
        assert params.lambda_ * scale == pytest.approx(reference.lambda_, rel=1e-6)
        assert params.h == pytest.approx(reference.h, rel=1e-6)

    @pytest.mark.parametrize("scale", [1, 2, 1000, 2**20])
    @pytest.mark.parametrize("name", ["PAM30", "nucleotide(1,-1)"])
    def test_k_is_scale_free(self, name, scale):
        """A matrix times c has lambda / c and the same K, so an alignment
        scored c times higher keeps its E-value, and the score an E-value
        asks for is c times the unscaled one, up to rounding."""
        base = pam30() if name == "PAM30" else nucleotide_matrix(1, -1)
        reference = estimate_karlin_altschul(base)
        params = estimate_karlin_altschul(scaled_matrix(base, scale))
        assert params.k == pytest.approx(reference.k, rel=1e-9)
        for score in (5, 17, 40):
            assert params.evalue(score * scale, 30, 10**6) == pytest.approx(
                reference.evalue(score, 30, 10**6), rel=1e-9
            )
        for evalue in (1e-3, 1.0, 10.0):
            unscaled = reference.min_score(evalue, 30, 10**6)
            assert scale * (unscaled - 1) < params.min_score(evalue, 30, 10**6) <= scale * unscaled

    def test_a_matrix_of_large_scores_builds_an_engine(self):
        """exp(0.5 * 2000) leaves the float range: the bracket must not start there."""
        from repro.core.engine import OasisEngine
        from repro.scoring.gaps import FixedGapModel
        from repro.sequences.database import SequenceDatabase

        matrix = SubstitutionMatrix.from_match_mismatch("h", DNA_ALPHABET, 2000, -2000)
        database = SequenceDatabase.from_texts(["ACGTACGGT", "TTGACCA"], alphabet=DNA_ALPHABET)
        engine = OasisEngine.build(database, matrix=matrix, gap_model=FixedGapModel(-3000))
        (hit,) = engine.search("ACGTACG", min_score=10_000).hits
        assert hit.score == 7 * 2000

    def test_score_granularity_is_the_gcd_of_the_nonzero_magnitudes(self):
        from repro.scoring.karlin_altschul import _score_granularity

        assert _score_granularity([6, -9, 0, 3]) == 3.0
        assert _score_granularity([4, -6, -6, 4]) == 2.0
        assert _score_granularity(value for row in pam30().rows[:20] for value in row[:20]) == 1.0
        assert _score_granularity([0, 0, 0, 0]) == 1.0


class TestEvalueConversions:
    @pytest.fixture(scope="class")
    def params(self):
        return estimate_karlin_altschul(pam30())

    def test_evalue_decreases_with_score(self, params):
        low = params.evalue(10, 16, 1_000_000)
        high = params.evalue(40, 16, 1_000_000)
        assert high < low

    def test_evalue_scales_with_search_space(self, params):
        small = params.evalue(30, 16, 10_000)
        large = params.evalue(30, 16, 1_000_000)
        assert large == pytest.approx(small * 100)

    def test_min_score_roundtrip(self, params):
        # The E-value of the returned min_score must be at most the target,
        # and one score lower must exceed it (tightness).
        for target in (0.001, 1.0, 100.0, 20_000.0):
            score = params.min_score(target, 16, 1_000_000)
            assert params.evalue(score, 16, 1_000_000) <= target
            if score > 1:
                assert params.evalue(score - 1, 16, 1_000_000) > target

    def test_min_score_at_least_one(self, params):
        assert params.min_score(1e12, 5, 100) >= 1

    def test_an_evalue_beyond_float_range_is_a_value_error(self, params):
        # K*m*n / E overflows: no finite score meets the target.
        with pytest.raises(ValueError, match="no finite score"):
            params.min_score(1e-320, 16, 1_000_000)
        # K*m*n / E underflows to 0: every score meets it.
        assert params.min_score(1e308, 1, 1) == 1

    def test_invalid_arguments(self, params):
        with pytest.raises(ValueError):
            params.evalue(10, 0, 100)
        with pytest.raises(ValueError):
            params.min_score(0.0, 16, 100)
        with pytest.raises(ValueError):
            params.min_score(1.0, 16, 0)

    def test_equation2_matches_formula(self, params):
        score, m, n = 25, 16, 50_000
        expected = params.k * m * n * math.exp(-params.lambda_ * score)
        assert params.evalue(score, m, n) == pytest.approx(expected)

    def test_free_function_wrappers(self, params):
        assert evalue_from_score(25, 16, 1000, params) == params.evalue(25, 16, 1000)
        assert score_from_evalue(1.0, 16, 1000, params) == params.min_score(1.0, 16, 1000)
        assert bit_score(25, params) == params.bit_score(25)

    def test_bit_score_monotonic(self, params):
        assert params.bit_score(30) > params.bit_score(20)


def numpy_reference(matrix, frequencies=None, tolerance=1e-9, max_iterations=200):
    """(lambda, K, H) the way the estimator computed them over NumPy arrays:
    the reference the pure-Python estimator is held to."""
    import numpy as np

    n = len(matrix.alphabet)
    if frequencies is None:
        freq = np.full(n, 1.0 / n)
    else:
        freq = np.zeros(n)
        for symbol, value in frequencies.items():
            freq[matrix.alphabet.code(symbol)] = value
        freq = freq / freq.sum()
    scores = matrix.lookup[:n, :n].astype(float)
    pair_probability = np.outer(freq, freq)

    def characteristic(lam):
        return float((pair_probability * np.exp(lam * scores)).sum()) - 1.0

    top = float(scores[pair_probability > 0].max())
    low, high = 0.0, 1.0 / top
    while characteristic(high) < 0:
        low, high = high, 2.0 * high
    for _ in range(max_iterations):
        mid = 0.5 * (low + high)
        if characteristic(mid) < 0:
            low = mid
        else:
            high = mid
        if high - low < tolerance * high:
            break
    lam = 0.5 * (low + high)
    q = pair_probability * np.exp(lam * scores)
    q = q / q.sum()
    h = float(lam * (q * scores).sum())
    delta = float(math.gcd(*np.abs(scores.astype(int)).ravel().tolist()) or 1)
    k = max(1e-4, (h / (lam * delta)) * math.exp(-lam * delta))
    return lam, k, h


def parity_cases():
    from repro.datagen.nucleotide import GenomeGenerator
    from repro.datagen.protein import SwissProtLikeGenerator
    from repro.scoring.data import nucleotide_matrix

    proteins = SwissProtLikeGenerator(seed=7, family_count=20, singleton_count=20).generate()
    genome = GenomeGenerator(seed=7, contig_count=3, contig_length=(500, 900)).generate()
    for name, matrix, database in (
        ("PAM30", pam30(), proteins),
        ("BLOSUM62", blosum62(), proteins),
        ("nucleotide(1,-3)", nucleotide_matrix(1, -3), genome),
    ):
        yield pytest.param(matrix, None, database.total_symbols, id=f"{name}-uniform")
        yield pytest.param(
            matrix, database.residue_frequencies(), database.total_symbols, id=f"{name}-database"
        )


class TestNumpyParity:
    """The pure-Python estimator against the NumPy form it replaced."""

    @pytest.mark.parametrize("matrix, frequencies, database_size", parity_cases())
    def test_lambda_k_and_h_agree_to_1e12(self, matrix, frequencies, database_size):
        params = estimate_karlin_altschul(matrix, frequencies=frequencies)
        expected_values = numpy_reference(matrix, frequencies)
        for value, expected in zip((params.lambda_, params.k, params.h), expected_values):
            assert value == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("matrix, frequencies, database_size", parity_cases())
    def test_min_score_is_identical(self, matrix, frequencies, database_size):
        from repro.scoring.karlin_altschul import KarlinAltschulParameters

        params = estimate_karlin_altschul(matrix, frequencies=frequencies)
        lam, k, h = numpy_reference(matrix, frequencies)
        reference = KarlinAltschulParameters(lambda_=lam, k=k, h=h)
        for evalue in (1e-3, 1.0, 10.0, 5.42, 2e4):
            for length in range(6, 121):
                assert params.min_score(evalue, length, database_size) == reference.min_score(
                    evalue, length, database_size
                ), (evalue, length)
