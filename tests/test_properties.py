"""Property-based tests (hypothesis) for the core invariants.

The single most important invariant of the whole system is the accuracy
guarantee of Section 3: for *any* database, query and threshold, OASIS reports
exactly the sequences whose best Smith-Waterman score reaches the threshold,
each with exactly that score.  The suffix-tree and scoring substrates get
their own properties.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from cursor_lookups import contains, find_occurrences
from image_oracle import object_tree_shape, tree_shape
from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.heuristic import compute_heuristic_vector
from repro.scoring.data import blosum62, pam30, unit_matrix
from repro.scoring.gaps import FixedGapModel
from repro.scoring.karlin_altschul import estimate_karlin_altschul
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree
from repro.suffixtree.suffix_array import build_lcp_array, build_suffix_array

from support import brute_force_local_score

# Text strategies over the two alphabets (real symbols only).
dna_text = st.text(alphabet="ACGT", min_size=1, max_size=40)
protein_text = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=30)

relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSuffixTreeProperties:
    @relaxed
    @given(texts=st.lists(dna_text, min_size=1, max_size=4), query=dna_text)
    def test_membership_matches_python_substring_search(self, texts, query):
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        expected = any(query in text for text in texts)
        assert contains(tree, query) == expected

    @relaxed
    @given(texts=st.lists(dna_text, min_size=1, max_size=4))
    def test_structure_always_valid(self, texts):
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        assert tree_shape(tree) == object_tree_shape(database)
        assert tree.leaf_count == database.total_symbols

    @relaxed
    @given(text=dna_text)
    def test_every_substring_is_found_with_all_occurrences(self, text):
        database = SequenceDatabase.from_texts([text], alphabet=DNA_ALPHABET)
        tree = GeneralizedSuffixTree.build(database)
        length = min(4, len(text))
        for start in range(len(text) - length + 1):
            query = text[start : start + length]
            expected = [
                (0, j)
                for j in range(len(text) - len(query) + 1)
                if text[j : j + len(query)] == query
            ]
            assert find_occurrences(tree, query) == expected


class TestSuffixArrayProperties:
    @relaxed
    @given(values=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=120))
    def test_suffix_array_is_sorted_permutation(self, values):
        codes = np.array(values, dtype=np.int64)
        sa = build_suffix_array(codes)
        assert sorted(sa.tolist()) == list(range(len(codes)))
        suffixes = [tuple(codes[i:].tolist()) for i in sa]
        assert suffixes == sorted(suffixes)

    @relaxed
    @given(values=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=80))
    def test_lcp_entries_are_exact(self, values):
        codes = np.array(values, dtype=np.int64)
        sa = build_suffix_array(codes)
        lcp = build_lcp_array(codes, sa)
        for k in range(1, len(sa)):
            i, j = int(sa[k]), int(sa[k - 1])
            length = int(lcp[k])
            assert np.array_equal(codes[i : i + length], codes[j : j + length])
            if i + length < len(codes) and j + length < len(codes):
                assert codes[i + length] != codes[j + length]


class TestOasisExactnessProperty:
    """The headline invariant: OASIS == Smith-Waterman, always."""

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        texts=st.lists(protein_text, min_size=1, max_size=4),
        query=protein_text,
        min_score=st.integers(min_value=1, max_value=40),
    )
    def test_oasis_equals_smith_waterman(self, texts, query, min_score):
        matrix = pam30()
        gap = FixedGapModel(-8)
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        engine = OasisEngine.build(database, matrix=matrix, gap_model=gap)
        result = engine.search(query, min_score=min_score)

        expected = {}
        for index, text in enumerate(texts):
            score = brute_force_local_score(query, text, matrix, -8)
            if score >= min_score:
                expected[f"seq{index}"] = score
        assert result.scores_by_sequence() == expected
        assert result.is_sorted_by_score()

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        texts=st.lists(dna_text, min_size=1, max_size=4),
        query=dna_text,
        min_score=st.integers(min_value=1, max_value=10),
    )
    def test_oasis_equals_smith_waterman_dna(self, texts, query, min_score):
        matrix = unit_matrix(DNA_ALPHABET)
        gap = FixedGapModel(-1)
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        engine = OasisEngine.build(database, matrix=matrix, gap_model=gap)
        aligner = SmithWatermanAligner(matrix, gap)
        oasis_scores = engine.search(query, min_score=min_score).scores_by_sequence()
        reference = aligner.search(database, query, min_score=min_score).scores_by_sequence()
        assert oasis_scores == reference


class TestScoringProperties:
    @relaxed
    @given(query=protein_text, target=protein_text)
    def test_heuristic_upper_bounds_local_score(self, query, target):
        matrix = pam30()
        heuristic = compute_heuristic_vector(PROTEIN_ALPHABET.encode(query), matrix)
        assert heuristic[0] >= brute_force_local_score(query, target, matrix, -8)

    @relaxed
    @given(query=protein_text, target=protein_text)
    def test_local_score_symmetry(self, query, target):
        matrix = blosum62()
        forward = brute_force_local_score(query, target, matrix, -4)
        backward = brute_force_local_score(target, query, matrix, -4)
        assert forward == backward

    @relaxed
    @given(
        score=st.integers(min_value=1, max_value=200),
        m=st.integers(min_value=5, max_value=60),
        n=st.integers(min_value=100, max_value=10**7),
    )
    def test_evalue_monotonic_in_score_and_space(self, score, m, n):
        params = estimate_karlin_altschul(pam30())
        assert params.evalue(score + 1, m, n) < params.evalue(score, m, n)
        assert params.evalue(score, m, n) < params.evalue(score, m, n * 2)

    @relaxed
    @given(evalue=st.floats(min_value=1e-6, max_value=1e5), m=st.integers(min_value=5, max_value=60))
    def test_min_score_satisfies_target(self, evalue, m):
        params = estimate_karlin_altschul(pam30())
        n = 1_000_000
        score = params.min_score(evalue, m, n)
        assert params.evalue(score, m, n) <= evalue or score == 1
