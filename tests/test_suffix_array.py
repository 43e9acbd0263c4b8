"""Unit tests for repro.suffixtree.suffix_array."""

import random

import numpy as np
import pytest

from repro.suffixtree.suffix_array import (
    adjacent_lcps,
    build_lcp_array,
    build_suffix_array,
    sort_suffixes,
    verify_suffix_array,
)


def naive_suffix_array(codes):
    suffixes = [(tuple(codes[i:]), i) for i in range(len(codes))]
    return [position for _, position in sorted(suffixes)]


def longest_common_prefix(codes, i, j, limit=None):
    """Direct (non-amortised) LCP of the suffixes starting at ``i`` and ``j``: the reference."""
    bound = len(codes) - max(i, j)
    if limit is not None:
        bound = min(bound, limit)
    length = 0
    while length < bound and codes[i + length] == codes[j + length]:
        length += 1
    return length


def naive_lcp(codes, sa):
    pairs = zip(sa[1:], sa[:-1])
    return [0] + [longest_common_prefix(codes, int(i), int(j)) for i, j in pairs]


class TestSuffixArray:
    def test_banana(self):
        codes = np.array([1, 0, 2, 0, 2, 0], dtype=np.int64)  # "banana" with a<n<b
        assert build_suffix_array(codes).tolist() == naive_suffix_array(codes)

    def test_empty_and_singleton(self):
        assert build_suffix_array(np.array([], dtype=np.int64)).tolist() == []
        assert build_suffix_array(np.array([5], dtype=np.int64)).tolist() == [0]

    def test_all_equal_symbols(self):
        codes = np.zeros(10, dtype=np.int64)
        assert build_suffix_array(codes).tolist() == list(range(9, -1, -1))

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            build_suffix_array(np.zeros((2, 2)))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_against_naive(self, seed):
        rng = random.Random(seed)
        codes = np.array([rng.randint(0, 4) for _ in range(rng.randint(2, 120))], dtype=np.int64)
        sa = build_suffix_array(codes)
        assert sa.tolist() == naive_suffix_array(codes)
        assert verify_suffix_array(codes, sa)

    def test_packed_key_boundary(self):
        # rank * (n + 1) + next_rank + 1 stays below (n + 1) ** 2, which must
        # fit an int64: the last n that does, and the first that does not.
        int64_max = 2**63 - 1
        last = 3_037_000_498
        assert (last + 1) ** 2 <= int64_max < (last + 2) ** 2
        largest_key = (last - 1) * (last + 1) + last  # top rank, top next rank
        assert largest_key <= int64_max
        # One symbol more is refused, before anything of that size is
        # allocated (the input here is a zero-stride view of one byte).
        too_long = np.broadcast_to(np.uint8(0), (last + 1,))
        with pytest.raises(ValueError, match="does not fit an int64"):
            build_suffix_array(too_long)

    def test_verify_rejects_wrong_order(self):
        codes = np.array([0, 1, 0, 1], dtype=np.int64)
        sa = build_suffix_array(codes)
        wrong = sa[::-1].copy()
        assert not verify_suffix_array(codes, wrong)

    def test_verify_rejects_non_permutation(self):
        codes = np.array([0, 1, 2], dtype=np.int64)
        assert not verify_suffix_array(codes, np.array([0, 0, 1]))


class TestLcpArray:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_against_naive(self, seed):
        rng = random.Random(100 + seed)
        codes = np.array([rng.randint(0, 3) for _ in range(rng.randint(2, 100))], dtype=np.int64)
        sa = build_suffix_array(codes)
        assert build_lcp_array(codes, sa).tolist() == naive_lcp(codes, sa)

    def test_first_entry_is_zero(self):
        codes = np.array([0, 1, 0, 1, 0], dtype=np.int64)
        sa = build_suffix_array(codes)
        assert build_lcp_array(codes, sa)[0] == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_lcp_array(np.array([0, 1]), np.array([0]))

    @pytest.mark.parametrize(
        "codes",
        [
            [0] * 200,  # a homopolymer: every pair outlasts the vectorised rounds
            # Two copies of one period-4 sequence.
            list(range(4)) * 30 + [9] + list(range(4)) * 30 + [10],
            # Long and short LCPs interleaved in text order.
            [1, 0] * 40 + [2] * 50 + [3] + [1, 0] * 40,
        ],
        ids=["homopolymer", "duplicate", "interleaved"],
    )
    def test_long_lcps_against_naive(self, codes):
        codes = np.array(codes, dtype=np.int32)
        sa = build_suffix_array(codes)
        assert build_lcp_array(codes, sa).tolist() == naive_lcp(codes, sa)

    def test_long_identical_sequences(self):
        # Two copies of one sequence: copy 1's suffix i and copy 2's share
        # everything up to the terminal, and sit next to each other.
        rng = random.Random(11)
        half = [rng.randint(0, 3) for _ in range(4_000)]
        codes = np.array(half + [4] + half + [5], dtype=np.int32)
        sa = build_suffix_array(codes)
        lcps = build_lcp_array(codes, sa)
        assert sorted(lcps.tolist())[-3_900:] == list(range(101, 4_001))
        assert lcps.tolist() == adjacent_lcps(codes, sa).tolist()


class TestSuffixSubsets:
    """Sorting and LCPs of a subset of the suffixes (one lexical partition)."""

    @staticmethod
    def text(rng, alphabet_size):
        # A unique last symbol makes every suffix distinct, as terminals do.
        body = [rng.randint(0, alphabet_size - 1) for _ in range(rng.randint(1, 150))]
        return np.array(body + [alphabet_size], dtype=np.int32)

    @pytest.mark.parametrize("seed", range(8))
    def test_sort_suffixes_is_the_suffix_array_restricted(self, seed):
        rng = random.Random(200 + seed)
        codes = self.text(rng, rng.randint(1, 4))
        chosen = sorted(rng.sample(range(len(codes)), rng.randint(1, len(codes))))
        suffix_array = build_suffix_array(codes).tolist()
        expected = [position for position in suffix_array if position in set(chosen)]
        assert sort_suffixes(codes, np.array(chosen), int(codes.max()) + 1).tolist() == expected

    def test_sort_suffixes_many_symbols_per_key(self):
        # A large symbol range leaves room for few symbols per packed key.
        rng = random.Random(7)
        codes = np.array([rng.choice([0, 1, 10**6]) for _ in range(80)] + [10**6 + 1])
        positions = np.arange(len(codes))
        ordered = sort_suffixes(codes, positions, 10**6 + 2)
        assert ordered.tolist() == build_suffix_array(codes).tolist()

    def test_sort_suffixes_refuses_identical_suffixes(self):
        with pytest.raises(ValueError):
            sort_suffixes(np.array([0, 0, 1]), np.array([0, 0]), 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_adjacent_lcps_with_and_without_a_predecessor(self, seed):
        rng = random.Random(300 + seed)
        codes = self.text(rng, 2)
        chosen = np.array(sorted(rng.sample(range(len(codes)), 1 + len(codes) // 2)))
        ordered = sort_suffixes(codes, chosen, 3)
        expected = [0] + [
            longest_common_prefix(codes, int(a), int(b)) for a, b in zip(ordered[1:], ordered[:-1])
        ]
        assert adjacent_lcps(codes, ordered).tolist() == expected
        # Cut anywhere: the second piece's first LCP is taken across the cut.
        cut = len(ordered) // 2
        if cut:
            tail = adjacent_lcps(codes, ordered[cut:], predecessor=int(ordered[cut - 1]))
            assert tail.tolist() == expected[cut:]

    def test_adjacent_lcps_of_nothing(self):
        assert adjacent_lcps(np.array([0, 1]), np.array([], dtype=np.int64)).tolist() == []


class TestLongestCommonPrefix:
    def test_basic(self):
        codes = np.array([0, 1, 2, 0, 1, 3], dtype=np.int64)
        assert longest_common_prefix(codes, 0, 3) == 2

    def test_limit(self):
        codes = np.array([0, 0, 0, 0, 0], dtype=np.int64)
        assert longest_common_prefix(codes, 0, 1, limit=2) == 2

    def test_identical_position(self):
        codes = np.array([0, 1, 2], dtype=np.int64)
        assert longest_common_prefix(codes, 1, 1) == 2
