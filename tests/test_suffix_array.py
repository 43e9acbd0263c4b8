"""Unit tests for repro.suffixtree.suffix_array, the one suffix sorter."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.suffixtree.suffix_array as suffix_array_module
from image_oracle import (
    longest_common_prefix,
    naive_lcp,
    naive_suffix_array,
    verify_suffix_array,
)
from repro.suffixtree.suffix_array import build_lcp_array, build_suffix_array


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

    def test_positions_are_int32(self):
        assert build_suffix_array(np.array([2, 0, 1])).dtype == np.int32

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
        half = [rng.randint(0, 3) for _ in range(2_000)]
        codes = np.array(half + [4] + half + [5], dtype=np.int32)
        sa = build_suffix_array(codes)
        assert verify_suffix_array(codes, sa)
        lcps = build_lcp_array(codes, sa)
        assert sorted(lcps.tolist())[-1_900:] == list(range(101, 2_001))
        assert lcps.tolist() == naive_lcp(codes, sa)


# Inputs that stress the doubling rounds: long runs of ties, and splits that
# come late.  Each text is a list of codes.
homopolymers = st.builds(
    lambda length, tail: [0] * length + tail,
    st.integers(1, 300),
    st.lists(st.integers(0, 2), max_size=3),
)
period_repeats = st.builds(
    lambda period, copies, tail: period * copies + tail,
    st.lists(st.integers(0, 3), min_size=1, max_size=6),
    st.integers(1, 60),
    st.lists(st.integers(0, 3), max_size=4),
)


@st.composite
def duplicated_sequences(draw):
    """Sequences, some repeated outright, each ended by its own terminal code."""
    sequence = st.lists(st.integers(0, 3), min_size=1, max_size=60)
    sequences = draw(st.lists(sequence, min_size=1, max_size=5))
    sequences += draw(st.lists(st.sampled_from(sequences), min_size=1, max_size=3))
    codes = []
    for terminal, sequence in enumerate(sequences, start=4):
        codes += sequence + [terminal]
    return codes


def check_against_naive(codes):
    codes = np.array(codes, dtype=np.int64)
    sa = build_suffix_array(codes)
    assert sa.tolist() == naive_suffix_array(codes)
    assert build_lcp_array(codes, sa).tolist() == naive_lcp(codes, sa)


def fibonacci_word(length):
    shorter, word = [0], [0, 1]
    while len(word) < length:
        shorter, word = word, word + shorter
    return word[:length]


def thue_morse(length):
    return [bin(k).count("1") % 2 for k in range(length)]


HAND_MADE_TEXTS = {
    "one symbol": [3],
    "two equal symbols": [1, 1],
    "ascending": list(range(40)),
    "descending": list(range(40, 0, -1)),
    # Texts whose suffixes share long, overlapping repeats: the classic hard
    # cases for a sort by prefixes.
    "fibonacci word": fibonacci_word(300),
    "thue-morse": thue_morse(256),
    "run before a larger symbol": [0] * 100 + [1] + [0] * 99,
    "tie only the last symbol breaks": [2, 0, 1] * 50 + [2, 0, 2],
}


class TestOneSorter:
    """``build_suffix_array`` + ``build_lcp_array`` against the naive sort, on repeats."""

    @pytest.mark.parametrize("case", sorted(HAND_MADE_TEXTS))
    def test_hand_made_texts(self, case):
        check_against_naive(HAND_MADE_TEXTS[case])

    @given(codes=homopolymers)
    def test_homopolymers(self, codes):
        check_against_naive(codes)

    @given(codes=period_repeats)
    def test_period_repeats(self, codes):
        check_against_naive(codes)

    @given(codes=duplicated_sequences())
    def test_duplicated_sequences_with_distinct_terminals(self, codes):
        check_against_naive(codes)

    @pytest.mark.parametrize("width", [1, 2])
    @given(
        codes=st.one_of(
            st.lists(st.integers(0, 10**5), min_size=1, max_size=80),
            period_repeats.map(lambda codes: [code * 10**4 for code in codes]),
        )
    )
    def test_many_distinct_codes(self, width, codes):
        # So many distinct codes that one int64 holds one or two of them: a
        # text with that many (over two million) is too large for a unit
        # test, so the width is forced.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(suffix_array_module, "_key_width", lambda base, n: min(width, n))
            check_against_naive(codes)

    @pytest.mark.parametrize(
        "base, n, width",
        [
            (2, 10**6, 62),  # one symbol: 2 ** 62 < 2 ** 63 - 1 < 2 ** 63
            (6, 10**6, 24),  # DNA and two terminals
            (4_617, 10**6, 5),  # protein and about 4 600 terminals
            (2**21 + 1, 10**6, 2),
            (2**32, 10**6, 1),
            (6, 7, 7),  # never wider than the text
        ],
    )
    def test_key_width(self, base, n, width):
        assert suffix_array_module._key_width(base, n) == width
        assert base**width <= 2**63 - 1
        assert width == n or base ** (width + 1) > 2**63 - 1


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
