"""Suffix array and LCP array construction: the one sorter of every build.

The tree -- the record arrays the in-memory engine searches and the disk
image stores -- is derived from the sorted order of all suffixes (the suffix
array) and the longest-common-prefix lengths of neighbouring suffixes (the
LCP array) by one rightmost-path stack pass;
:func:`repro.suffixtree.build.sorted_suffixes` hands the builder the
two arrays.

:func:`build_suffix_array` ranks every suffix once.  The codes are dense-ranked
and as many symbols as fit one ``int64`` are packed into a first key, sorted
with one ``argsort``.  The ranks are then doubled over the still-tied groups
only (Larsson and Sadakane): each round sorts the members of every tied group
by one packed ``group * (n + 1) + rank[i + h]`` key, and a suffix alone in its
group keeps its slot and drops out.  That is O(n log n) on any input, long
identical sequences included, and positions and ranks are ``int32`` wherever
the text fits.

:func:`build_lcp_array` compares every neighbouring pair one packed window of
symbols per round, vectorised, for a few rounds, and hands the pairs still
matching to Kasai's amortisation, so it stays linear whatever the input.

This departs from the paper's construction (Section 3.4.1, after Hunt et al.),
which sorts one lexical partition of the suffixes per pass over the database
so that no pass needs more than a memory budget.  Here every suffix is sorted
at once: the sort and the LCPs peak at 44 and 53 bytes per residue, below the
image's record arrays that the disk build holds next, so a partition budget
would only decide where the stack pass pauses.  On a 2-core x86 host, the disk
build of 1 123 722 protein residues took 0.85 s and peaked at 105.5 MB of RSS,
where sorting one partition at a time took 1.3-1.5 s and 113.5 MB.  A sort by
partitions costs the sum of the LCPs, quadratic on repeats: on two copies of
one random DNA sequence it took 1.5 s at 10 k bases and 175 s at 100 k, where
this sort and the LCPs take 0.02 s and 0.23 s, and 3.9 s at 1 M bases.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)

# Rounds of the vectorised comparison, one window of symbols each, before
# Kasai takes over the pairs still matching: a round costs a few NumPy calls
# however few pairs are left.
_VECTOR_ROUNDS = 16


def _index_dtype(n: int) -> type:
    """``int32`` for positions, ranks and LCPs whenever ``n`` of them fit."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


def _key_width(base: int, n: int) -> int:
    """How many base-``base`` digits one ``int64`` key holds, at most ``n``."""
    width = 1
    while width < n and base ** (width + 1) <= _INT64_MAX:
        width += 1
    return width


def _windows(codes: np.ndarray) -> Tuple[np.ndarray, int, int]:
    """Every suffix's next ``width`` symbols packed into one ``int64``.

    The digits are base ``base``: a symbol's dense rank from 1, and 0 past the
    end, so windows order as the prefixes they pack, and a suffix's before
    that of every longer suffix it is a prefix of.  ``windows[n]`` is the
    empty suffix's, 0.  Returns ``(windows, base, width)``.
    """
    n = len(codes)
    # Dense ranks through a table as long as the largest code: an O(n) pass
    # where sorting the codes would be O(n log n).
    rank_of = np.zeros(int(codes.max()) + 1, dtype=_index_dtype(n))
    rank_of[codes] = 1
    np.cumsum(rank_of, out=rank_of)
    digits = rank_of[codes]
    base = int(rank_of[-1]) + 1
    del rank_of
    width = _key_width(base, n)
    windows = np.zeros(n + 1, dtype=np.int64)
    for offset in range(width):
        windows *= base
        windows[: n - offset] += digits[offset:]
    return windows, base, width


def build_suffix_array(codes: np.ndarray) -> np.ndarray:
    """Return the suffix array of an integer sequence.

    Parameters
    ----------
    codes:
        1-D array of non-negative integer symbol codes, ranked through a
        table as long as the largest one (the generalized-tree construction
        passes per-sequence distinct terminal codes, which simply sort as
        larger symbols).

    Returns
    -------
    numpy.ndarray
        ``sa[k]`` is the start position of the ``k``-th smallest suffix.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("suffix array input must be one-dimensional")
    n = len(codes)
    if (n + 1) ** 2 > _INT64_MAX:
        raise ValueError(f"{n} symbols: a packed (rank, next rank) key does not fit an int64")
    index = _index_dtype(n)
    if n == 0:
        return np.empty(0, dtype=index)

    # ``sa`` is sorted by the first ``h`` symbols; ``rank[i]`` is the first
    # slot of suffix i's group in it, the final slot once the group is i
    # alone.  ``rank[n]`` is the empty suffix, before everything.
    windows, _, h = _windows(codes)
    sa = np.empty(n, dtype=index)
    rank = np.empty(n + 1, dtype=index)
    rank[n] = -1
    slots = np.arange(n, dtype=index)
    tied = _split_groups(sa, rank, slots, slots, windows[:n])
    del windows
    while len(tied) and h < n:
        members = sa[tied]
        # A tied suffix shares its first h symbols with another one, past
        # the end included, so it is at least h long: i + h <= n.
        key = rank[members].astype(np.int64)
        key *= n + 1
        key += rank[members + h]
        key += 1
        tied = _split_groups(sa, rank, tied, members, key)
        h *= 2
    return sa


def _split_groups(
    sa: np.ndarray, rank: np.ndarray, slots: np.ndarray, members: np.ndarray, key: np.ndarray
) -> np.ndarray:
    """Sort ``members`` by ``key`` into ``sa[slots]`` and split the runs of equal keys.

    ``slots`` is ascending and ``key`` orders whole groups before anything
    inside one, so every group stays on its own slots.  Each run of equal
    keys gets its first slot as rank; returns the slots of the runs that hold
    more than one suffix.
    """
    order = np.argsort(key)
    members = members[order]
    key = key[order]
    del order
    sa[slots] = members
    starts = np.empty(len(key), dtype=bool)
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    del key
    first_slot = np.where(starts, slots, 0)
    np.maximum.accumulate(first_slot, out=first_slot)
    rank[members] = first_slot
    alone = starts & np.append(starts[1:], True)
    return slots[~alone]


def build_lcp_array(codes: np.ndarray, suffix_array: np.ndarray) -> np.ndarray:
    """LCP of each suffix with its predecessor in suffix-array order.

    ``lcp[k]`` is the length of the longest common prefix between the suffixes
    starting at ``suffix_array[k]`` and ``suffix_array[k - 1]``; ``lcp[0]`` is 0.
    """
    if len(suffix_array) != len(codes):
        raise ValueError("suffix array length does not match the input length")
    codes = np.asarray(codes)
    n = len(codes)
    index = _index_dtype(n)
    lcps = np.zeros(n, dtype=index)
    if n < 2:
        return lcps
    suffix_array = np.asarray(suffix_array).astype(index, copy=False)
    windows, base, width = _windows(codes)
    slots = np.arange(1, n, dtype=index)
    left, right = suffix_array[:-1], suffix_array[1:]
    matched = 0
    for _ in range(_VECTOR_ROUNDS):
        # A pair whose windows at the current offset agree matches for the
        # whole window and goes on (two distinct suffixes never agree past
        # an end).  The rest stop in this window, after its equal leading
        # digits.
        ahead, behind = windows[right + matched], windows[left + matched]
        stop = ahead != behind
        ahead, behind = ahead[stop], behind[stop]
        common = np.full(len(ahead), matched, dtype=index)
        for digits in range(width - 1, 0, -1):
            common += ahead // base**digits == behind // base**digits
        lcps[slots[stop]] = common
        del ahead, behind, common
        stop = ~stop
        slots, left, right = slots[stop], left[stop], right[stop]
        matched += width
        if not len(slots):
            return lcps

    # Kasai et al. for the pairs still matching: what suffix i - 1 shares
    # with its predecessor, less the first symbol, suffix i shares with its
    # own, so in text order each pair resumes one symbol short of where the
    # one before stopped and the comparisons sum to O(n).  A suffix whose
    # text neighbour is not among these pairs resumes at the symbols matched.
    symbols = codes.tolist()
    in_text_order = np.argsort(right)
    long_lcps = []
    before, common = -1, 0
    for i, j in zip(right[in_text_order].tolist(), left[in_text_order].tolist()):
        common = max(common - 1, matched) if i == before + 1 else matched
        limit = n - max(i, j)
        while common < limit and symbols[i + common] == symbols[j + common]:
            common += 1
        long_lcps.append(common)
        before = i
    lcps[slots[in_text_order]] = long_lcps
    return lcps

