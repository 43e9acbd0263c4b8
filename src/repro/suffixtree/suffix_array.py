"""Suffix array and LCP array construction.

These are the building blocks for the generalized suffix tree: the tree is
derived from the sorted order of all suffixes (the suffix array) and the
longest-common-prefix lengths of neighbouring suffixes (the LCP array) with a
single linear stack pass (see :mod:`repro.suffixtree.construction`).

The suffix array is built with prefix doubling (Manber-Myers) implemented on
NumPy primitives: O(n log n) sorting passes, each one stable ``argsort`` of a
packed ``(rank, next rank)`` key, which keeps pure-Python overhead per symbol
tiny.  :func:`sort_suffixes` orders a *subset* of the suffixes (one lexical
partition of the memory-bounded construction) without ranking the rest.

LCPs come from one vectorised step: every neighbouring pair advances one
symbol per round and drops out at its first mismatch.  :func:`adjacent_lcps`
(a subset of the suffixes) runs it to the end, so its work -- like
:func:`sort_suffixes`'s -- is the sum of the LCPs: a handful of symbols per
pair on biological sequences, quadratic on long identical sequences.
:func:`build_lcp_array` (the whole suffix array) runs a few rounds of it and
hands the pairs still matching to Kasai's amortisation, which only the whole
text allows, and stays linear whatever the input.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)

# Rounds of the vectorised comparison before Kasai takes over the pairs still
# matching: a round costs a few NumPy calls however few pairs are left.
_VECTOR_ROUNDS = 16


def build_suffix_array(codes: np.ndarray) -> np.ndarray:
    """Return the suffix array of an integer sequence.

    Parameters
    ----------
    codes:
        1-D integer array.  Values may be any non-negative integers (the
        generalized-tree construction passes per-sequence distinct terminal
        codes, which simply sort as larger symbols).

    Returns
    -------
    numpy.ndarray
        ``sa[k]`` is the start position of the ``k``-th smallest suffix.
    """
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("suffix array input must be one-dimensional")
    n = len(codes)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    if (n + 1) ** 2 > _INT64_MAX:
        raise ValueError(f"{n} symbols: a packed (rank, next rank) key does not fit an int64")

    # Initial ranks: the symbol codes themselves (compressed to dense ranks).
    order = np.argsort(codes, kind="stable").astype(np.int64)
    sorted_codes = codes[order]
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.concatenate(([0], np.cumsum(sorted_codes[1:] != sorted_codes[:-1])))

    k = 1
    while k < n:
        # Sort by (rank[i], rank[i + k]) packed into one key below
        # (n + 1) ** 2; a suffix shorter than k sorts first.
        key = rank * (n + 1)
        key[: n - k] += rank[k:] + 1
        order = np.argsort(key, kind="stable")
        key = key[order]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(key[1:] != key[:-1])))
        if rank[order[-1]] == n - 1:
            break
        k *= 2

    return order.astype(np.int64, copy=False)


def sort_suffixes(codes: np.ndarray, positions: np.ndarray, symbol_count: int) -> np.ndarray:
    """Sort the suffixes that start at ``positions``.

    Most-significant-symbols-first refinement: each round packs the next few
    symbols of every still-tied suffix into one integer key and sorts the tied
    groups by it; a suffix alone in its group is placed and drops out.  Only
    the listed suffixes are touched, so the transients are proportional to
    ``len(positions)``, not to the text.  All the listed suffixes must be
    distinct within the text (the generalized tree's per-sequence terminal
    codes guarantee it); symbols read past a suffix's distinguishing symbol
    never decide an order.  Every code is below ``symbol_count``.
    """
    codes = np.asarray(codes)
    order = np.array(positions, dtype=np.int64)
    n = len(codes)
    width = 1
    while symbol_count ** (width + 1) <= _INT64_MAX:
        width += 1
    weights = symbol_count ** np.arange(width - 1, -1, -1, dtype=np.int64)
    offsets = np.arange(width, dtype=np.int64)

    # ``tied`` lists the slots of ``order`` not yet placed, ascending; a group
    # is a run of slots, named by its first one.
    tied = np.arange(len(order), dtype=np.int64)
    group = np.zeros(len(order), dtype=np.int64)
    depth = 0
    while len(tied) > 1:
        if depth >= n:
            raise ValueError("sort_suffixes needs pairwise distinct suffixes")
        members = order[tied]
        window = np.minimum(members[:, None] + (depth + offsets), n - 1)
        key = codes[window].astype(np.int64) @ weights
        rearranged = np.lexsort((key, group))
        members, key = members[rearranged], key[rearranged]
        order[tied] = members
        starts = np.flatnonzero(
            np.concatenate(([True], (group[1:] != group[:-1]) | (key[1:] != key[:-1])))
        )
        sizes = np.diff(np.append(starts, len(tied)))
        still_tied = np.repeat(sizes > 1, sizes)
        group = np.repeat(tied[starts], sizes)[still_tied]
        tied = tied[still_tied]
        depth += width
    return order


def _match_rounds(
    codes: np.ndarray,
    slots: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    lcps: np.ndarray,
    rounds: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compare the suffixes at ``left[k]`` and ``right[k]`` one symbol per round.

    A pair that stops matching has its LCP written to ``lcps[slots[k]]`` and
    drops out.  Runs until no pair is left, or for ``rounds`` rounds; returns
    ``(slots, left, right)`` of the pairs that matched throughout.
    """
    room = len(codes) - np.maximum(left, right)
    matched = 0
    while len(slots) and matched != rounds:
        # A pair stays while neither suffix has run off the text and the
        # symbols at the current offset agree.
        alive = room > matched
        alive[alive] = codes[left[alive] + matched] == codes[right[alive] + matched]
        lcps[slots[~alive]] = matched
        slots, left, right, room = slots[alive], left[alive], right[alive], room[alive]
        matched += 1
    return slots, left, right


def adjacent_lcps(
    codes: np.ndarray, positions: np.ndarray, predecessor: Optional[int] = None
) -> np.ndarray:
    """LCP of each listed suffix with the one listed before it.

    ``lcps[k]`` is the longest common prefix of the suffixes starting at
    ``positions[k]`` and ``positions[k - 1]``; ``lcps[0]`` is taken against
    the suffix at ``predecessor`` (the last suffix of the previous lexical
    partition), or is 0 when there is none.
    """
    right = np.asarray(positions, dtype=np.int64)
    lcps = np.zeros(len(right), dtype=np.int64)
    if predecessor is None:
        slots = np.arange(1, len(right), dtype=np.int64)
        left, right = right[:-1], right[1:]
    else:
        slots = np.arange(len(right), dtype=np.int64)
        left = np.concatenate(([predecessor], right[:-1])).astype(np.int64)
    _match_rounds(np.asarray(codes), slots, left, right, lcps)
    return lcps


def build_lcp_array(codes: np.ndarray, suffix_array: np.ndarray) -> np.ndarray:
    """LCP of each suffix with its predecessor in suffix-array order.

    ``lcp[k]`` is the length of the longest common prefix between the suffixes
    starting at ``suffix_array[k]`` and ``suffix_array[k - 1]``; ``lcp[0]`` is 0.
    """
    if len(suffix_array) != len(codes):
        raise ValueError("suffix array length does not match the input length")
    codes = np.asarray(codes)
    suffix_array = np.asarray(suffix_array, dtype=np.int64)
    n = len(codes)
    lcps = np.zeros(n, dtype=np.int64)
    slots = np.arange(1, n, dtype=np.int64)
    slots, left, right = _match_rounds(
        codes, slots, suffix_array[:-1], suffix_array[1:], lcps, _VECTOR_ROUNDS
    )
    if not len(slots):
        return lcps

    # Kasai et al. for the pairs still matching: what suffix i - 1 shares
    # with its predecessor, less the first symbol, suffix i shares with its
    # own, so in text order each pair resumes one symbol short of where the
    # one before stopped and the comparisons sum to O(n).  A suffix whose
    # text neighbour is not among these pairs resumes at the rounds matched.
    symbols = codes.tolist()
    in_text_order = np.argsort(right)
    long_lcps = []
    before, common = -1, 0
    for i, j in zip(right[in_text_order].tolist(), left[in_text_order].tolist()):
        common = max(common - 1, _VECTOR_ROUNDS) if i == before + 1 else _VECTOR_ROUNDS
        limit = n - max(i, j)
        while common < limit and symbols[i + common] == symbols[j + common]:
            common += 1
        long_lcps.append(common)
        before = i
    lcps[slots[in_text_order]] = long_lcps
    return lcps


def verify_suffix_array(codes: np.ndarray, suffix_array: np.ndarray) -> bool:
    """Check that ``suffix_array`` really is the sorted order of all suffixes.

    Used by the test-suite (and available to callers who build indexes from
    untrusted serialized data).  Runs in O(n) by checking adjacent pairs with
    the rank trick rather than comparing full suffixes.
    """
    codes = np.asarray(codes)
    suffix_array = np.asarray(suffix_array)
    n = len(codes)
    if sorted(suffix_array.tolist()) != list(range(n)):
        return False
    if n <= 1:
        return True
    rank = np.empty(n, dtype=np.int64)
    rank[suffix_array] = np.arange(n)
    for k in range(1, n):
        i, j = int(suffix_array[k - 1]), int(suffix_array[k])
        # Compare suffix i < suffix j by first symbol, then by rank of the
        # remainders (valid because the remainders are themselves suffixes).
        while True:
            if i == n:
                break  # suffix i is empty -> smaller: OK
            if j == n:
                return False
            if codes[i] != codes[j]:
                if codes[i] > codes[j]:
                    return False
                break
            i += 1
            j += 1
            if i < n and j < n:
                if rank[i] > rank[j]:
                    return False
                break
    return True
