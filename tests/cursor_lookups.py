"""Exact-match lookups over any suffix-tree cursor: the tests' probes of a tree.

The OASIS search reads a tree only through ``siblings()`` and
``sequences_below()``; these walks are how the tests ask a tree -- built,
read from an image, or read through a buffer pool -- what it holds, through
the :class:`~repro.suffixtree.cursor.SuffixTreeCursor` interface alone:
substring membership and occurrences (Section 2.3.1), and arc and path
labels.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple


def find_exact(cursor, query_codes: Sequence[int]):
    """Locate the node whose path spells ``query_codes`` (Section 2.3.1).

    Returns the handle of the shallowest node at or below the end of the
    match, or ``None`` when the query does not occur in the database.
    """
    query = bytes(map(int, query_codes))
    node = cursor.root
    matched = 0
    while matched < len(query):
        advanced = False
        for child in cursor.children(node):
            symbols = cursor.arc_symbols(child)
            if len(symbols) == 0 or symbols[0] != query[matched]:
                continue
            compare = min(len(symbols), len(query) - matched)
            if symbols[:compare] != query[matched : matched + compare]:
                return None
            matched += compare
            node = child
            advanced = True
            break
        if not advanced:
            return None
        if cursor.is_leaf(node) and matched < len(query):
            return None
    return node


def contains(cursor, query: str) -> bool:
    """Exact substring membership (Section 2.3.1)."""
    return find_exact(cursor, cursor.database.alphabet.encode(query)) is not None


def occurrences_below(cursor, node) -> List[Tuple[int, int]]:
    """``(sequence index, local offset)`` of every leaf under ``node``."""
    return [cursor.database.locate(position) for position in cursor.leaf_positions(node)]


def find_occurrences(cursor, query: str) -> List[Tuple[int, int]]:
    """All ``(sequence index, local offset)`` occurrences of ``query``, sorted."""
    node = find_exact(cursor, cursor.database.alphabet.encode(query))
    if node is None:
        return []
    return sorted(occurrences_below(cursor, node))


def arc_label(cursor, node) -> str:
    """The incoming arc of ``node``, decoded."""
    return cursor.database.alphabet.decode(cursor.arc_symbols(node))


def path_label(cursor, node) -> str:
    """The full path label from the root down to ``node``, decoded.

    The arc of a node ends where its path does, ``string_depth`` symbols
    after the path starts.
    """
    start, length = cursor.arc(node)
    end = start + length
    codes = cursor.database.concatenated_codes[end - cursor.string_depth(node) : end]
    return cursor.database.alphabet.decode(codes)
