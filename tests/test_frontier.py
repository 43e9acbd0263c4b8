"""The frontier: flat entries, built by the kernel, pushed as received.

One driver loop serves both kernels.  What it runs on is the tuple
``(-f, accepted-first flag, counter, tree_node, column, max_score, depth)``
of ``repro.core.search_node``: the kernel builds and numbers it, the driver
pushes it unchanged and hands it back as the parent of the next expansion.
These tests watch the heap from outside -- ``heapq``'s two functions wrapped
for the duration of a search -- and pin the tie-break the first three slots
implement.
"""

from __future__ import annotations

import heapq

import pytest

from repro.core.engine import OasisEngine
from repro.core.kernels import ExpansionKernel, available_kernels, get_kernel
from repro.core.results import hit_order_key
from repro.core.search_node import ACCEPTED_FIRST, VIABLE_AFTER, SearchNode
from repro.scoring.data import unit_matrix
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import GeneralizedSuffixTree

#: Copies and near-copies of one motif under +1/-1 scoring: many nodes share
#: an ``f``, several sequences share a score.
TEXTS = [
    "GGTACGTACCA",
    "TTTACGTACGG",
    "ACGTACGTACG",
    "CATACGAACTT",
    "TACGTAC",
    "GTACGTTC",
    "AAAAACCCCC",
]
QUERY = "TACGTAC"
MIN_SCORE = 4


@pytest.fixture(scope="module")
def cursor():
    database = SequenceDatabase.from_texts(TEXTS, alphabet=DNA_ALPHABET)
    return GeneralizedSuffixTree.build(database)


class HeapWatch:
    """Wraps ``heapq.heappush``/``heappop`` and records what goes through."""

    def __init__(self, monkeypatch):
        self.pushed = []
        self.popped = []
        self.accepted_before_viable = 0
        self.enqueue_order_ties = 0
        push, pop = heapq.heappush, heapq.heappop

        def watched_push(queue, entry):
            self.pushed.append(entry)
            push(queue, entry)

        def watched_pop(queue):
            # Only the first three slots order the heap: the entry that
            # comes out is the least by them among everything queued.
            ranked = sorted(queue, key=lambda entry: entry[:3])
            entry = pop(queue)
            assert entry is ranked[0]
            for other in ranked[1:]:
                if other[0] != entry[0]:
                    break
                if other[1] != entry[1]:
                    assert (entry[1], other[1]) == (ACCEPTED_FIRST, VIABLE_AFTER)
                    self.accepted_before_viable += 1
                else:
                    assert entry[2] < other[2]
                    self.enqueue_order_ties += 1
            self.popped.append(entry)
            return entry

        monkeypatch.setattr(heapq, "heappush", watched_push)
        monkeypatch.setattr(heapq, "heappop", watched_pop)


class RecordingKernel(ExpansionKernel):
    """Passes ``expand_children`` through and keeps what went in and out."""

    def __init__(self, inner: ExpansionKernel):
        self.inner = inner
        self.name = inner.name
        self.parents = []
        self.returned = []

    def expand_children(self, parent, siblings, context):
        assert isinstance(siblings, list)
        entries = self.inner.expand_children(parent, siblings, context)
        self.parents.append(parent)
        self.returned.extend(entries)
        return entries


def count_search_nodes(monkeypatch):
    built = []
    construct = SearchNode.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(SearchNode, "__init__", counting)
    return built


@pytest.mark.parametrize("kernel", available_kernels())
class TestFlatFrontier:
    def search(self, cursor, kernel):
        return OasisEngine(cursor, unit_matrix(DNA_ALPHABET), FixedGapModel(-1), kernel=kernel)

    def test_pushes_what_the_kernel_numbered(self, cursor, kernel, monkeypatch):
        built = count_search_nodes(monkeypatch)
        watch = HeapWatch(monkeypatch)
        result = self.search(cursor, kernel).search(QUERY, min_score=MIN_SCORE)
        statistics = result.statistics
        assert statistics.kernel == kernel
        # The root is seeded, not pushed; everything else is one push each.
        assert len(watch.pushed) == statistics.nodes_enqueued > 0
        assert [entry[2] for entry in watch.pushed] == list(range(1, len(watch.pushed) + 1))
        assert all(type(entry) is tuple and len(entry) == 7 for entry in watch.pushed)
        assert statistics.nodes_expanded + statistics.nodes_accepted == len(watch.popped)
        if kernel != "reference":
            assert built == []
        else:
            # The dense form expands ``SearchNode`` views, one arc at a time.
            assert len(built) > statistics.nodes_enqueued

    def test_entries_go_through_the_driver_untouched(self, cursor, kernel, monkeypatch):
        watch = HeapWatch(monkeypatch)
        recording = RecordingKernel(get_kernel(kernel))
        self.search(cursor, recording).search(QUERY, min_score=MIN_SCORE)
        assert len(watch.pushed) == len(recording.returned)
        assert all(pushed is made for pushed, made in zip(watch.pushed, recording.returned))
        # A popped VIABLE entry comes back as the parent of its expansion.
        viable = [entry for entry in watch.popped if entry[1] == VIABLE_AFTER]
        assert len(viable) == len(recording.parents)
        assert all(popped is parent for popped, parent in zip(viable, recording.parents))

    def test_equal_f_accepted_first_then_enqueue_order(self, cursor, kernel, monkeypatch):
        watch = HeapWatch(monkeypatch)
        execution = self.search(cursor, kernel).execute(QUERY, min_score=MIN_SCORE)
        streamed = list(execution)
        assert watch.accepted_before_viable > 0
        assert watch.enqueue_order_ties > 0
        # Pops never rise in f, and an ACCEPTED entry's f is its score.
        bounds = [-entry[0] for entry in watch.popped]
        assert bounds == sorted(bounds, reverse=True)
        assert all(
            -entry[0] == entry[5] and entry[4] is None
            for entry in watch.popped
            if entry[1] == ACCEPTED_FIRST
        )
        # The stream is the canonical order: score, then identifier.
        assert streamed == sorted(streamed, key=hit_order_key)
        scores = [hit.score for hit in streamed]
        assert len(set(scores)) < len(scores)
        assert [(hit.sequence_identifier, hit.score) for hit in streamed] == [
            (hit.sequence_identifier, hit.score) for hit in execution.result()
        ]


def test_both_kernels_pop_the_same_sequence(cursor, monkeypatch):
    watch = HeapWatch(monkeypatch)
    sequences = []
    for kernel in available_kernels():
        OasisEngine(cursor, unit_matrix(DNA_ALPHABET), FixedGapModel(-1), kernel=kernel).search(
            QUERY, min_score=MIN_SCORE
        )
        # Every slot but the column, which each kernel keeps in its own form.
        sequences.append([(entry[:4], entry[5:]) for entry in watch.popped])
        watch.popped.clear()
    assert sequences[0] != [] and all(sequence == sequences[0] for sequence in sequences)
