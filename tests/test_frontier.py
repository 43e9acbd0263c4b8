"""The frontier: Algorithm 1's queue, in C and in Python, pops one sequence.

A search is one loop over a frontier (``repro.core.frontier``).  The Python
frontier runs on ``heapq`` and the flat tuples
``(-f, accepted-first flag, counter, tree_node, column, max_score, depth)``
of ``repro.core.search_node``: the kernel builds and numbers them, the
frontier pushes them unchanged and hands each popped one back as the parent
of the next expansion.  The ``HeapWatch`` tests watch that heap from outside
-- ``heapq``'s two functions wrapped for the duration of a search -- and pin
the tie-break the first three slots implement, on every kernel (the
compiled one through its node step).

The compiled kernel's own frontier is C (``frontier(records, context,
entries)`` in ``core/_column_step.c``).  The twin tests hold it to the
Python frontier over ``partial(node_step, records)``, advance for advance:
the same steps, the same popped entries (the C frontier's ``popped`` list
is its test view), the same counters, ``max_queue_size`` included, and on
a disk cursor the same pool -- frames, clock hand, reference bits and
counters -- after every ``advance``; on built, read and disk trees, protein
and DNA, with an E-value and with ``min_score``, seeded by the root or by
a partition root's kept children.  Last, an abort or an expired deadline
stops a search within one ``advance``'s budget of pops, and what was
emitted is only proven hits.
"""

from __future__ import annotations

import copy
import functools
import heapq
import random
import time

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import OasisEngine
from repro.core.frontier import BELOW_FLOOR, EMPTY, FRONTIER_BUDGET, PAUSED, PythonFrontier
from repro.core.kernels import ExpansionKernel, available_kernels, get_kernel
from repro.core.results import hit_order_key
from repro.core.search_node import ACCEPTED_FIRST, VIABLE_AFTER, SearchNode
from repro.scoring.data import unit_matrix
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.buffer_pool import HAND, READ_NANOSECONDS
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import (
    PLANTED_SEARCHES,
    on_python_frontier,
    pool_bytes,
    random_dna,
    searches,
    tree_of,
)

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_kernels(), reason="the compiled step does not build here"
)

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


def python_frontier_kernel(name):
    """Kernel ``name``, searching on the Python frontier: the compiled one
    over its node step, which it would otherwise run in its C frontier."""
    kernel = get_kernel(name)
    return on_python_frontier(kernel) if kernel.name == "compiled" else kernel


@pytest.mark.parametrize("kernel", available_kernels())
class TestFlatFrontier:
    def search(self, cursor, kernel):
        if isinstance(kernel, str):
            kernel = python_frontier_kernel(kernel)
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


def recording_c_frontier(popped):
    """The compiled kernel, its C frontier appending each popped entry to ``popped``."""
    kernel = get_kernel("compiled")

    def frontier(cursor, context, entries):
        return kernel.node_frontier(cursor.node_records, context, entries, popped)

    kernel.frontier = frontier
    return kernel


def test_both_kernels_pop_the_same_sequence(cursor, monkeypatch):
    watch = HeapWatch(monkeypatch)
    sequences = []
    for kernel in available_kernels():
        popped = watch.popped
        if kernel == "compiled":
            # The C frontier pushes nothing through heapq: its own record.
            popped = []
            kernel = recording_c_frontier(popped)
        OasisEngine(cursor, unit_matrix(DNA_ALPHABET), FixedGapModel(-1), kernel=kernel).search(
            QUERY, min_score=MIN_SCORE
        )
        # Every slot but the column, which each kernel keeps in its own form.
        sequences.append([(entry[:4], entry[5:]) for entry in popped])
        watch.popped.clear()
    assert len(sequences) == len(available_kernels())
    assert sequences[0] != [] and all(sequence == sequences[0] for sequence in sequences)


# --------------------------------------------------------------------- #
# The C frontier against its Python twin
# --------------------------------------------------------------------- #
def frontier_counts(frontier):
    return (
        frontier.columns_expanded,
        frontier.nodes_enqueued,
        frontier.nodes_dropped,
        frontier.nodes_expanded,
        frontier.max_queue_size,
        len(frontier),
    )


def pool_state(tree):
    """What a pool holds: counters (the time its reads took aside), frames
    in clock order, hand, reference bits."""
    pool = tree.pool
    return (
        list(pool.counters[:READ_NANOSECONDS]),
        list(pool.blocks),
        pool.counters[HAND],
        bytes(pool.referenced),
        list(pool.slot_of),
    )


class TwinFrontier:
    """The C frontier over ``cursor``'s records and the Python frontier over
    ``partial(node_step, twin's records)``, advanced in lock step.

    After every ``advance`` both must have returned the same step, popped the
    same entries, kept the same counters and, on a disk, left their pools in
    the same state.  ``budget`` caps the search loop's, so that small trees pause
    too.
    """

    def __init__(self, kernel, cursor, twin, context, entries, budget):
        self.cursor, self.twin, self.budget = cursor, twin, budget
        self.compiled_popped, self.python_popped = [], []
        self.compiled = kernel.node_frontier(
            cursor.node_records, context, entries, self.compiled_popped
        )
        self.python = PythonFrontier(
            functools.partial(kernel.node_step, twin.node_records),
            copy.copy(context),
            entries,
            self.python_popped,
        )
        self.steps = []
        self.check()

    def check(self):
        assert self.compiled_popped == self.python_popped
        assert frontier_counts(self.compiled) == frontier_counts(self.python)
        if isinstance(self.cursor, DiskSuffixTree):
            assert pool_state(self.cursor) == pool_state(self.twin)

    def advance(self, bound_floor, budget):
        budget = min(budget, self.budget)
        step = self.compiled.advance(bound_floor, budget)
        assert self.python.advance(bound_floor, budget) == step
        self.check()
        self.steps.append(step)
        return step

    def __len__(self):
        return len(self.compiled)

    def __getattr__(self, name):
        # The counters the search reads at the end of the search.
        return getattr(self.compiled, name)


def partitions(tree, count):
    """The root symbols of ``count`` partitions of ``tree``, dealt round robin;
    ``None`` (the unpartitioned search) for no count."""
    if count is None:
        return [None]
    symbols = sorted({arc[0] for _, arc, _ in tree.siblings(tree.root)})
    return [bytes(symbols[part::count]) for part in range(count) if symbols[part::count]]


def outcome(result):
    counters = result.statistics.as_dict()
    for name in ("elapsed_seconds", "buffer_hits", "buffer_misses", "buffer_evictions", "kernel"):
        del counters[name]
    return [(hit.sequence_index, hit.score, hit.evalue) for hit in result.hits], counters


def twin_search(cursor, twin, database, matrix, gap, query, threshold, parts, budget):
    """Each partition's search on ``cursor`` through a :class:`TwinFrontier`,
    held to the ``live`` kernel's search of the built tree, hit for hit and
    counter for counter; the twins made."""
    kernel = get_kernel("compiled")
    made = []

    def frontier(searched, context, entries):
        assert searched is cursor
        made.append(TwinFrontier(kernel, cursor, twin, context, entries, budget))
        return made[-1]

    kernel.frontier = frontier
    engine = OasisEngine(cursor, matrix, FixedGapModel(gap), kernel=kernel)
    built = GeneralizedSuffixTree.build(database)
    expected_engine = OasisEngine(built, matrix, FixedGapModel(gap), kernel="live")
    for symbols in partitions(built, parts):
        execution = engine.execute(query, **threshold)
        execution.root_symbols = symbols
        expected = expected_engine.execute(query, **threshold)
        expected.root_symbols = symbols
        assert outcome(execution.result()) == outcome(expected.result())
    return made


def disk_twins(path, database, budget):
    """Two cursors over one image, each with a pool of ``budget`` bytes, kept
    in step: the search loop's own cursor calls (a partition's root, a hit's
    leaves) are made on both."""
    disk = DiskSuffixTree(path, database, buffer_pool_bytes=budget)
    twin = DiskSuffixTree(path, database, buffer_pool_bytes=budget)
    for name in ("siblings", "sequences_below"):
        own, other = getattr(disk, name), getattr(twin, name)

        def both(node, own=own, other=other):
            found = own(node)
            assert other(node) == found
            return found

        setattr(disk, name, both)
    return disk, twin


@needs_compiled
@given(
    search=searches(),
    form=st.sampled_from(["built", "read"]),
    parts=st.sampled_from([None, 1, 2, 4]),
    budget=st.sampled_from([1, 3, FRONTIER_BUDGET]),
)
def test_the_c_frontier_advances_as_its_python_twin(tmp_path_factory, search, form, parts, budget):
    database, matrix, gap, query, min_score = search
    tree = tree_of(form, database, tmp_path_factory)
    twin_search(tree, tree, database, matrix, gap, query, {"min_score": min_score}, parts, budget)


@needs_compiled
@given(
    search=searches(),
    block_size=st.sampled_from([72, 256, 2048]),
    frames=st.sampled_from([1, 2, "whole"]),
    parts=st.sampled_from([None, 1, 2, 4]),
    budget=st.sampled_from([1, 3, FRONTIER_BUDGET]),
)
def test_the_c_frontier_on_a_disk_keeps_the_pool_of_its_python_twin(
    tmp_path_factory, search, block_size, frames, parts, budget
):
    database, matrix, gap, query, min_score = search
    path = tmp_path_factory.mktemp("image") / "tree.oasis"
    build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=block_size)
    disk, twin = disk_twins(path, database, pool_bytes(path, block_size, frames))
    try:
        twin_search(disk, twin, database, matrix, gap, query, {"min_score": min_score}, parts, budget)
    finally:
        disk.close()
        twin.close()


#: The trees a planted case is searched on: built, read, and on disk at a
#: block size where runs and arcs straddle pages, with one frame, two, or
#: the whole image.
FORMS = ["built", "read", "disk-72-1", "disk-256-2", "disk-2048-whole"]


@needs_compiled
@pytest.mark.parametrize("parts", [None, 1, 2, 4])
@pytest.mark.parametrize("threshold", ["min_score", "evalue"])
@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("case", sorted(PLANTED_SEARCHES))
def test_a_planted_search_advances_the_twins_alike(
    tmp_path_factory, case, form, threshold, parts
):
    make_database, make_matrix, gap, query, min_score, evalue = PLANTED_SEARCHES[case]
    database = make_database()
    limit = {"min_score": min_score} if threshold == "min_score" else {"evalue": evalue}
    if form.startswith("disk"):
        _, block_size, frames = form.split("-")
        path = tmp_path_factory.mktemp("image") / "tree.oasis"
        build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=int(block_size))
        frames = frames if frames == "whole" else int(frames)
        cursor, twin = disk_twins(path, database, pool_bytes(path, int(block_size), frames))
    else:
        cursor = twin = tree_of(form, database, tmp_path_factory)
    try:
        made = twin_search(cursor, twin, database, make_matrix(), gap, query, limit, parts, 4)
    finally:
        if form.startswith("disk"):
            cursor.close()
            twin.close()
    steps = [step for twins in made for step in twins.steps]
    assert sum(isinstance(step, tuple) for step in steps) >= 1
    assert PAUSED in steps
    assert sum(twins.compiled.nodes_expanded for twins in made) > 1


# --------------------------------------------------------------------- #
# advance(), one call at a time
# --------------------------------------------------------------------- #
def large_search():
    """A DNA search that pops thousands of entries under +1/-1 scoring."""
    rng = random.Random(5)
    database = SequenceDatabase.from_texts(
        [random_dna(rng, 120) for _ in range(40)], alphabet=DNA_ALPHABET
    )
    query = random_dna(rng, 40)
    return database, unit_matrix(DNA_ALPHABET), -1, query, 9


def frontier_kinds():
    kinds = ["python"]
    if "compiled" in available_kernels():
        kinds.append("compiled")
    return kinds


def frontier_of(kind, tree, context, entries):
    if kind == "compiled":
        return get_kernel("compiled").node_frontier(tree.node_records, context, entries)
    return get_kernel("live").frontier(tree, context, entries)


def root_frontier(kind, engine, query, min_score):
    execution = engine.execute(query, min_score=min_score)
    context = execution.context
    root = (-max(context.heuristic), VIABLE_AFTER, 0, engine.cursor.root,
            context.make_root_cells(), 0, 0)
    return frontier_of(kind, engine.cursor, context, [root])


@pytest.mark.parametrize("kind", frontier_kinds())
def test_advance_stops_at_its_budget_and_at_the_floor(kind):
    database, matrix, gap, query, min_score = large_search()
    engine = OasisEngine(GeneralizedSuffixTree.build(database), matrix, FixedGapModel(gap))
    frontier = root_frontier(kind, engine, query, min_score)
    pops, paused, hits = 0, 0, []
    while True:
        before = frontier.nodes_expanded
        step = frontier.advance(None, 5)
        made = frontier.nodes_expanded - before + isinstance(step, tuple)
        assert made <= 5
        pops += made
        if step == EMPTY:
            break
        if step == PAUSED:
            assert made == 5
            paused += 1
        else:
            hits.append(step[0])
    assert paused > 0 and hits and pops > 2 * FRONTIER_BUDGET
    assert hits == sorted(hits, reverse=True)
    assert len(frontier) == 0 and frontier.advance(None, 5) == EMPTY

    # A floor above every bound: nothing is popped, and the entry stays.
    frontier = root_frontier(kind, engine, query, min_score)
    assert frontier.advance(10**9, 5) == BELOW_FLOOR
    assert (frontier.nodes_expanded, frontier.max_queue_size, len(frontier)) == (0, 1, 1)
    with pytest.raises(ValueError):
        frontier.advance(None, 0)


@needs_compiled
@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda root: root[:6], id="six-slots"),
        pytest.param(lambda root: root[:1] + (2,) + root[2:], id="flag-2"),
        pytest.param(lambda root: root[:3] + (("X", 0, 0, 0, 0),) + root[4:], id="kind-X"),
        pytest.param(lambda root: root[:3] + (("I", 0, 0),) + root[4:], id="short-handle"),
        pytest.param(lambda root: root[:4] + ([(1, 0), (0, 0)],) + root[5:], id="rows-descend"),
    ],
)
def test_a_seed_of_the_wrong_shape_is_refused(cursor, entry):
    engine = OasisEngine(cursor, unit_matrix(DNA_ALPHABET), FixedGapModel(-1))
    context = engine.execute(QUERY, min_score=MIN_SCORE).context
    root = (-max(context.heuristic), VIABLE_AFTER, 0, cursor.root, context.make_root_cells(), 0, 0)
    with pytest.raises((TypeError, ValueError)):
        frontier_of("compiled", cursor, context, [entry(root)])
    with pytest.raises(TypeError):
        frontier_of("compiled", cursor, context, iter([root]))


@needs_compiled
def test_a_closed_disk_cursor_fails_the_next_advance(tmp_path):
    database, matrix, gap, query, min_score = large_search()
    path = tmp_path / "tree.oasis"
    build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=256)
    disk = DiskSuffixTree(path, database, buffer_pool_bytes=1024)
    engine = OasisEngine(disk, matrix, FixedGapModel(gap))
    frontier = root_frontier("compiled", engine, query, min_score)
    assert frontier.advance(None, 3) == PAUSED
    requests = disk.statistics.requests
    disk.close()
    with pytest.raises(ValueError, match="closed"):
        frontier.advance(None, 3)
    assert disk.statistics.requests == requests


# --------------------------------------------------------------------- #
# Abort and deadline: honoured within one advance's budget of pops
# --------------------------------------------------------------------- #
class AdvanceWatch:
    """A frontier that counts each ``advance``'s pops and, after call
    ``stop_after``, runs ``stop()`` -- as an abort or a deadline landing
    while the frontier runs would be seen."""

    def __init__(self, inner, stop_after, stop):
        self.inner, self.stop_after, self.stop = inner, stop_after, stop
        self.calls = []

    def advance(self, bound_floor, budget):
        assert budget == FRONTIER_BUDGET
        before = self.inner.nodes_expanded
        step = self.inner.advance(bound_floor, budget)
        self.calls.append(self.inner.nodes_expanded - before + isinstance(step, tuple))
        if len(self.calls) == self.stop_after:
            self.stop()
        return step

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize("kind", frontier_kinds())
@pytest.mark.parametrize("how", ["abort", "deadline"])
def test_a_stop_is_honoured_within_the_budget_and_emits_only_proven_hits(kind, how):
    database, matrix, gap, query, min_score = large_search()
    tree = GeneralizedSuffixTree.build(database)
    full = OasisEngine(tree, matrix, FixedGapModel(gap)).search(query, min_score=min_score)
    # The whole search takes many advances.
    assert full.statistics.nodes_expanded > 4 * FRONTIER_BUDGET

    kernel = get_kernel("compiled" if kind == "compiled" else "live")
    watches = []
    execution = None

    def stop():
        if how == "abort":
            execution.abort()
        else:
            execution.set_deadline(time.perf_counter() - 1.0)

    def frontier(cursor, context, entries):
        watches.append(AdvanceWatch(frontier_of(kind, cursor, context, entries), 3, stop))
        return watches[-1]

    kernel.frontier = frontier
    execution = OasisEngine(tree, matrix, FixedGapModel(gap), kernel=kernel).execute(
        query, min_score=min_score
    )
    emitted = list(execution)
    (watch,) = watches
    # No advance after the one the stop landed in, and none made more than
    # its budget of pops.
    assert len(watch.calls) == 3
    assert max(watch.calls) <= FRONTIER_BUDGET
    statistics = execution.statistics
    assert statistics.nodes_expanded + statistics.nodes_accepted == sum(watch.calls)
    assert (execution.aborted, execution.timed_out) == (how == "abort", how == "deadline")
    assert statistics.nodes_expanded < full.statistics.nodes_expanded

    # Only proven hits: each is a hit of the whole search, and none that
    # was held back scores above one that was emitted.
    everything = {(hit.sequence_index, hit.score) for hit in full.hits}
    shown = {(hit.sequence_index, hit.score) for hit in emitted}
    assert shown <= everything
    if shown:
        assert max(
            [score for hit, score in everything - shown] or [0]
        ) <= min(score for _, score in shown)
