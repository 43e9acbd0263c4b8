"""The frontier: Algorithm 1's queue, in C and in Python, pops one sequence.

A search is one loop over a frontier (``repro.core.frontier``).  The Python
frontier runs on ``heapq`` and the flat tuples
``(-f, accepted-first flag, counter, tree_node, column, max_score, depth)``
of ``repro.core.search_node``: the kernel builds and numbers them, the
frontier pushes them unchanged and hands each popped one back as the parent
of the next expansion.  The ``HeapWatch`` tests watch that heap from outside
-- ``heapq``'s two functions wrapped for the duration of a search -- and pin
the tie-break the first three slots implement, on every kernel (the
compiled one on the Python frontier, where it runs ``live``'s step).

The compiled kernel's own frontier is C (``frontier(records, context, root,
root_symbols)`` in ``core/_column_step.c``): it decodes each node's
children from ``cursor.node_records`` and walks their arcs where they lie --
the record arrays of the in-memory tree, or the disk cursor's page source,
whose pages it asks of the buffer pool.  Its twin is the ``live`` kernel's
Python frontier over ``siblings()``, the code that runs where the C source
does not build.  The twin tests hold the two to each other advance for
advance: the same steps, the same popped entries (each frontier's
``popped`` list is its test view), the same counters, ``max_queue_size``
included, and on a disk the same pool -- frames, clock hand, reference bits
and every counter, per region too -- after every ``advance``, the twin's
pool serving its requests by the Python body of ``BufferPool.page``.  They
run on random protein and DNA databases and planted motifs, with an E-value
and with ``min_score``, on the built tree, the tree read back from its
image and the disk cursor at block sizes where runs and arcs straddle pages
(72 / 256 / 2048), over pools of one frame, two frames and the whole image,
on the whole tree and on 1, 2 and 4 partitions of its root.

A search must take the C frontier wherever it applies, and only there; a
partition's root is expanded there too, with no ``siblings()`` call.
Records and images that point past their regions must raise ``IndexError``,
never crash, records of the wrong shape ``TypeError``, and a closed cursor
must make no request.  Last, an abort or an expired deadline stops a search
within one ``advance``'s budget of pops, and what was emitted is only
proven hits.

The example budget comes from the hypothesis profile (``tests/conftest.py``):
bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` for the larger CI run.
"""

from __future__ import annotations

import copy
import heapq
import random
import struct
import time
from array import array

import pytest
from hypothesis import given, strategies as st

from repro.core import kernels
from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext, expand_arc_reference
from repro.core.frontier import BELOW_FLOOR, EMPTY, FRONTIER_BUDGET, PAUSED
from repro.core.heuristic import compute_heuristic_vector
from repro.core.kernels import ExpansionKernel, ReferenceKernel, available_kernels, get_kernel
from repro.core.results import hit_order_key
from repro.core.search_node import ACCEPTED_FIRST, VIABLE_AFTER, SearchNode
from repro.scoring.data import nucleotide_matrix, pam30, unit_matrix
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.storage.buffer_pool import HAND, READ_NANOSECONDS
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.layout import DiskLayout, Region
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import (
    PLANTED_SEARCHES,
    on_python_frontier,
    pool_bytes,
    python_pool_body,
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
    with ``live``'s step, where it would otherwise run its C frontier."""
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

    def frontier(cursor, context, root, root_symbols):
        return kernel.node_frontier(cursor.node_records, context, root, root_symbols, popped)

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
    """What a pool holds: counters (the time its reads took aside; the
    per-region counts included), frames in clock order, hand, reference
    bits."""
    pool = tree.pool
    return (
        list(pool.counters[:READ_NANOSECONDS]),
        list(pool.blocks),
        pool.counters[HAND],
        bytes(pool.referenced),
        list(pool.slot_of),
    )


def c_frontier(records, context, root, root_symbols=None, popped=None):
    return get_kernel("compiled").node_frontier(records, context, root, root_symbols, popped)


class TwinFrontier:
    """The C frontier over ``cursor``'s records and the ``live`` kernel's
    Python frontier over ``twin.siblings()``, advanced in lock step.

    After every ``advance`` both must have returned the same step, popped the
    same entries, kept the same counters and, on a disk, left their pools in
    the same state.  ``budget`` caps the search loop's, so that small trees pause
    too.
    """

    def __init__(self, cursor, twin, context, root, root_symbols, budget):
        self.cursor, self.twin, self.budget = cursor, twin, budget
        self.compiled_popped = []
        self.compiled = c_frontier(
            cursor.node_records, context, root, root_symbols, self.compiled_popped
        )
        self.python = get_kernel("live").frontier(twin, copy.copy(context), root, root_symbols)
        self.python.popped = []
        self.steps = []
        self.check()

    def check(self):
        assert self.compiled_popped == self.python.popped
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
    """Hits and every counter of a search but its time and kernel name."""
    counters = result.statistics.as_dict()
    for name in ("elapsed_seconds", "kernel"):
        del counters[name]
    return [(hit.sequence_index, hit.score, hit.evalue) for hit in result.hits], counters


def twin_search(cursor, twin, database, matrix, gap, query, threshold, parts, budget):
    """Each partition's search on ``cursor`` through a :class:`TwinFrontier`,
    held to the ``live`` kernel's search of the built tree, hit for hit and
    counter for counter (the pool's aside); the twins made."""
    kernel = get_kernel("compiled")
    made = []

    def frontier(searched, context, root, root_symbols):
        assert searched is cursor
        made.append(TwinFrontier(cursor, twin, context, root, root_symbols, budget))
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
        found, counters = outcome(execution.result())
        expected_found, expected_counters = outcome(expected.result())
        for name in ("buffer_hits", "buffer_misses", "buffer_evictions"):
            del counters[name], expected_counters[name]
        assert (found, counters) == (expected_found, expected_counters)
    return made


def no_siblings(node):
    raise AssertionError("siblings() was called")


def disk_pair(path, database, budget):
    """Two cursors over one image, each with a pool of ``budget`` bytes; the
    twin's pool serves its requests by the Python body of ``BufferPool.page``."""
    disk = DiskSuffixTree(path, database, buffer_pool_bytes=budget)
    twin = DiskSuffixTree(path, database, buffer_pool_bytes=budget)
    python_pool_body(twin.pool)
    return disk, twin


def disk_twins(path, database, budget):
    """A :func:`disk_pair` kept in step: the search loop's own cursor call, a
    hit's leaves, is made on both, and the searched cursor has no
    ``siblings()``."""
    disk, twin = disk_pair(path, database, budget)
    own, other = disk.sequences_below, twin.sequences_below

    def both(node):
        found = own(node)
        assert other(node) == found
        return found

    disk.sequences_below = both
    disk.siblings = no_siblings
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


#: The trees a planted case is searched on: built, read, and on disk at the
#: block sizes where runs and arcs straddle pages, with one frame, two, or
#: the whole image.
FORMS = ["built", "read"] + [
    f"disk-{block_size}-{frames}"
    for block_size in (72, 256, 2048)
    for frames in (1, 2, "whole")
]


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
# Which path a search takes
# --------------------------------------------------------------------- #
@needs_compiled
@pytest.mark.parametrize("form", ["built", "read"])
def test_an_engine_over_record_arrays_takes_the_c_frontier(tmp_path_factory, monkeypatch, form):
    make_database, make_matrix, gap, query, min_score, _ = PLANTED_SEARCHES["protein"]
    tree = tree_of(form, make_database(), tmp_path_factory)
    monkeypatch.setattr(tree, "siblings", no_siblings)
    engine = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel="compiled")
    assert len(engine.search(query, min_score=min_score)) >= 4


@needs_compiled
def test_a_disk_engine_takes_the_c_frontier(tmp_path, monkeypatch):
    make_database, make_matrix, gap, query, min_score, _ = PLANTED_SEARCHES["protein"]
    engine = OasisEngine.build_on_disk(
        make_database(), make_matrix(), tmp_path / "tree.oasis", gap_model=FixedGapModel(gap),
        block_size=256, buffer_pool_bytes=256, kernel="compiled",
    )
    with engine:
        assert isinstance(engine.cursor, DiskSuffixTree)
        monkeypatch.setattr(engine.cursor, "siblings", no_siblings)
        result = engine.search(query, min_score=min_score)
        assert len(result) >= 4
        assert result.statistics.buffer_misses > 0
        assert engine.cursor.pool.frame_count == 1


@needs_compiled
@pytest.mark.parametrize("parts", [1, 2, 4])
@pytest.mark.parametrize("form", ["built", "read", "disk"])
def test_a_partition_root_is_expanded_in_the_c_frontier(tmp_path_factory, form, parts):
    """A partition's search, set up as a process scatter's worker sets it up
    (``execution.root_symbols``), makes no ``siblings()`` call on the
    compiled kernel, and its hits and every counter, the pool's included,
    are the ``live`` kernel's."""
    make_database, make_matrix, gap, query, min_score, _ = PLANTED_SEARCHES["protein"]
    database = make_database()
    built = GeneralizedSuffixTree.build(database)
    if form == "disk":
        path = tmp_path_factory.mktemp("image") / "tree.oasis"
        build_disk_image(built, path, block_size=256)
        # One frame: nearly every request of either search is a miss.
        searched, expected_tree = disk_pair(path, database, 256)
    else:
        searched = tree_of(form, database, tmp_path_factory)
        expected_tree = tree_of(form, database, tmp_path_factory)
    searched.siblings = no_siblings
    compiled = OasisEngine(searched, make_matrix(), FixedGapModel(gap), kernel="compiled")
    live = OasisEngine(expected_tree, make_matrix(), FixedGapModel(gap), kernel="live")
    found = 0
    try:
        for symbols in partitions(built, parts):
            results = []
            for engine in (compiled, live):
                execution = engine.execute(query, min_score=min_score)
                execution.root_symbols = symbols
                results.append(execution.result())
            assert [result.statistics.kernel for result in results] == ["compiled", "live"]
            assert outcome(results[0]) == outcome(results[1])
            assert results[0].statistics.nodes_expanded >= 1
            found += len(results[0])
        if form == "disk":
            assert pool_state(searched) == pool_state(expected_tree)
            assert searched.statistics.misses > 0
    finally:
        if form == "disk":
            searched.close()
            expected_tree.close()
    assert found >= 4


@needs_compiled
@pytest.mark.parametrize("frames", [1, 2])
@pytest.mark.parametrize("parts", [2, 4])
def test_a_partition_root_asks_for_the_arcs_it_leaves_out(tmp_path, parts, frames):
    """W occurs once, so the root's W child is one leaf whose arc spans many
    72-byte pages.  A partition that leaves it out walks no column over it
    but asks for each of its pages, as ``siblings()`` of the root does."""
    rng = random.Random(7)
    texts = ["".join(rng.choice("ACDEFGHIK") for _ in range(60)) for _ in range(6)]
    texts.append("W" + "".join(rng.choice("ACDEFGHIK") for _ in range(300)))
    database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
    path = tmp_path / "tree.oasis"
    tree = GeneralizedSuffixTree.build(database)
    build_disk_image(tree, path, block_size=72)
    (w_child,) = [node for node, arc, _ in tree.siblings(tree.root) if arc[:1] == b"\x11"]
    assert tree.is_leaf(w_child) and w_child[3] > 3 * 72
    disk, twin = disk_twins(path, database, pool_bytes(path, 72, frames))
    try:
        made = twin_search(
            disk, twin, database, pam30(), -8, texts[0][10:25], {"min_score": 30}, parts,
            FRONTIER_BUDGET,
        )
    finally:
        disk.close()
        twin.close()
    assert len(made) == parts


@pytest.mark.parametrize("form", ["built", "read", "disk"])
@pytest.mark.parametrize(
    "choice",
    [
        *available_kernels(),
        pytest.param(ReferenceKernel(prune_dominated=False), id="reference-dominated-off"),
    ],
)
def test_statistics_kernel_names_the_code_that_ran(tmp_path_factory, monkeypatch, choice, form):
    """The dense oracle runs exactly when ``statistics.kernel`` says
    ``reference``, a rule switched off included; ``compiled`` expands every
    node of a records cursor in its C frontier, and the other kernels make
    one ``siblings()`` call per expanded node."""
    make_database, make_matrix, gap, query, min_score, _ = PLANTED_SEARCHES["protein"]
    database = make_database()
    if form == "disk":
        path = tmp_path_factory.mktemp("image") / "tree.oasis"
        build_disk_image(GeneralizedSuffixTree.build(database), path, block_size=256)
        tree = DiskSuffixTree(path, database, buffer_pool_bytes=512)
    else:
        tree = tree_of(form, database, tmp_path_factory)
    dense_arcs = []

    def spied_reference(*args, **kwargs):
        dense_arcs.append(args[2])
        return expand_arc_reference(*args, **kwargs)

    monkeypatch.setattr(kernels, "expand_arc_reference", spied_reference)
    calls = []
    siblings = tree.siblings
    monkeypatch.setattr(tree, "siblings", lambda node: calls.append(node) or siblings(node))
    engine = OasisEngine(tree, make_matrix(), FixedGapModel(gap), kernel=choice)
    result = engine.search(query, min_score=min_score)
    ran = result.statistics.kernel
    assert ran == get_kernel(choice).name
    assert bool(dense_arcs) == (ran == "reference")
    assert len(calls) == (0 if ran == "compiled" else result.statistics.nodes_expanded)
    assert result.statistics.nodes_expanded > 1 and len(result) >= 4


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


def frontier_of(kind, tree, context, root, root_symbols=None):
    if kind == "compiled":
        return c_frontier(tree.node_records, context, root, root_symbols)
    return get_kernel("live").frontier(tree, context, root, root_symbols)


def root_frontier(kind, engine, query, min_score):
    execution = engine.execute(query, min_score=min_score)
    context = execution.context
    root = (-max(context.heuristic), VIABLE_AFTER, 0, engine.cursor.root,
            context.make_root_cells(), 0, 0)
    return frontier_of(kind, engine.cursor, context, root)


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
        frontier_of("compiled", cursor, context, entry(root))
    with pytest.raises(TypeError):
        frontier_of("compiled", cursor, context, iter(root))
    # A partition is bytes of first symbols, or None for the whole tree.
    for symbols in ("AC", [0, 1], bytearray(b"\x00")):
        with pytest.raises(TypeError):
            frontier_of("compiled", cursor, context, root, symbols)


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
# Hostile records
# --------------------------------------------------------------------- #
HOSTILE_QUERY = "ACGTACGT"
HOSTILE_MATRIX = nucleotide_matrix(5, -4)


def context_for(query=HOSTILE_QUERY):
    codes = DNA_ALPHABET.encode(query)
    return ExpansionContext(
        query_codes=codes,
        score_rows=HOSTILE_MATRIX.rows,
        gap_penalty=-1,
        heuristic=compute_heuristic_vector(codes, HOSTILE_MATRIX),
        min_score=5,
    )


@pytest.fixture
def small_tree():
    database = SequenceDatabase.from_texts(
        ["ACGTACGTTA", "GGACGTAC", "TTACG"], alphabet=DNA_ALPHABET
    )
    return GeneralizedSuffixTree.build(database)


def entry_at(node, context):
    """A frontier entry for ``node`` seeded with the root column."""
    return (-max(context.heuristic), VIABLE_AFTER, 0, node, context.make_root_cells(), 0, node[4])


def with_leaves(tree):
    """An internal node with a run of leaves."""
    pending = [tree.root]
    while pending:
        node = pending.pop()
        children = tree.children(node)
        if any(tree.is_leaf(child) for child in children):
            return node
        pending.extend(child for child in children if not tree.is_leaf(child))
    raise AssertionError("no internal node has a leaf")


def internal_nodes(tree):
    pending, found = [tree.root], []
    while pending:
        node = pending.pop()
        found.append(node)
        pending.extend(child for child in tree.children(node) if not tree.is_leaf(child))
    return found


def hostile(tree, name):
    """``tree.node_records`` broken one way, and the node to expand."""
    internal, leaves, codes, ends = tree.node_records
    internal, leaves = array("I", internal), array("I", leaves)
    root = tree.root
    if name == "child-pointer":
        internal[2] = len(internal) // 4
        return (internal, leaves, codes, ends), root
    if name == "child-run":
        # The last internal record's run never ends: it runs off the array.
        last = len(internal) // 4 - 1
        internal[4 * last] &= 0x7FFFFFFF
        parent = next(
            node
            for node in internal_nodes(tree)
            if ("I", last) in {child[:2] for child in tree.children(node)}
        )
        return (internal, leaves, codes, ends), parent
    node = with_leaves(tree)
    if name == "leaf-index":
        internal[4 * node[1] + 3] = len(leaves)
    elif name == "arc-end":
        child = next(c for c in tree.children(tree.root) if c[0] == "I")
        internal[4 * child[1] + 1] = len(codes)
        node = root
    elif name == "short-codes":
        codes = codes[:1]
    elif name == "suffix-past-the-ends":
        ends = array("I", [0])
    return (internal, leaves, codes, ends), node


@needs_compiled
@pytest.mark.parametrize(
    "name",
    ["child-pointer", "child-run", "leaf-index", "arc-end", "short-codes", "suffix-past-the-ends"],
)
def test_records_that_point_past_their_arrays_are_an_index_error(small_tree, name):
    records, node = hostile(small_tree, name)
    context = context_for()
    frontier = c_frontier(records, context, entry_at(node, context))
    with pytest.raises(IndexError):
        frontier.advance(None, 1)
    assert frontier_counts(frontier)[:3] == (0, 0, 0)


@needs_compiled
def test_a_node_index_past_the_records_is_an_index_error(small_tree):
    context = context_for()
    node = ("I", small_tree.internal_node_count, 0, 0, 0)
    frontier = c_frontier(small_tree.node_records, context, entry_at(node, context))
    with pytest.raises(IndexError):
        frontier.advance(None, 1)


@needs_compiled
def test_a_leaf_has_no_children(small_tree):
    context = context_for()
    leaf = next(child for child in small_tree.children(with_leaves(small_tree)) if child[0] == "L")
    frontier = c_frontier(small_tree.node_records, context, entry_at(leaf, context))
    assert frontier.advance(None, 2) == EMPTY
    assert frontier_counts(frontier)[:4] == (0, 0, 0, 1)


@needs_compiled
@pytest.mark.parametrize(
    "records",
    [
        pytest.param(lambda r: list(r), id="list"),
        pytest.param(lambda r: r[:3], id="three"),
        pytest.param(lambda r: (array("q", r[0]),) + r[1:], id="int64-records"),
        pytest.param(lambda r: (r[0], r[1], list(r[2]), r[3]), id="codes-list"),
        pytest.param(lambda r: r[:3] + (list(r[3]),), id="ends-list"),
    ],
)
def test_records_of_the_wrong_shape_are_a_type_error(small_tree, records):
    context = context_for()
    with pytest.raises(TypeError):
        c_frontier(records(small_tree.node_records), context, entry_at(small_tree.root, context))


# --------------------------------------------------------------------- #
# A closed cursor, hostile images
# --------------------------------------------------------------------- #
#: The three-sequence protein database of the CI step that builds the kernel.
PROTEIN_TEXTS = ["MKVLAADTGLAVWKDDGNGYISAAE", "GGWKDDGNGYISAAEKL", "MKVLAQDTGLA"]


def protein_context(query="WKDDGNGYISAAE"):
    matrix = pam30()
    codes = PROTEIN_ALPHABET.encode(query)
    return ExpansionContext(
        query_codes=codes,
        score_rows=matrix.rows,
        gap_penalty=-8,
        heuristic=compute_heuristic_vector(codes, matrix),
        min_score=20,
    )


@pytest.fixture
def protein_image(tmp_path):
    """The database, its image at 256-byte blocks, and the built tree."""
    database = SequenceDatabase.from_texts(PROTEIN_TEXTS, alphabet=PROTEIN_ALPHABET)
    tree = GeneralizedSuffixTree.build(database)
    path = tmp_path / "tree.oasis"
    build_disk_image(tree, path, block_size=256)
    return database, path, tree


def pool_counters(tree):
    statistics = tree.pool.statistics
    return (
        statistics.hits,
        statistics.misses,
        statistics.evictions,
        list(statistics.per_region_hits),
        list(statistics.per_region_misses),
    )


@needs_compiled
@pytest.mark.parametrize("frames", [1, "whole"])
def test_a_closed_cursor_makes_no_request(protein_image, frames):
    database, path, tree = protein_image
    disk = DiskSuffixTree(path, database, pool_bytes(path, 256, frames))
    context = protein_context()
    entry = entry_at(disk.root, context)
    records = disk.node_records
    frontier = c_frontier(records, context, entry)
    assert frontier.advance(None, 1) == PAUSED and len(frontier) > 0
    before, counted = pool_counters(disk), frontier_counts(frontier)
    disk.close()
    with pytest.raises(ValueError, match="closed"):
        c_frontier(records, context, entry)
    with pytest.raises(ValueError, match="closed"):
        frontier.advance(None, 1)
    with pytest.raises(ValueError, match="closed"):
        disk.siblings(disk.root)
    assert pool_counters(disk) == before and frontier_counts(frontier) == counted


def region_geometry(layout, region):
    """A record region's (record bytes, records per block, first block)."""
    if region is Region.INTERNAL_NODES:
        return 16, layout.internal_records_per_block, layout.internal_start_block
    return 4, layout.leaf_records_per_block, layout.leaves_start_block


def patch_word(path, layout, region, index, word, change):
    """Rewrite word ``word`` of record ``index`` of ``region`` in the image."""
    size, per_block, first = region_geometry(layout, region)
    offset = (first + index // per_block) * layout.block_size + (index % per_block) * size
    offset += 4 * word
    with open(path, "r+b") as image:
        image.seek(offset)
        (value,) = struct.unpack("<I", image.read(4))
        image.seek(offset)
        image.write(struct.pack("<I", change(value)))


def hostile_image(path, layout, tree, name):
    """Break the image at ``path`` one way; the node to expand."""
    internal = Region.INTERNAL_NODES
    if name == "child-pointer":
        # The root's first internal child, one past the internal records.
        patch_word(path, layout, internal, 0, 2, lambda _: layout.internal_count + 1)
        return tree.root
    if name == "child-at-the-count":
        patch_word(path, layout, internal, 0, 2, lambda _: layout.internal_count)
        return tree.root
    if name == "child-run":
        # The last internal record's run never ends: it runs off the region.
        last = layout.internal_count - 1
        patch_word(path, layout, internal, last, 0, lambda value: value & 0x7FFFFFFF)
        return next(
            node
            for node in internal_nodes(tree)
            if ("I", last) in {child[:2] for child in tree.children(node)}
        )
    node = with_leaves(tree)
    if name == "leaf-index":
        patch_word(path, layout, internal, node[1], 3, lambda _: layout.leaf_slots)
    elif name == "arc-end":
        child = next(c for c in tree.children(tree.root) if c[0] == "I")
        patch_word(path, layout, internal, child[1], 1, lambda _: layout.symbol_count)
        node = tree.root
    elif name == "suffix-past-the-ends":
        first_leaf = tree.internal_records[4 * node[1] + 3]
        patch_word(
            path, layout, Region.LEAF_NODES, first_leaf, 0,
            lambda value: (value & 0x80000000) | layout.symbol_count,
        )
    return node


def region_blocks(layout):
    """Each region's range of absolute blocks."""
    return {
        Region.SYMBOLS: range(
            layout.symbols_start_block, layout.symbols_start_block + layout.symbols_block_count
        ),
        Region.INTERNAL_NODES: range(
            layout.internal_start_block, layout.internal_start_block + layout.internal_block_count
        ),
        Region.LEAF_NODES: range(
            layout.leaves_start_block, layout.leaves_start_block + layout.leaves_block_count
        ),
    }


HOSTILE_IMAGES = [
    "child-pointer", "child-at-the-count", "child-run", "leaf-index", "arc-end",
    "suffix-past-the-ends",
]


@needs_compiled
@pytest.mark.parametrize("frames", [1, "whole"])
@pytest.mark.parametrize("name", HOSTILE_IMAGES)
def test_image_records_past_their_regions_are_an_index_error(protein_image, name, frames):
    database, path, tree = protein_image
    layout = DiskLayout.read_header(path)
    node = hostile_image(path, layout, tree, name)
    disk, twin = disk_pair(path, database, pool_bytes(path, 256, frames))
    blocks = region_blocks(layout)
    try:
        # The parent's page is resident, so the failing expansion starts
        # with a hit.
        parent_block = layout.internal_start_block + node[1] // layout.internal_records_per_block
        for tree in (disk, twin):
            tree.pool.page(parent_block, Region.INTERNAL_NODES)
        context = protein_context()
        frontier = c_frontier(disk.node_records, context, entry_at(node, context))
        with pytest.raises(IndexError):
            frontier.advance(None, 1)
        with pytest.raises(IndexError):
            twin.siblings(node)
        assert frontier_counts(frontier)[:3] == (0, 0, 0)
        # The same requests, every hit counted, frame for frame.
        assert pool_state(disk) == pool_state(twin)
        assert disk.statistics.hits >= 1
        statistics = disk.statistics
        if frames == "whole":
            # Nothing was evicted: each region's misses are its blocks left
            # resident, so none was read past the region.
            resident = [block for block in disk.pool.blocks if block >= 0]
            assert statistics.evictions == 0
            assert statistics.per_region_misses == [
                sum(block in blocks[region] for block in resident) for region in Region
            ]
        else:
            assert statistics.per_region_misses == twin.statistics.per_region_misses
    finally:
        disk.close()
        twin.close()


@needs_compiled
def test_a_page_source_of_the_wrong_shape_is_a_type_error(protein_image):
    database, path, _ = protein_image
    with DiskSuffixTree(path, database) as disk:
        records = disk.node_records
        context = protein_context()
        entry = entry_at(disk.root, context)
        state = records[0]
        for broken in (
            records[:2],
            (state[:6],) + records[1:],
            (state[:6] + (list(state[6]),),) + records[1:],
            (state[:2] + (tuple(state[2]),) + state[3:],) + records[1:],
        ):
            with pytest.raises(TypeError):
                c_frontier(broken, context, entry)
        assert disk.statistics.requests == 0


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

    def frontier(cursor, context, root, root_symbols):
        inner = frontier_of(kind, cursor, context, root, root_symbols)
        watches.append(AdvanceWatch(inner, 3, stop))
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
