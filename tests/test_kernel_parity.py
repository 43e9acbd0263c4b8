"""Kernel parity: the production kernel is an exact drop-in for the oracle.

The live-cell kernel's whole contract is "speed only": byte-identical hits,
identical node states and columns, and identical work counters versus the
dense reference implementation -- across randomized protein and DNA
databases (``repro.datagen``), cheap and expensive gaps, and the
mem/disk/sharded engine configurations.  Cheap gaps matter: with PAM30 and a
gap of -8 the vertical ``+gap`` chain below a survivor is rarely alive, so
the -1/-2 cases are the ones that run the chain logic on most columns.  On
top of our own oracle, a hypothesis-driven case checks the production path
against exhaustive Smith-Waterman (``repro.baselines``): hit set, scores and
order.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from repro.baselines.smith_waterman import SmithWatermanAligner
from repro.core.engine import OasisEngine
from repro.core.expand import ExpansionContext
from repro.core.kernels import (
    CompiledKernel,
    LiveCellKernel,
    ReferenceKernel,
    available_kernels,
    get_kernel,
)
from repro.core.search_node import NodeState, SearchNode, VIABLE_AFTER, node_view
from repro.datagen import GenomeGenerator, MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring.data import nucleotide_matrix, pam30, unit_matrix
from repro.scoring.gaps import MIN_GAP_PENALTY, FixedGapModel
from repro.scoring.matrix import MAX_SCORE_MAGNITUDE
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import PRODUCTION_KERNELS, dense, node_signature, scaled_matrix

SEEDS = [3, 11, 29]


def protein_dataset(seed):
    """A randomized protein database + motif workload, deterministic per seed."""
    generator = SwissProtLikeGenerator(
        seed=seed,
        family_count=4,
        members_per_family=(2, 4),
        ancestor_length=(40, 90),
        singleton_count=6,
        singleton_length=(10, 60),
    )
    database = generator.generate()
    workload = MotifWorkloadGenerator(
        generator, seed=seed + 1, query_count=6, length_range=(6, 20)
    ).generate()
    return database, [query.text for query in workload]


def dna_dataset(seed):
    """A small repeat-rich genome + mutated windows of it as queries."""
    database = GenomeGenerator(
        seed=seed,
        contig_count=3,
        contig_length=(300, 500),
        repeat_family_count=3,
        repeat_length=(30, 60),
        repeat_density=0.3,
    ).generate()
    rng = random.Random(seed)
    queries = []
    for _ in range(4):
        text = database[rng.randrange(len(database))].text
        length = rng.randint(20, 40)
        start = rng.randrange(len(text) - length)
        window = [
            rng.choice("ACGT") if rng.random() < 0.08 else base
            for base in text[start : start + length]
        ]
        queries.append("".join(window))
    return database, queries


#: (label, dataset, matrix, gap penalty, min_score): PAM30/-8 is the paper's
#: configuration; the cheap gaps keep vertical chains alive.
CONFIGURATIONS = [
    ("protein-gap8", protein_dataset, pam30, -8, 35),
    ("protein-gap2", protein_dataset, pam30, -2, 40),
    ("protein-gap1", protein_dataset, pam30, -1, 45),
    ("dna-gap4", dna_dataset, lambda: nucleotide_matrix(1, -3), -4, 14),
    ("dna-gap2", dna_dataset, lambda: nucleotide_matrix(1, -3), -2, 16),
    ("dna-unit-gap1", dna_dataset, lambda: unit_matrix(DNA_ALPHABET), -1, 14),
]
CONFIGURATION_IDS = [configuration[0] for configuration in CONFIGURATIONS]


def run_searches(tree, queries, matrix, gap, kernel, min_score):
    """Hit signatures + every work counter for one kernel over a shared tree."""
    search = OasisEngine(tree, matrix, FixedGapModel(gap), kernel=kernel)
    outcomes = []
    for query in queries:
        result = search.search(query, min_score=min_score)
        counters = result.statistics.as_dict()
        for unstable in ("elapsed_seconds", "kernel"):
            del counters[unstable]
        outcomes.append(
            (
                [(hit.sequence_index, hit.sequence_identifier, hit.score) for hit in result],
                counters,
            )
        )
    return outcomes


@pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
class TestFuzzedSearchParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("configuration", CONFIGURATIONS, ids=CONFIGURATION_IDS)
    def test_hits_and_counters_match_reference(self, seed, configuration, kernel):
        _, dataset, matrix, gap, min_score = configuration
        database, queries = dataset(seed)
        tree = GeneralizedSuffixTree.build(database)
        expected = run_searches(tree, queries, matrix(), gap, "reference", min_score)
        actual = run_searches(tree, queries, matrix(), gap, kernel, min_score)
        assert actual == expected
        assert any(hits for hits, _ in expected)
        assert all(counters["nodes_pruned"] > 0 for _, counters in expected)

    @pytest.mark.parametrize("configuration", CONFIGURATIONS[::3], ids=["protein", "dna"])
    def test_the_most_negative_accepted_gap_matches_reference(self, configuration, kernel):
        # No score the search adds at this gap leaves the compiled step's
        # +-2**62, so every kernel gives the oracle's hits and counters.
        _, dataset, matrix, _, min_score = configuration
        database, queries = dataset(SEEDS[0])
        tree = GeneralizedSuffixTree.build(database)
        expected = run_searches(tree, queries, matrix(), MIN_GAP_PENALTY, "reference", min_score)
        actual = run_searches(tree, queries, matrix(), MIN_GAP_PENALTY, kernel, min_score)
        assert actual == expected
        assert any(hits for hits, _ in expected)

    def test_the_largest_accepted_scores_match_reference(self, kernel):
        # The DNA configuration with every score and the gap scaled until its
        # largest magnitude (the mismatch, -3) meets the matrix bound: each
        # kernel gives the oracle's hits and counters, which are the unscaled
        # search's with every score times the scale.
        database, queries = dna_dataset(SEEDS[0])
        tree = GeneralizedSuffixTree.build(database)
        base, gap, min_score = nucleotide_matrix(1, -3), -2, 16
        scale = MAX_SCORE_MAGNITUDE // 3
        matrix = scaled_matrix(base, scale)
        assert -matrix.min_score > MAX_SCORE_MAGNITUDE - 3
        expected = run_searches(tree, queries, matrix, gap * scale, "reference", min_score * scale)
        actual = run_searches(tree, queries, matrix, gap * scale, kernel, min_score * scale)
        assert actual == expected
        unscaled = run_searches(tree, queries, base, gap, "reference", min_score)
        assert [
            ([(index, name, score // scale) for index, name, score in hits], counters)
            for hits, counters in actual
        ] == unscaled
        assert any(hits for hits, _ in unscaled)

    @pytest.mark.parametrize(
        "switches",
        [
            {"prune_non_positive": False},
            {"prune_dominated": False},
            {"prune_threshold": False},
            {"prune_non_positive": False, "prune_dominated": False, "prune_threshold": False},
        ],
        ids=lambda switches: "+".join(switches),
    )
    def test_every_rule_subset_on_the_reference_matches_the_kernel(self, switches, kernel):
        # A rule off changes the oracle's work, never its hits.  With the
        # non-positive rule on, the other two only cut cells that can raise
        # neither a score nor ``f`` past the path's best, so every counter
        # is the kernel's too; without it, each query expands more columns.
        database, queries = protein_dataset(7)
        tree = GeneralizedSuffixTree.build(database)
        expected = run_searches(tree, queries, pam30(), -8, kernel, 35)
        actual = run_searches(tree, queries, pam30(), -8, ReferenceKernel(**switches), 35)
        assert [hits for hits, _ in actual] == [hits for hits, _ in expected]
        if switches.get("prune_non_positive", True):
            assert actual == expected
        else:
            assert all(
                counters["columns_expanded"] > expected_counters["columns_expanded"]
                for (_, counters), (_, expected_counters) in zip(actual, expected)
            )


def entry_signature(entry, length: int):
    """Every slot of a frontier entry, the column in its dense form."""
    negated_f, flag, counter, tree_node, column, max_score, depth = entry
    return (
        negated_f,
        flag,
        counter,
        tree_node,
        None if column is None else dense(column, length).tolist(),
        max_score,
        depth,
    )


def dense_view(entry, context) -> SearchNode:
    """An entry as the node ``expand_arc_reference`` takes: dense column."""
    node = node_view(entry, context.min_score)
    if isinstance(node.column, list):
        node.column = context.dense_column(node.column)
    return node


@pytest.mark.parametrize("kernel", ["live"])
class TestNodeLevelParity:
    """BFS over the tree comparing every expansion, production vs reference.

    Stronger than hit parity: the search only ever *visits* nodes the
    frontier reaches, while this walks the expansion of every VIABLE node
    encountered breadth-first.  Each kernel expands its own entries (the
    live-cell kernel its sparse columns, the reference its dense ones);
    compared are every slot of the entries handed back for enqueueing (the
    enqueue number included), the count of dropped children, and -- through
    ``expand_arc`` on a :class:`SearchNode` view of the parent entry -- every
    field of every child, ``b`` and UNVIABLE ones included.  ``live`` only:
    the compiled kernel expands an arc and a sibling list with the same
    Python (its C frontier is held to ``live``'s in ``tests/test_frontier.py``).
    """

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "configuration", CONFIGURATIONS[::2], ids=CONFIGURATION_IDS[::2]
    )
    def test_expand_children_matches_reference(self, seed, configuration, kernel):
        _, dataset, matrix, gap, min_score = configuration
        database, queries = dataset(seed)
        cursor = GeneralizedSuffixTree.build(database)
        query = queries[0]
        length = len(query) + 1
        reference = ReferenceKernel()
        live = get_kernel(kernel)
        contexts = []
        for kernel in (reference, live):
            search = OasisEngine(cursor, matrix(), FixedGapModel(gap), kernel=kernel)
            contexts.append(search.execute(query, min_score=min_score - 5).context)
        reference_context, live_context = contexts

        def root(context):
            bound = max(context.heuristic)
            return (-bound, VIABLE_AFTER, 0, cursor.root, context.make_root_cells(), 0, 0)

        frontier = [(root(reference_context), root(live_context))]
        expanded = 0
        multi_cell_columns = 0
        while frontier and expanded < 200:
            reference_entry, live_entry = frontier.pop(0)
            siblings = [
                (child, cursor.arc_symbols(child), cursor.is_leaf(child))
                for child in cursor.children(reference_entry[3])
            ]
            reference_node = dense_view(reference_entry, reference_context)
            live_node = node_view(live_entry, live_context.min_score)
            for sibling in siblings:
                expected = reference.expand_arc(reference_node, *sibling, reference_context)
                actual = live.expand_arc(live_node, *sibling, live_context)
                assert node_signature(actual, length) == node_signature(expected, length)
            assert live_context.nodes_enqueued == reference_context.nodes_enqueued
            expected = reference.expand_children(reference_entry, siblings, reference_context)
            actual = live.expand_children(live_entry, siblings, live_context)
            assert [entry_signature(child, length) for child in actual] == [
                entry_signature(child, length) for child in expected
            ]
            assert all(
                child[4] is not None or child[5] >= live_context.min_score for child in actual
            )
            assert live_context.nodes_enqueued == reference_context.nodes_enqueued
            assert live_context.nodes_dropped == reference_context.nodes_dropped
            assert live_context.columns_expanded == reference_context.columns_expanded
            expanded += 1
            for reference_child, live_child in zip(expected, actual):
                if reference_child[1] == VIABLE_AFTER:
                    assert isinstance(live_child[4], list)
                    multi_cell_columns += len(live_child[4]) > 1
                    frontier.append((reference_child, live_child))
        assert expanded > 1  # the walk actually exercised expansions
        assert reference_context.nodes_dropped > 0
        assert reference_context.nodes_enqueued > 0
        assert multi_cell_columns > 0


class TestEngineParity:
    def test_disk_and_sharded_engines_match_memory(self, tmp_path):
        database, queries = protein_dataset(17)
        matrix = pam30()
        gap_model = FixedGapModel(-8)
        memory = OasisEngine.build(
            database, matrix=matrix, gap_model=gap_model, kernel="reference"
        )
        disk = OasisEngine.build_on_disk(
            database, matrix, tmp_path / "image.oasis", gap_model=gap_model
        )
        sharded = ShardedEngine.build_on_disk(
            database, tmp_path / "index", matrix, gap_model, shard_count=3
        )
        try:
            for query in queries[:3]:
                expected = [
                    (hit.sequence_index, hit.score, hit.evalue)
                    for hit in memory.search(query, evalue=1_000.0)
                ]
                for engine in (disk, sharded):
                    result = engine.search(query, evalue=1_000.0)
                    actual = [
                        (hit.sequence_index, hit.score, hit.evalue) for hit in result
                    ]
                    assert actual == expected
                    assert result.statistics.kernel == get_kernel().name
        finally:
            disk.close()
            sharded.close()

    @pytest.mark.parametrize("kernel", PRODUCTION_KERNELS)
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("gap", [-8, -2, -1])
    def test_engines_sharing_one_tree_agree_on_evalue_searches(self, seed, gap, kernel):
        """Two engines over one tree and one converter: only the kernel differs."""
        database, queries = protein_dataset(seed)
        reference = OasisEngine.build(
            database, pam30(), FixedGapModel(gap), kernel="reference"
        )
        live = OasisEngine(
            reference.cursor,
            reference.matrix,
            reference.gap_model,
            converter=reference.converter,
            kernel=kernel,
        )

        def outcome(result, kernel):
            assert result.statistics.kernel == kernel
            counters = result.statistics.as_dict()
            for unstable in ("elapsed_seconds", "kernel"):
                del counters[unstable]
            hits = [
                (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue)
                for hit in result
            ]
            return hits, counters

        expected = [
            outcome(reference.search(query, evalue=10.0), "reference") for query in queries
        ]
        actual = [outcome(live.search(query, evalue=10.0), kernel) for query in queries]
        assert actual == expected
        assert any(hits for hits, _ in expected)


dna_text = st.text(alphabet="ACGT", min_size=1, max_size=40)
protein_text = st.text(alphabet="ARNDCQEGHILKMFPSTWYV", min_size=1, max_size=30)


def hit_list(result):
    return [(hit.sequence_index, hit.score) for hit in result]


class TestDifferentialAgainstSmithWaterman:
    """The production path against an implementation that shares none of it.

    Up to 16 sequences: both engines break score ties by identifier
    (``hit_order_key``), so ``seq10`` sorts before ``seq2`` on both sides.
    The example budget comes from the hypothesis profile
    (``tests/conftest.py``): bounded in tier-1, ``HYPOTHESIS_PROFILE=ci`` in CI.
    """

    @given(
        texts=st.lists(protein_text, min_size=1, max_size=16),
        query=protein_text,
        gap=st.sampled_from([-1, -2, -8]),
        min_score=st.integers(min_value=1, max_value=40),
    )
    def test_protein_hits_scores_and_order(self, texts, query, gap, min_score):
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        gap_model = FixedGapModel(gap)
        engine = OasisEngine.build(database, matrix=pam30(), gap_model=gap_model)
        expected = SmithWatermanAligner(pam30(), gap_model).search(
            database, query, min_score=min_score
        )
        assert hit_list(engine.search(query, min_score=min_score)) == hit_list(expected)

    @given(
        texts=st.lists(dna_text, min_size=1, max_size=16),
        query=dna_text,
        scoring=st.sampled_from([(1, -1, -1), (1, -3, -2), (2, -3, -4), (5, -4, -1)]),
        min_score=st.integers(min_value=1, max_value=12),
    )
    def test_dna_hits_scores_and_order(self, texts, query, scoring, min_score):
        match, mismatch, gap = scoring
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        matrix = nucleotide_matrix(match, mismatch)
        gap_model = FixedGapModel(gap)
        engine = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
        expected = SmithWatermanAligner(matrix, gap_model).search(
            database, query, min_score=min_score
        )
        assert hit_list(engine.search(query, min_score=min_score)) == hit_list(expected)


class TestSharedKernelInstance:
    @pytest.mark.parametrize("kernel", available_kernels())
    def test_threads_sharing_one_kernel_match_private_kernels(self, kernel):
        # Kernels keep no per-query state: one instance serving concurrent
        # executions must give what private instances give.  More threads
        # than cores and a short switch interval force interleaving inside
        # the column loops.
        database, queries = protein_dataset(23)
        tree = GeneralizedSuffixTree.build(database)
        matrix = pam30()
        workers = 4

        def outcomes(searches):
            results = [None] * workers
            errors = []

            def work(index):
                try:
                    results[index] = [
                        (
                            [(hit.sequence_index, hit.score) for hit in result],
                            result.statistics.columns_expanded,
                            result.statistics.nodes_pruned,
                        )
                        for result in (
                            searches[index].search(query, min_score=35)
                            for query in queries[index % 2 :] + queries[: index % 2]
                        )
                    ]
                except Exception as error:  # surfaced below, in the main thread
                    errors.append(error)

            threads = [threading.Thread(target=work, args=(index,)) for index in range(workers)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            assert not errors, errors
            assert not any(thread.is_alive() for thread in threads)
            return results

        shared_kernel = get_kernel(kernel)
        shared = outcomes(
            [OasisEngine(tree, matrix, FixedGapModel(-8), kernel=shared_kernel)] * workers
        )
        private = outcomes(
            [
                OasisEngine(tree, matrix, FixedGapModel(-8), kernel=get_kernel(kernel))
                for _ in range(workers)
            ]
        )
        assert shared == private
        assert all(columns > 0 for _, columns, _ in shared[0])


class TestKernelSelection:
    def test_one_oracle_and_one_production_kernel(self):
        # The production kernel in its two forms: the Python walk, and the
        # same walk compiled where it builds.
        assert available_kernels() == ("reference",) + PRODUCTION_KERNELS
        assert PRODUCTION_KERNELS in (("live",), ("live", "compiled"))

    def test_default_is_the_compiled_kernel_where_it_builds(self, monkeypatch):
        monkeypatch.delenv("OASIS_KERNEL", raising=False)
        assert isinstance(get_kernel(), LiveCellKernel)
        assert get_kernel().name == PRODUCTION_KERNELS[-1]

    def test_environment_selects_the_kernel(self, monkeypatch):
        monkeypatch.setenv("OASIS_KERNEL", "reference")
        assert isinstance(get_kernel(), ReferenceKernel)

    def test_explicit_name_beats_environment(self, monkeypatch):
        monkeypatch.setenv("OASIS_KERNEL", "reference")
        assert type(get_kernel("live")) is LiveCellKernel

    def test_instance_passes_through(self):
        kernel = ReferenceKernel()
        assert get_kernel(kernel) is kernel

    @pytest.mark.parametrize("name", ["simd", "scalar", "batched"])
    def test_unknown_and_retired_names_are_rejected(self, name):
        with pytest.raises(ValueError, match="unknown expansion kernel"):
            get_kernel(name)

    def test_statistics_record_the_kernel(self):
        database, queries = protein_dataset(5)
        engine = OasisEngine.build(
            database, matrix=pam30(), gap_model=FixedGapModel(-1), kernel="reference"
        )
        result = engine.search(queries[0], evalue=1_000.0)
        assert engine.kernel == "reference"
        assert result.statistics.kernel == "reference"
        assert result.statistics.as_dict()["kernel"] == "reference"

    @pytest.mark.parametrize("kernel", available_kernels())
    def test_expanding_a_discarded_column_is_rejected(self, kernel):
        database, _ = protein_dataset(5)
        cursor = GeneralizedSuffixTree.build(database)
        context = ExpansionContext(
            query_codes=bytes([0, 1, 2]),
            score_rows=pam30().rows,
            gap_penalty=-8,
            heuristic=[0, 0, 0, 0],
            min_score=10,
        )
        dead = SearchNode(
            tree_node=cursor.root,
            column=None,
            max_score=0,
            f=0,
            b=0,
            state=NodeState.UNVIABLE,
            depth=0,
        )
        child = next(iter(cursor.children(cursor.root)))
        arc = cursor.arc_symbols(child)
        with pytest.raises(ValueError, match="discarded"):
            get_kernel(kernel).expand_arc(dead, child, arc, cursor.is_leaf(child), context)
