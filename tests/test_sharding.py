"""Tests for the sharded index subsystem (repro.sharding).

The load-bearing property is *parity*: a ShardedEngine over any partition
count, on either scatter, must return exactly the hits -- identifiers,
scores, E-values and order -- of a monolithic OasisEngine over the same
database.  Everything else (root partitions, the per-sequence merge, catalog
round-trips and refusals, per-shard statistics) supports that guarantee.
"""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.oasis import QueryExecution
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.scoring.data import nucleotide_matrix, pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET
from repro.sharding import (
    CatalogError,
    CatalogFormatError,
    CatalogMismatchError,
    ShardCatalog,
    ShardedEngine,
    ShardedIndexBuilder,
    root_partitions,
)
from support import index_engine, random_dna, random_protein

QUERIES = ["WKDDGNGYISAAE", "MKVLAADT", "DKDGDGCITTKEL"]
EVALUE = 1_000.0


def hit_signature(hits):
    """Everything parity promises: global index, identifier, score, E-value,
    and (through list order) the canonical hit order."""
    return [
        (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue)
        for hit in hits
    ]


@pytest.fixture(scope="module")
def shard_database() -> SequenceDatabase:
    """A database big enough that 4 shards stay non-trivial."""
    rng = random.Random(11)
    core = "WKDDGNGYISAAE"
    texts = []
    for index in range(14):
        mutated = list(core)
        if index % 3 == 1:
            mutated[rng.randrange(len(mutated))] = "A"
        texts.append(
            random_protein(rng, rng.randint(8, 40))
            + "".join(mutated)
            + random_protein(rng, rng.randint(8, 40))
        )
    for _ in range(10):
        texts.append(random_protein(rng, rng.randint(12, 70)))
    return SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET, name="shardable")


@pytest.fixture(scope="module")
def monolithic(shard_database, pam30_matrix, gap8) -> OasisEngine:
    return OasisEngine.build(shard_database, matrix=pam30_matrix, gap_model=gap8)


@pytest.fixture(scope="module")
def index_directories(tmp_path_factory, shard_database, pam30_matrix, gap8):
    """One persistent index per shard count, built once for the module."""
    root = tmp_path_factory.mktemp("shard-indexes")
    directories = {}
    for shard_count in (1, 2, 4):
        directory = root / f"index-{shard_count}"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=shard_count).build(
            shard_database, directory
        )
        directories[shard_count] = str(directory)
    return directories


class TestShardedSearch:
    """Results, rows and budgets of a sharded engine over the module's indexes."""

    def test_min_score_parity(self, index_directories, monolithic):
        with ShardedEngine.open(index_directories[4]) as sharded:
            expected = monolithic.search(QUERIES[0], min_score=20)
            got = sharded.search(QUERIES[0], min_score=20)
            assert hit_signature(got.hits) == hit_signature(expected.hits)

    def test_threshold_uses_global_database_size(self, index_directories, monolithic):
        with ShardedEngine.open(index_directories[4]) as sharded:
            assert sharded.min_score_for(QUERIES[0], EVALUE) == monolithic.min_score_for(
                QUERIES[0], EVALUE
            )

    def test_online_stream_matches_batch(self, index_directories):
        with ShardedEngine.open(index_directories[4]) as sharded:
            streamed = list(sharded.search_online(QUERIES[0], evalue=EVALUE))
            batch = sharded.search(QUERIES[0], evalue=EVALUE)
            assert hit_signature(streamed) == hit_signature(batch.hits)
            scores = [hit.score for hit in streamed]
            assert scores == sorted(scores, reverse=True)

    def test_online_stream_can_be_abandoned(self, index_directories):
        with ShardedEngine.open(index_directories[4]) as sharded:
            execution = sharded.execute(QUERIES[0], evalue=EVALUE)
            first = next(iter(execution))
            execution.close()
            assert first.score >= 1
            # Statistics are finalised even for the abandoned shards.
            assert execution.statistics.columns_expanded > 0

    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_max_results_returns_global_top_k(self, index_directories, monolithic, shard_count):
        with ShardedEngine.open(index_directories[shard_count]) as sharded:
            full = monolithic.search(QUERIES[0], evalue=EVALUE)
            top3 = sharded.search(QUERIES[0], evalue=EVALUE, max_results=3)
            assert hit_signature(top3.hits) == hit_signature(full.hits)[:3]

    def test_search_many_matches_serial(self, index_directories, monolithic):
        with ShardedEngine.open(index_directories[2]) as sharded:
            report = sharded.search_many(QUERIES, workers=2, evalue=EVALUE)
            for query, result in report:
                expected = monolithic.search(query, evalue=EVALUE)
                assert hit_signature(result.hits) == hit_signature(expected.hits)

    def test_search_many_reports_per_shard_statistics(self, index_directories):
        with ShardedEngine.open(index_directories[4]) as sharded:
            report = sharded.search_many(QUERIES, workers=2, evalue=EVALUE)
            # The serial scatter is one search of the whole tree: one row.
            shards = report.statistics.shards
            assert sorted(shards) == [0]
            assert all(aggregate.queries == len(QUERIES) for aggregate in shards.values())
            assert sum(a.hits for a in shards.values()) == report.statistics.total_hits
            assert (
                sum(a.columns_expanded for a in shards.values())
                == report.statistics.search.columns_expanded
            )
            assert "shards" in report.format_summary()

    def test_merged_result_carries_aggregated_statistics(self, index_directories):
        with ShardedEngine.open(index_directories[4]) as sharded:
            result = sharded.search(QUERIES[0], evalue=EVALUE)
            rows = result.parameters["shard_stats"]
            assert [row["shard"] for row in rows] == [0]
            assert result.columns_expanded == sum(
                row["columns_expanded"] for row in rows
            )
            assert result.statistics.columns_expanded == result.columns_expanded
            assert len(result) == sum(row["hits"] for row in rows)

    def test_result_is_idempotent(self, index_directories, shard_database):
        with ShardedEngine.open(index_directories[2]) as sharded:
            execution = sharded.execute(QUERIES[0], evalue=EVALUE)
            first = execution.result()
            again = execution.result()
            assert again is first
            assert all(
                hit.sequence_index < len(shard_database) for hit in first.hits
            )
            identifiers = [
                shard_database[hit.sequence_index].identifier for hit in first.hits
            ]
            assert identifiers == [hit.sequence_identifier for hit in first.hits]

    def test_shard_stats_hits_reflect_merged_truncation(self, index_directories):
        with ShardedEngine.open(index_directories[4]) as sharded:
            result = sharded.search(QUERIES[0], evalue=EVALUE, max_results=3)
            rows = result.parameters["shard_stats"]
            assert sum(row["hits"] for row in rows) == len(result) == 3

    def test_time_budget_is_pinned_before_the_search_runs(self, index_directories, monkeypatch):
        """One absolute deadline is fixed as the search starts and holds for
        every stop check of the run, on the calling thread."""
        checked = []
        should_stop = QueryExecution._should_stop

        def recording(execution):
            checked.append((threading.current_thread(), execution, execution._deadline))
            return should_stop(execution)

        monkeypatch.setattr(QueryExecution, "_should_stop", recording)
        with ShardedEngine.open(index_directories[4]) as sharded:
            execution = sharded.execute(QUERIES[0], evalue=EVALUE, time_budget=60.0)
            assert execution._deadline is None
            before = time.perf_counter()
            next(iter(execution))
            after = time.perf_counter()
            execution.close()
        pinned = (threading.current_thread(), execution, execution._deadline)
        assert checked and set(checked) == {pinned}
        assert before + 60.0 <= execution._deadline <= after + 60.0

    def test_expired_budget_flags_timed_out(self, index_directories):
        with ShardedEngine.open(index_directories[2]) as sharded:
            result = sharded.execute(
                QUERIES[0], evalue=EVALUE, time_budget=1e-9
            ).result()
            assert result.parameters.get("timed_out") is True

    def test_result_after_close_raises_instead_of_leaking_a_pool(self, index_directories):
        sharded = ShardedEngine.open(index_directories[2])
        execution = sharded.execute(QUERIES[0], evalue=EVALUE)
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            execution.result()


class TestShardedParityOnDisk:
    @pytest.mark.parametrize("shard_count", [1, 2, 4])
    def test_disk_shards_identical_to_monolithic(
        self, tmp_path, shard_database, monolithic, pam30_matrix, gap8, shard_count
    ):
        directory = tmp_path / f"index-{shard_count}"
        with index_engine(
            shard_database,
            directory,
            pam30_matrix,
            gap8,
            shard_count=shard_count,
        ) as sharded:
            for query in QUERIES:
                expected = monolithic.search(query, evalue=EVALUE)
                got = sharded.search(query, evalue=EVALUE)
                assert hit_signature(got.hits) == hit_signature(expected.hits)

    def test_catalog_round_trip(self, tmp_path, shard_database, monolithic, pam30_matrix, gap8):
        directory = tmp_path / "index"
        built = ShardedIndexBuilder(
            pam30_matrix, gap8, shard_count=3
        ).build(shard_database, directory)

        reloaded = ShardCatalog.load(directory)
        assert reloaded.partitions == built.partitions == 3
        assert reloaded.fingerprint == built.fingerprint
        assert [entry.path for entry in reloaded.shards] == [
            entry.path for entry in built.shards
        ]

        # Reopen purely from the directory: database, matrix and gap model
        # are all restored from the catalog + bundled FASTA.
        with ShardedEngine.open(directory) as sharded:
            assert sharded.catalog.partitions == 3 and len(sharded.partitions) == 3
            for query in QUERIES:
                expected = monolithic.search(query, evalue=EVALUE)
                got = sharded.search(query, evalue=EVALUE)
                assert hit_signature(got.hits) == hit_signature(expected.hits)

    def test_fingerprint_mismatch_raises(self, tmp_path, shard_database, pam30_matrix, gap8):
        from repro.scoring.data import load_matrix
        from repro.scoring.gaps import FixedGapModel

        directory = tmp_path / "index"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            shard_database, directory
        )
        with pytest.raises(CatalogMismatchError, match="gap_penalty"):
            ShardedEngine.open(directory, gap_model=FixedGapModel(-4))
        with pytest.raises(CatalogMismatchError, match="matrix"):
            ShardedEngine.open(directory, matrix=load_matrix("BLOSUM62"))

    def test_database_mismatch_raises(self, tmp_path, shard_database, pam30_matrix, gap8):
        directory = tmp_path / "index"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            shard_database, directory
        )
        other = SequenceDatabase.from_texts(
            ["MKVLAADTGLAV"], alphabet=PROTEIN_ALPHABET, name="other"
        )
        with pytest.raises(CatalogMismatchError, match="does not match"):
            ShardedEngine.open(directory, database=other)

    def test_reordered_database_rejected_by_digest(
        self, tmp_path, shard_database, pam30_matrix, gap8
    ):
        """Same counts, same residues -- but reordered: a digest-only catch."""
        directory = tmp_path / "index"
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(
            shard_database, directory
        )
        reordered = SequenceDatabase(
            records=list(reversed(shard_database.records)),
            alphabet=shard_database.alphabet,
            name=shard_database.name,
        )
        with pytest.raises(CatalogMismatchError, match="content does not match"):
            ShardedEngine.open(directory, database=reordered)

    def test_missing_catalog_raises(self, tmp_path):
        with pytest.raises(CatalogError, match="catalog.json"):
            ShardedEngine.open(tmp_path / "nowhere")

    def test_corrupt_catalog_raises(self, tmp_path):
        directory = tmp_path / "index"
        directory.mkdir()
        (directory / "catalog.json").write_text("{not json")
        with pytest.raises(CatalogError, match="JSON"):
            ShardCatalog.load(directory)


class TestEffectiveDatabaseSize:
    """The SelectivityConverter override that makes global pruning possible."""

    def test_default_is_database_size(self, shard_database, pam30_matrix):
        converter = SelectivityConverter(pam30_matrix, shard_database)
        assert converter.database_size == shard_database.total_symbols

    def test_override_changes_conversion(self, shard_database, pam30_matrix):
        local = SelectivityConverter(pam30_matrix, shard_database)
        widened = SelectivityConverter(
            pam30_matrix,
            shard_database,
            effective_database_size=shard_database.total_symbols * 100,
        )
        assert widened.database_size == shard_database.total_symbols * 100
        # A bigger search space inflates E-values (Equation 2) and therefore
        # demands a higher score for the same E-value cutoff (Equation 3).
        assert widened.evalue_for_score(40, 10) > local.evalue_for_score(40, 10)
        assert widened.min_score_for_evalue(1.0, 10) >= local.min_score_for_evalue(1.0, 10)

    def test_filtered_sub_database_reports_global_evalues(
        self, shard_database, pam30_matrix, gap8
    ):
        """A manually filtered sub-database can score against the full one."""
        sub = SequenceDatabase(
            records=shard_database.records[:5],
            alphabet=shard_database.alphabet,
            name="filtered",
        )
        global_converter = SelectivityConverter(
            pam30_matrix, shard_database, effective_database_size=shard_database.total_symbols
        )
        engine = OasisEngine.build(sub, matrix=pam30_matrix, gap_model=gap8)
        engine.converter = global_converter
        monolithic = OasisEngine.build(
            shard_database, matrix=pam30_matrix, gap_model=gap8
        )
        full = monolithic.search(QUERIES[0], evalue=EVALUE)
        filtered = engine.search(QUERIES[0], evalue=EVALUE)
        expected = {
            hit.sequence_identifier: hit.evalue
            for hit in full.hits
            if hit.sequence_identifier in {r.identifier for r in sub.records}
        }
        got = {hit.sequence_identifier: hit.evalue for hit in filtered.hits}
        assert got == expected

    def test_rejects_non_positive_override(self, shard_database, pam30_matrix):
        with pytest.raises(ValueError):
            SelectivityConverter(pam30_matrix, shard_database, effective_database_size=0)


class TestDeterministicTieOrdering:
    """Equal-score hits must order by (identifier, start) everywhere."""

    def test_engineered_ties_sort_by_identifier(self, pam30_matrix, gap8):
        # Identical sequences guarantee identical best scores; identifiers are
        # chosen so lexical order disagrees with insertion order.
        database = SequenceDatabase(alphabet=PROTEIN_ALPHABET, name="ties")
        body = "WKDDGNGYISAAEMKVLAADT"
        for identifier in ["zulu", "alpha", "mike", "bravo"]:
            database.add_sequence(identifier, body)
        engine = OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        result = engine.search("WKDDGNGYISAAE", min_score=20)
        assert [hit.sequence_identifier for hit in result] == [
            "alpha",
            "bravo",
            "mike",
            "zulu",
        ]
        assert len({hit.score for hit in result}) == 1

    def test_stream_order_equals_batch_order_with_ties(self, pam30_matrix, gap8):
        database = SequenceDatabase(alphabet=PROTEIN_ALPHABET, name="ties")
        body = "WKDDGNGYISAAEMKVLAADT"
        for identifier in ["zulu", "alpha", "mike"]:
            database.add_sequence(identifier, body)
        engine = OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        streamed = list(engine.search_online("WKDDGNGYISAAE", min_score=20))
        batch = engine.search("WKDDGNGYISAAE", min_score=20)
        assert hit_signature(streamed) == hit_signature(batch.hits)

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    def test_sharded_ties_merge_identically(self, tmp_path, pam30_matrix, gap8, backend):
        database = SequenceDatabase(alphabet=PROTEIN_ALPHABET, name="ties")
        body = "WKDDGNGYISAAEMKVLAADT"
        # Every tied sequence scores in every partition: the merge must keep
        # each once and order them by identifier.
        for identifier in ["zulu", "quebec", "alpha", "bravo"]:
            database.add_sequence(identifier, body)
        monolithic = OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        with index_engine(
            database, tmp_path / "ties", pam30_matrix, gap8, shard_count=2, backend=backend
        ) as sharded:
            expected = monolithic.search("WKDDGNGYISAAE", min_score=20)
            got = sharded.search("WKDDGNGYISAAE", min_score=20)
            assert hit_signature(got.hits) == hit_signature(expected.hits)
            assert [hit.sequence_identifier for hit in got] == [
                "alpha",
                "bravo",
                "quebec",
                "zulu",
            ]


# --------------------------------------------------------------------- #
# One tree, split by the root's children
# --------------------------------------------------------------------- #
class TestRootPartitions:
    def test_partitions_split_the_present_symbols_and_balance_their_counts(self, shard_database):
        partitions = root_partitions(shard_database, 3)
        codes = shard_database.concatenated_codes
        terminal = shard_database.alphabet.terminal_code
        owned = [code for symbols in partitions for code in symbols]
        present = {code for code in codes if code != terminal}
        assert sorted(owned) == sorted(present | {terminal})
        assert terminal in partitions[0]
        totals = [
            sum(codes.count(code) for code in symbols if code != terminal)
            for symbols in partitions
        ]
        # Greedy by decreasing count: no partition exceeds another by more
        # than the count of its smallest symbol.
        assert max(totals) - min(totals) <= max(codes.count(code) for code in present)

    def test_the_most_frequent_symbols_go_first_ties_by_code(self):
        database = SequenceDatabase.from_texts(["WWWCCCAAG"], alphabet=PROTEIN_ALPHABET)
        encode = PROTEIN_ALPHABET.encode
        w, c, a, g = (encode(symbol)[0] for symbol in "WCAG")
        terminal = PROTEIN_ALPHABET.terminal_code
        # W and C tie at 3: the lower code goes first, to partition 0; A (2)
        # then meets a tie of totals and takes the lower index, G the other.
        first, second = sorted((w, c))
        assert root_partitions(database, 2) == [
            bytes(sorted((first, a, terminal))),
            bytes(sorted((second, g))),
        ]

    def test_more_partitions_than_symbols_leaves_some_empty(self):
        database = SequenceDatabase.from_texts(["ACGTACGGT", "TTGCA"], alphabet=DNA_ALPHABET)
        partitions = root_partitions(database, 8)
        assert [len(symbols) for symbols in partitions] == [2, 1, 1, 1, 0, 0, 0, 0]

    def test_one_partition_owns_every_root_child(self, shard_database):
        (only,) = root_partitions(shard_database, 1)
        assert set(only) == set(shard_database.concatenated_codes)


PARITY_PARTITIONS = [1, 2, 3, 4, 8]
PARITY_BACKENDS = ["serial", "processes:2"]
#: What the monolithic engine and a serial scatter count identically.
TREE_COUNTERS = (
    "columns_expanded",
    "nodes_expanded",
    "nodes_enqueued",
    "nodes_accepted",
    "nodes_pruned",
)


def _planted(rng, random_text, motif, flank, count):
    """``count`` sequences holding ``motif`` between random flanks."""
    return [
        random_text(rng, rng.randint(*flank)) + motif + random_text(rng, rng.randint(*flank))
        for _ in range(count)
    ]


def _parity_case(alphabet):
    """A database where some sequences hold a query's motif and some do not,
    with its scoring, its queries and one cutoff of each kind."""
    rng = random.Random(31)
    if alphabet == "protein":
        core, other = "WKDDGNGYISAAE", "MKVLAADTGLAV"
        texts = _planted(rng, random_protein, core, (8, 30), 6)
        texts += _planted(rng, random_protein, other, (8, 30), 3)
        texts += [random_protein(rng, rng.randint(12, 50)) for _ in range(7)]
        database = SequenceDatabase.from_texts(texts, alphabet=PROTEIN_ALPHABET)
        scoring = (pam30(), FixedGapModel(-8))
        cutoffs = [{"min_score": 20}, {"evalue": 1.0}]
    else:
        core, other = "ACGTTGCAACGTAGGCTAAC", "GGATCCTTAAGGCC"
        texts = _planted(rng, random_dna, core, (20, 60), 5)
        texts += _planted(rng, random_dna, other, (20, 60), 3)
        texts += [random_dna(rng, rng.randint(40, 90)) for _ in range(6)]
        database = SequenceDatabase.from_texts(texts, alphabet=DNA_ALPHABET)
        scoring = (nucleotide_matrix(1, -3), FixedGapModel(-4))
        cutoffs = [{"min_score": 12}, {"evalue": 1.0}]
    return database, scoring, [core, other], cutoffs


@pytest.fixture(scope="module")
def process_pool():
    """The process scatter every process case of the module opens with (each
    engine owns its pool of two workers)."""
    return "processes:2"


@pytest.fixture(scope="module")
def parity_indexes(tmp_path_factory):
    """Per alphabet: the case, its monolithic engine and one index per partition count."""
    cases = {}
    for alphabet in ("protein", "dna"):
        database, scoring, queries, cutoffs = _parity_case(alphabet)
        root = tmp_path_factory.mktemp(f"parity-{alphabet}")
        directories = {}
        for partitions in PARITY_PARTITIONS:
            directories[partitions] = root / f"index-{partitions}"
            builder = ShardedIndexBuilder(*scoring, shard_count=partitions, block_size=512)
            builder.build(database, directories[partitions])
        monolithic = OasisEngine.build(database, *scoring)
        cases[alphabet] = (scoring, queries, cutoffs, monolithic, directories)
    return cases


class TestPartitionParity:
    """1/2/3/4/8 partitions x serial/processes x protein/DNA: the monolithic hits."""

    @pytest.mark.parametrize("alphabet", ["protein", "dna"])
    @pytest.mark.parametrize("backend", PARITY_BACKENDS)
    @pytest.mark.parametrize("partitions", PARITY_PARTITIONS)
    def test_streamed_and_collected_hits_equal_the_monolithic_engine(
        self, parity_indexes, process_pool, alphabet, backend, partitions
    ):
        (matrix, gap_model), queries, cutoffs, monolithic, directories = parity_indexes[alphabet]
        scatter = process_pool if backend == "processes:2" else backend
        rows = 1 if backend == "serial" else partitions
        options = [
            dict(cutoff, max_results=max_results)
            for cutoff in cutoffs
            for max_results in (None, 1, 5)
        ]
        with ShardedEngine.open(
            directories[partitions], matrix=matrix, gap_model=gap_model, backend=scatter
        ) as sharded:
            for query in queries:
                for option in options:
                    case = (query, option)
                    expected = monolithic.execute(query, **option).result()
                    assert expected.hits, case
                    streamed = list(sharded.execute(query, **option))
                    collected = sharded.execute(query, **option).result()
                    assert hit_signature(streamed) == hit_signature(expected.hits), case
                    assert hit_signature(collected.hits) == hit_signature(expected.hits), case
                    assert len(collected.parameters["shard_stats"]) == rows
                    got, reference = collected.statistics, expected.statistics
                    if backend == "serial":
                        for name in TREE_COUNTERS:
                            assert getattr(got, name) == getattr(reference, name), (case, name)
                    elif option["max_results"] is None:
                        # Each partition searches its own root children:
                        # together, the columns of the whole tree.
                        assert got.columns_expanded == reference.columns_expanded, case

    def test_a_partition_that_owns_no_root_child_is_not_searched(
        self, parity_indexes, process_pool
    ):
        (matrix, gap_model), queries, cutoffs, _, directories = parity_indexes["dna"]
        with ShardedEngine.open(
            directories[8], matrix=matrix, gap_model=gap_model, backend=process_pool
        ) as sharded:
            assert [bool(symbols) for symbols in sharded.partitions] == [True] * 4 + [False] * 4
            result = sharded.execute(queries[0], **cutoffs[0]).result()
        rows = result.parameters["shard_stats"]
        assert [row["columns_expanded"] for row in rows[4:]] == [0] * 4
        assert all(row["columns_expanded"] > 0 for row in rows[:4])


class TestPerSequenceMerge:
    """A sequence that scores in two partitions appears once, at its best score."""

    @pytest.fixture
    def two_motif_index(self, tmp_path, pam30_matrix, gap8):
        # W and C are the two most frequent symbols: 2 partitions put them apart.
        database = SequenceDatabase.from_texts(
            ["WWWWWGGGCCCCC", "WWWWWWW", "CCCCCC", "KLMNPQ"],
            alphabet=PROTEIN_ALPHABET,
            name="two-motifs",
        )
        ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2).build(database, tmp_path / "index")
        return database, tmp_path / "index"

    def test_the_best_partition_wins_and_the_sequence_is_kept_once(
        self, two_motif_index, pam30_matrix, gap8, process_pool
    ):
        database, directory = two_motif_index
        w, c = (PROTEIN_ALPHABET.encode(symbol)[0] for symbol in "WC")
        first, second = root_partitions(database, 2)
        assert w in first and c in second
        query = "WWWWWCCCCC"
        expected = OasisEngine.build(database, pam30_matrix, gap8).search(query, min_score=30)
        with ShardedEngine.open(directory, backend=process_pool) as sharded:
            merged = sharded.search(query, min_score=30)
        # What each partition finds: its search in this process, which the
        # worker's equals (test_sharding_backends.py).
        both = []
        with OasisEngine.open(directory) as tree:
            for symbols in (first, second):
                execution = tree.execute(query, min_score=30)
                execution.root_symbols = symbols
                hits = execution.result().hits
                both.append([hit.score for hit in hits if hit.sequence_index == 0])
        # The first sequence scored below its W run and below its C run.
        assert len(both[0]) == len(both[1]) == 1 and both[0] != both[1]
        assert [hit.sequence_index for hit in merged.hits].count(0) == 1
        assert hit_signature(merged.hits) == hit_signature(expected.hits)
        assert merged.hits[0].sequence_index == 0 and merged.hits[0].score == max(both)[0]
        assert sum(row["hits"] for row in merged.parameters["shard_stats"]) == len(merged)


class TestOlderIndexRefused:
    """A catalog of the sequence-range layout (format v2) is refused, typed."""

    @staticmethod
    def write_old_catalog(directory):
        """Two sequence-range images, as the older layout wrote them."""
        directory.mkdir()
        entry = {"residues": 50, "sequence_count": 2}
        payload = {
            "balanced_by": "residues",
            "database_digest": "",
            "database_name": "old",
            "fingerprint": {
                "block_size": 2048,
                "format_version": 2,
                "gap_penalty": -8,
                "matrix": "PAM30",
            },
            "sequence_count": 4,
            "shards": [
                dict(entry, index=0, path="shard-0000.oasis", start_sequence=0),
                dict(entry, index=1, path="shard-0001.oasis", start_sequence=2),
            ],
            "total_residues": 100,
        }
        (directory / "catalog.json").write_text(json.dumps(payload))

    def test_loading_it_is_a_format_error_naming_the_rebuild(self, tmp_path):
        self.write_old_catalog(tmp_path / "old")
        message = r"v2, this code reads only v3: .*`repro-oasis index build`"
        with pytest.raises(CatalogFormatError, match=message):
            ShardCatalog.load(tmp_path / "old")
        with pytest.raises(CatalogFormatError):
            ShardedEngine.open(tmp_path / "old")

    def test_a_current_catalog_must_list_exactly_one_image(
        self, tmp_path, shard_database, pam30_matrix, gap8
    ):
        directory = tmp_path / "index"
        catalog = ShardedIndexBuilder(pam30_matrix, gap8).build(shard_database, directory)
        catalog.shards.append(catalog.shards[0])
        catalog.save(directory)
        with pytest.raises(CatalogError, match="2 images, not one"):
            ShardCatalog.load(directory)

    @pytest.mark.parametrize("partitions", [0, 257])
    def test_a_partition_count_outside_the_root_is_refused(self, pam30_matrix, gap8, partitions):
        with pytest.raises(ValueError, match="between 1 and 256"):
            ShardedIndexBuilder(pam30_matrix, gap8, shard_count=partitions)
