"""Tests for the sharded index subsystem (repro.sharding).

The load-bearing property is *parity*: a ShardedEngine over any shard count
must return exactly the hits -- identifiers,
scores, E-values and order -- of a monolithic OasisEngine over the same
database.  Everything else (planner balance, catalog round-trips, fingerprint
mismatches, per-shard statistics) supports that guarantee.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.oasis import QueryExecution
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import (
    CatalogError,
    CatalogMismatchError,
    ShardCatalog,
    ShardedEngine,
    ShardedIndexBuilder,
    ShardPlanner,
)
from repro.testing import random_protein

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


class TestShardPlanner:
    def test_contiguous_cover(self, shard_database):
        plan = ShardPlanner(4, by="residues").plan(shard_database)
        assert plan.shard_count == 4
        position = 0
        for spec in plan.specs:
            assert spec.start_sequence == position
            assert spec.sequence_count >= 1
            position = spec.stop_sequence
        assert position == len(shard_database)
        assert sum(spec.residues for spec in plan.specs) == shard_database.total_symbols

    def test_by_sequences_balances_counts(self, shard_database):
        plan = ShardPlanner(4, by="sequences").plan(shard_database)
        counts = [spec.sequence_count for spec in plan.specs]
        assert max(counts) - min(counts) <= 1

    def test_by_residues_balances_weight(self, shard_database):
        plan = ShardPlanner(3, by="residues").plan(shard_database)
        weights = [spec.residues for spec in plan.specs]
        # Contiguous splitting cannot be perfect, but no shard should hog the
        # database: each stays within 2x of the fair share.
        fair = shard_database.total_symbols / 3
        assert all(weight < 2 * fair for weight in weights)

    def test_single_shard_is_identity(self, shard_database):
        plan = ShardPlanner(1).plan(shard_database)
        assert plan.specs[0].sequence_count == len(shard_database)

    def test_sliced_databases_share_records(self, shard_database):
        plan = ShardPlanner(2).plan(shard_database)
        subs = [plan.slice_database(shard_database, spec) for spec in plan.specs]
        assert subs[0][0] is shard_database[0]
        assert subs[1][0] is shard_database[plan.specs[1].start_sequence]

    def test_rejects_bad_shard_counts(self, shard_database):
        with pytest.raises(ValueError):
            ShardPlanner(0)
        with pytest.raises(ValueError):
            ShardPlanner(len(shard_database) + 1).plan(shard_database)
        with pytest.raises(ValueError):
            ShardPlanner(2, by="vibes")


class TestShardedSearch:
    """Merge, offsets and budgets of a sharded engine over the module's indexes."""

    def test_min_score_parity(self, index_directories, monolithic):
        with ShardedEngine.open(index_directories[4]) as sharded:
            expected = monolithic.search(QUERIES[0], min_score=20)
            got = sharded.search(QUERIES[0], min_score=20)
            assert hit_signature(got.hits) == hit_signature(expected.hits)

    def test_threshold_uses_global_database_size(self, index_directories, monolithic):
        with ShardedEngine.open(index_directories[4]) as sharded:
            for shard in sharded.shards:
                assert (
                    shard.min_score_for(QUERIES[0], EVALUE)
                    == monolithic.min_score_for(QUERIES[0], EVALUE)
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
            shards = report.statistics.shards
            assert sorted(shards) == [0, 1, 2, 3]
            assert all(aggregate.queries == len(QUERIES) for aggregate in shards.values())
            assert sum(a.hits for a in shards.values()) == report.statistics.total_hits
            assert (
                sum(a.columns_expanded for a in shards.values())
                == report.statistics.columns_expanded
            )
            assert "shards" in report.format_summary()

    def test_merged_result_carries_aggregated_statistics(self, index_directories):
        with ShardedEngine.open(index_directories[4]) as sharded:
            result = sharded.search(QUERIES[0], evalue=EVALUE)
            rows = result.parameters["shard_stats"]
            assert [row["shard"] for row in rows] == [0, 1, 2, 3]
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
            # Global indices were remapped exactly once.
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

    def test_time_budget_is_shared_across_shards(self, index_directories, monkeypatch):
        """One absolute deadline is pinned on every shard before any runs."""
        pinned = []
        set_deadline = QueryExecution.set_deadline

        def recording(shard_execution, deadline):
            pinned.append(deadline)
            set_deadline(shard_execution, deadline)

        monkeypatch.setattr(QueryExecution, "set_deadline", recording)
        with ShardedEngine.open(index_directories[4]) as sharded:
            execution = sharded.execute(QUERIES[0], evalue=EVALUE, time_budget=60.0)
            assert execution.executions == [] and pinned == []
            next(iter(execution))
            execution.close()
            assert len(execution.executions) == len(pinned) == 4
            assert set(pinned) == {execution.deadline} and execution.deadline is not None

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
        with ShardedEngine.build_on_disk(
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
        assert reloaded.shard_count == built.shard_count == 3
        assert reloaded.fingerprint == built.fingerprint
        assert [entry.path for entry in reloaded.shards] == [
            entry.path for entry in built.shards
        ]

        # Reopen purely from the directory: database, matrix and gap model
        # are all restored from the catalog + bundled FASTA.
        with ShardedEngine.open(directory) as sharded:
            assert sharded.shard_count == 3
            assert sharded.catalog is not None
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

    def test_sharded_ties_merge_identically(self, tmp_path, pam30_matrix, gap8):
        database = SequenceDatabase(alphabet=PROTEIN_ALPHABET, name="ties")
        body = "WKDDGNGYISAAEMKVLAADT"
        # Spread tied sequences across shards: contiguous split puts zulu and
        # alpha in different shards, so the merge must interleave them.
        for identifier in ["zulu", "quebec", "alpha", "bravo"]:
            database.add_sequence(identifier, body)
        monolithic = OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        with ShardedEngine.build_on_disk(
            database, tmp_path / "ties", pam30_matrix, gap8, shard_count=2, by="sequences"
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
