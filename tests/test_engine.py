"""Tests for the OasisEngine facade and the selectivity converter."""

import os

import pytest

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.request import SearchRequest
from repro.obs import Tracer
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sharding import ShardedEngine, ShardedIndexBuilder
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.suffixtree.generalized import GeneralizedSuffixTree


class TestEngineConstruction:
    def test_build_in_memory(self, small_protein_database, pam30_matrix, gap8):
        engine = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        assert isinstance(engine.cursor, GeneralizedSuffixTree)
        assert engine.database is small_protein_database

    def test_disk_image_gives_same_results(
        self, tmp_path, small_protein_database, pam30_matrix, gap8
    ):
        direct = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        image = tmp_path / "index.oasis"
        build_disk_image(small_protein_database, image, block_size=512)
        with OasisEngine(
            DiskSuffixTree(image, small_protein_database), pam30_matrix, gap8
        ) as on_disk:
            query = "WKDDGNGYISAAE"
            assert (
                direct.search(query, min_score=20).scores_by_sequence()
                == on_disk.search(query, min_score=20).scores_by_sequence()
            )

    def test_build_on_disk(self, tmp_path, small_protein_database, pam30_matrix, gap8):
        image = tmp_path / "index.oasis"
        engine = OasisEngine.build_on_disk(
            small_protein_database,
            matrix=pam30_matrix,
            image_path=image,
            gap_model=gap8,
            block_size=512,
            # Below the image (11 blocks): the engine searches through the pool.
            buffer_pool_bytes=2048,
        )
        assert isinstance(engine.cursor, DiskSuffixTree)
        memory_engine = OasisEngine.build(
            small_protein_database, matrix=pam30_matrix, gap_model=gap8
        )
        query = "WKDDGNGYISAAE"
        assert (
            engine.search(query, min_score=20).scores_by_sequence()
            == memory_engine.search(query, min_score=20).scores_by_sequence()
        )
        assert engine.cursor.statistics.requests > 0
        engine.cursor.close()


def hit_rows(hits):
    return [
        (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue, hit.alignment)
        for hit in hits
    ]


class TestOneSearchSurface:
    """Every engine answers every way of searching, with the same keywords."""

    QUERY = "WKDDGNGYISAAE"
    OPTIONS = dict(min_score=20, max_results=5, compute_alignments=True)

    @pytest.fixture(
        params=["memory", "disk", "index-open", "sharded-build-on-disk", "sharded-open"]
    )
    def engine(self, request, tmp_path, small_protein_database, pam30_matrix, gap8):
        database = small_protein_database
        if request.param == "memory":
            return OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8)
        if request.param == "disk":
            return OasisEngine.build_on_disk(
                database, pam30_matrix, tmp_path / "index.oasis", gap_model=gap8, block_size=512
            )
        if request.param == "index-open":
            ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2, block_size=512).build(
                database, tmp_path / "index"
            )
            # A pool below the image (11 blocks): the search reads through it.
            return OasisEngine.open(tmp_path / "index", buffer_pool_bytes=2048)
        built = ShardedEngine.build_on_disk(
            database, tmp_path / "index", pam30_matrix, gap8, shard_count=2, block_size=512
        )
        if request.param == "sharded-build-on-disk":
            return built
        built.close()
        return ShardedEngine.open(tmp_path / "index")

    def test_every_entry_point_returns_the_same_hits(
        self, engine, small_protein_database, pam30_matrix, gap8
    ):
        reference = OasisEngine.build(
            small_protein_database, matrix=pam30_matrix, gap_model=gap8
        )
        expected = hit_rows(reference.execute(self.QUERY, **self.OPTIONS).result().hits)
        assert len(expected) == 5 and all(row[4] is not None for row in expected)

        tracer = Tracer()
        with engine:
            assert hit_rows(engine.search(self.QUERY, **self.OPTIONS)) == expected
            assert hit_rows(engine.execute(self.QUERY, **self.OPTIONS).result()) == expected
            assert hit_rows(engine.execute(self.QUERY, **self.OPTIONS)) == expected
            streamed = engine.search_online(self.QUERY, tracer=tracer, **self.OPTIONS)
            assert hit_rows(streamed) == expected
            report = engine.search_many([self.QUERY] * 2, workers=2, **self.OPTIONS)
            assert [hit_rows(result) for result in report.results()] == [expected] * 2
            # The request form: the same value, built by the caller.
            request = SearchRequest(self.QUERY, **self.OPTIONS)
            assert hit_rows(engine.execute(request).result()) == expected
            assert hit_rows(engine.search(request)) == expected
            assert hit_rows(engine.search_online(request)) == expected
            report = engine.search_many(["MKV", self.QUERY], workers=2, template=request)
            assert hit_rows(report.results()[1]) == expected
        assert [record.name for record in tracer.records()].count("query") == 1

        engine.close()  # a second close is a no-op
        cursors = [shard.cursor for shard in getattr(engine, "shards", [engine])]
        for cursor in cursors:
            if isinstance(cursor, DiskSuffixTree):
                cursor.pool.clear()  # nothing cached: the next read needs the file
                with pytest.raises(ValueError):
                    cursor.children(cursor.root)


class TestTheOneOpener:
    """``OasisEngine.open`` opens an index directory; ``ShardedEngine.open`` is
    that opener plus the scatter, and its serial search is the same search."""

    QUERIES = ("WKDDGNGYISAAE", "MKVLAADT")

    @pytest.mark.parametrize("pool", ["default", "eighth"])
    def test_the_two_openers_agree(
        self, tmp_path, small_protein_database, pam30_matrix, gap8, pool
    ):
        directory = tmp_path / "index"
        catalog = ShardedIndexBuilder(pam30_matrix, gap8, shard_count=2, block_size=512).build(
            small_protein_database, directory
        )
        options = {}
        if pool == "eighth":
            options["buffer_pool_bytes"] = os.path.getsize(catalog.image_path(directory)) // 8

        def outcomes(engine, cursor):
            assert type(cursor) is (GeneralizedSuffixTree if pool == "default" else DiskSuffixTree)
            rows = []
            with engine:
                for query in self.QUERIES:
                    result = engine.search(query, evalue=1_000.0)
                    counters = result.statistics.as_dict()
                    del counters["elapsed_seconds"]
                    rows.append((hit_rows(result), counters))
            return rows

        plain = OasisEngine.open(directory, **options)
        sharded = ShardedEngine.open(directory, backend="serial", **options)
        expected = outcomes(plain, plain.cursor)
        assert outcomes(sharded, sharded.tree_engine.cursor) == expected
        assert all(hits for hits, _ in expected)
        assert all(
            (counters["buffer_misses"] > 0) == (pool == "eighth") for _, counters in expected
        )


class TestThresholdResolution:
    @pytest.fixture
    def engine(self, small_protein_database, pam30_matrix, gap8):
        return OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)

    def test_requires_exactly_one_threshold(self, engine):
        with pytest.raises(ValueError):
            engine.search("WKDDGNGYISAAE")
        with pytest.raises(ValueError):
            engine.search("WKDDGNGYISAAE", min_score=10, evalue=1.0)

    def test_min_score_must_be_positive(self, engine):
        with pytest.raises(ValueError):
            engine.search("WKDDGNGYISAAE", min_score=0)

    def test_evalue_resolves_through_equation3(self, engine):
        query = "WKDDGNGYISAAE"
        expected = engine.converter.min_score_for_evalue(5.0, len(query))
        assert engine.min_score_for(query, 5.0) == expected
        by_evalue = engine.search(query, evalue=5.0)
        by_score = engine.search(query, min_score=expected)
        assert by_evalue.scores_by_sequence() == by_score.scores_by_sequence()

    def test_hits_are_annotated_with_evalues(self, engine):
        result = engine.search("WKDDGNGYISAAE", evalue=10.0)
        assert all(hit.evalue is not None for hit in result)
        # E-values must not exceed the requested cutoff (scores >= threshold).
        assert all(hit.evalue <= 10.0 + 1e-9 for hit in result)

    def test_statistics_exposed(self, engine):
        result = engine.search("WKDDGNGYISAAE", min_score=20)
        assert result.statistics.columns_expanded > 0

    def test_repr_mentions_index_type(self, engine):
        assert "GeneralizedSuffixTree" in repr(engine)


class TestSelectivityConverter:
    def test_lower_evalue_means_higher_threshold(self, small_protein_database, pam30_matrix):
        converter = SelectivityConverter(pam30_matrix, small_protein_database)
        strict = converter.min_score_for_evalue(0.01, 16)
        relaxed = converter.min_score_for_evalue(1000.0, 16)
        assert strict > relaxed

    def test_roundtrip_consistency(self, small_protein_database, pam30_matrix):
        converter = SelectivityConverter(pam30_matrix, small_protein_database)
        score = converter.min_score_for_evalue(1.0, 16)
        assert converter.evalue_for_score(score, 16) <= 1.0

    def test_database_size_used(self, small_protein_database, pam30_matrix):
        converter = SelectivityConverter(pam30_matrix, small_protein_database)
        assert converter.database_size == small_protein_database.total_symbols

    def test_degenerate_composition_falls_back_to_uniform(self, pam30_matrix):
        from repro.sequences.database import SequenceDatabase
        from repro.sequences.alphabet import PROTEIN_ALPHABET

        degenerate = SequenceDatabase.from_texts(["AAAAAAAAAA"], alphabet=PROTEIN_ALPHABET)
        converter = SelectivityConverter(pam30_matrix, degenerate)
        assert converter.parameters.lambda_ > 0
