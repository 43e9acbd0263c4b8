"""Tests for the OasisEngine facade and the selectivity converter."""

import os
import time

import pytest

from repro.core.engine import OasisEngine
from repro.core.evalue import SelectivityConverter
from repro.core.oasis import QueryExecution
from repro.core.request import SearchRequest
from repro.obs import Tracer
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sharding import ShardedEngine, ShardedIndexBuilder, ShardedQueryExecution
from repro.storage.builder import build_disk_image
from repro.storage.disk_tree import DiskSuffixTree
from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES
from repro.suffixtree.generalized import GeneralizedSuffixTree
from support import disk_engine, index_engine


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


def hit_rows(hits):
    return [
        (hit.sequence_index, hit.sequence_identifier, hit.score, hit.evalue, hit.alignment)
        for hit in hits
    ]


#: The five engines every way of searching is held to.
ENGINES = ["memory", "disk", "index-open", "sharded-open-given", "sharded-open"]


def make_engine(kind, directory, database, matrix, gap_model):
    """An engine of ``kind`` over ``database``, its files under ``directory``."""
    if kind == "memory":
        return OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
    if kind == "disk":
        return disk_engine(
            database, matrix, directory / "index.oasis", gap_model=gap_model, block_size=512
        )
    if kind == "index-open":
        ShardedIndexBuilder(matrix, gap_model, shard_count=2, block_size=512).build(
            database, directory / "index"
        )
        # A pool below the image (11 blocks): the search reads through it.
        return OasisEngine.open(directory / "index", buffer_pool_bytes=2048)
    # Opened with the caller's database and scoring, or from the catalog alone.
    given = index_engine(database, directory / "index", matrix, gap_model, block_size=512)
    if kind == "sharded-open-given":
        return given
    given.close()
    if kind == "sharded-processes":
        return ShardedEngine.open(directory / "index", backend="processes:2")
    return ShardedEngine.open(directory / "index")


#: The searching surface, defined once on ``OasisEngine``.
SURFACE = ("execute", "search", "search_online", "search_many", "__enter__", "__exit__")


class TestOneSearchSurface:
    """Every engine answers every way of searching, with the same keywords."""

    def test_the_surface_is_defined_once(self):
        assert all(name in OasisEngine.__dict__ for name in SURFACE)
        assert not [name for name in SURFACE if name in ShardedEngine.__dict__]

    QUERY = "WKDDGNGYISAAE"
    OPTIONS = dict(min_score=20, max_results=5, compute_alignments=True)

    @pytest.fixture(params=ENGINES)
    def engine(self, request, tmp_path, small_protein_database, pam30_matrix, gap8):
        return make_engine(request.param, tmp_path, small_protein_database, pam30_matrix, gap8)

    @pytest.fixture(params=ENGINES + ["sharded-processes"])
    def any_engine(self, request, tmp_path, small_protein_database, pam30_matrix, gap8):
        """The five engines, and an index on a process scatter."""
        engine = make_engine(request.param, tmp_path, small_protein_database, pam30_matrix, gap8)
        yield engine
        engine.close()

    def test_a_closed_execution_searches_nothing(self, any_engine):
        execution = any_engine.execute(self.QUERY, **self.OPTIONS)
        execution.close()
        result = execution.result()
        assert result.hits == [] and execution.hit_count == 0
        assert result.columns_expanded == result.statistics.columns_expanded == 0

    def test_an_abort_before_the_start_gives_an_aborted_empty_result(self, any_engine):
        execution = any_engine.execute(self.QUERY, **self.OPTIONS)
        execution.abort()
        result = execution.result()
        assert result.hits == [] and result.columns_expanded == 0
        assert result.parameters["aborted"] is True and execution.aborted

    def test_hit_count_and_set_deadline_mean_the_same(self, any_engine):
        execution = any_engine.execute(self.QUERY, **self.OPTIONS)
        execution.set_deadline(time.perf_counter() + 60.0)
        result = execution.result()
        assert execution.hit_count == len(result) == 5 and not execution.timed_out
        expired = any_engine.execute(self.QUERY, **self.OPTIONS)
        expired.set_deadline(time.perf_counter() - 1.0)
        result = expired.result()
        assert result.hits == [] and expired.hit_count == 0
        assert result.parameters["timed_out"] is True and expired.timed_out

    def test_two_results_give_equal_hits(self, any_engine):
        execution = any_engine.execute(self.QUERY, **self.OPTIONS)
        first = hit_rows(execution.result())
        assert len(first) == 5 and hit_rows(execution.result()) == first

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
        assert outcomes(sharded, sharded.cursor) == expected
        assert all(hits for hits, _ in expected)
        assert all(
            (counters["buffer_misses"] > 0) == (pool == "eighth") for _, counters in expected
        )

    def test_a_budget_of_none_is_the_default(self, tmp_path, small_protein_database):
        """``buffer_pool_bytes=None`` is the 256 MB default on both openers."""
        index_engine(small_protein_database, tmp_path / "index", pam30(), block_size=512).close()
        opened = {}
        for name, options in (("default", {}), ("none", {"buffer_pool_bytes": None})):
            with ShardedEngine.open(tmp_path / "index", **options) as engine:
                result = engine.search(self.QUERIES[0], min_score=20)
                opened[name] = (engine.buffer_pool_bytes, hit_rows(result))
        assert opened["none"] == opened["default"]
        assert opened["default"][0] == DEFAULT_BUFFER_POOL_BYTES and opened["default"][1]


def test_an_index_engine_is_an_oasis_engine():
    """One engine class, one execution class: the index adds only a scatter."""
    assert issubclass(ShardedEngine, OasisEngine)
    assert issubclass(ShardedQueryExecution, QueryExecution)


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
