"""SearchRequest: one checked value for a query's options, on every engine.

The request is the only place option values are checked and the only way
they travel, so three things are held here: the checks themselves; that
every engine -- in memory, on disk, sharded over every scatter backend --
gives the same answer (the same hits or the same exception) for the same
request, valid or not; and that the options stay spelled once (an AST pass
over the engine layers, the CLI's flag table and README's option list).
"""

from __future__ import annotations

import ast
import dataclasses
import os
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import OasisEngine
from repro.core.oasis import QueryExecution
from repro.core.request import SearchRequest
from repro.sharding import ShardedEngine
from support import disk_engine, index_engine, record_frontiers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")

QUERY = "WKDDGNGYISAAE"
#: Every field but the query: the names that may not be spelled side by side.
OPTION_FIELDS = {field.name for field in dataclasses.fields(SearchRequest)} - {"query"}


class TestChecks:
    def test_the_fields_are_the_execute_keywords_one_for_one(self):
        assert [field.name for field in dataclasses.fields(SearchRequest)] == [
            "query",
            "min_score",
            "evalue",
            "max_results",
            "compute_alignments",
            "time_budget",
            "statistics_model",
            "database_size",
        ]

    @pytest.mark.parametrize(
        "options",
        [
            dict(),
            dict(min_score=10, evalue=1.0),
            dict(min_score=0),
            dict(evalue=0.0),
            dict(evalue=-1.0),
            dict(evalue=float("nan")),
            dict(evalue=float("inf")),
            dict(min_score=10, max_results=0),
            dict(min_score=10, max_results=-3),
            dict(min_score=10, time_budget=0),
            dict(min_score=10, time_budget=-2.0),
        ],
        ids=repr,
    )
    def test_bad_values_are_value_errors(self, options):
        with pytest.raises(ValueError):
            SearchRequest(QUERY, **options)

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SearchRequest("", min_score=10)

    def test_frozen(self):
        request = SearchRequest(QUERY, min_score=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.min_score = 5

    def test_replace_checks_again(self):
        template = SearchRequest.template(evalue=10.0)
        assert dataclasses.replace(template, query=QUERY).query == QUERY
        with pytest.raises(ValueError):
            dataclasses.replace(template, query="")

    def test_resolved_once(self, small_protein_database, pam30_matrix, gap8):
        engine = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        request = SearchRequest(QUERY, evalue=5.0, max_results=3)
        resolved = request.resolved(engine.converter)
        assert resolved.min_score == engine.min_score_for(QUERY, 5.0) and resolved.evalue is None
        assert resolved.statistics_model is engine.converter.parameters
        assert resolved.database_size == small_protein_database.total_symbols
        assert resolved.max_results == 3
        # A resolved request is what a shard runs: it is not resolved again.
        assert resolved.resolved(engine.converter) is resolved

    def test_an_engine_over_a_cursor_resolves_an_evalue(
        self, small_protein_database, pam30_matrix, gap8
    ):
        # There is no search without a converter: an engine made around a
        # cursor resolves an E-value as the built engine does.
        built = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        engine = OasisEngine(built.cursor, pam30_matrix, gap8)

        def rows(result):
            return [(hit.sequence_index, hit.score, hit.evalue) for hit in result]

        expected = rows(built.search(QUERY, evalue=10.0))
        assert expected
        assert rows(engine.search(QUERY, evalue=10.0)) == expected

    def test_options_beside_a_ready_request_are_refused(
        self, small_protein_database, pam30_matrix, gap8
    ):
        engine = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        with pytest.raises(TypeError):
            engine.search(SearchRequest(QUERY, min_score=20), max_results=2)


# --------------------------------------------------------------------- #
# The same request means the same thing on every engine
# --------------------------------------------------------------------- #
def answer(engine, entry_point, *args, **options):
    """What one entry point says: the hit rows, or the exception's type."""
    try:
        hits = list(getattr(engine, entry_point)(*args, **options))
    except Exception as error:  # noqa: BLE001 - the type is the answer
        return type(error)
    return [
        (hit.sequence_identifier, hit.score, hit.evalue, hit.alignment) for hit in hits
    ]


@pytest.fixture
def in_process_engines(tmp_path, small_protein_database, pam30_matrix, gap8):
    database = small_protein_database
    engines = {
        "memory": OasisEngine.build(database, matrix=pam30_matrix, gap_model=gap8),
        # One frame: every page request but a repeat of the last one misses.
        "disk": disk_engine(
            database,
            pam30_matrix,
            tmp_path / "index.oasis",
            gap_model=gap8,
            block_size=512,
            buffer_pool_bytes=512,
        ),
        "shards3-serial": index_engine(
            database, tmp_path / "index3", pam30_matrix, gap8, shard_count=3, block_size=512
        ),
    }
    yield engines
    for engine in engines.values():
        engine.close()


@pytest.fixture
def all_engines(in_process_engines, tmp_path):
    engines = dict(in_process_engines)
    # The index reopened from its catalog alone, as ``search --index`` does.
    engines["shards3-disk"] = ShardedEngine.open(tmp_path / "index3")
    engines["shards3-processes"] = ShardedEngine.open(tmp_path / "index3", backend="processes:2")
    yield engines
    engines["shards3-disk"].close()
    engines["shards3-processes"].close()


@pytest.mark.parametrize("max_results", [-1, 0, 1, 3])
def test_max_results_means_the_same_on_every_path(all_engines, max_results):
    answers = {
        (name, entry_point): answer(
            engine, entry_point, QUERY, min_score=20, max_results=max_results
        )
        for name, engine in all_engines.items()
        for entry_point in ("search", "search_online")
    }
    expected = answers["memory", "search"]
    if max_results < 1:
        assert expected is ValueError
    else:
        assert [row[1] for row in expected] == sorted((row[1] for row in expected), reverse=True)
        assert len(expected) == max_results
    assert answers == dict.fromkeys(answers, expected)


QUERIES = st.sampled_from([QUERY, "wkddgngy", "GYISAAE", "MKVLAADTG", "W", "", "WKD1GNG", "W D"])
OPTION_SETS = st.fixed_dictionaries(
    {},
    optional={
        "min_score": st.one_of(st.none(), st.integers(-2, 45)),
        "evalue": st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 1e-3, 1.0, 50.0, 2e4])),
        "max_results": st.one_of(st.none(), st.integers(-2, 6)),
        "compute_alignments": st.booleans(),
        "time_budget": st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 60.0])),
    },
)


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=QUERIES, options=OPTION_SETS)
def test_any_option_set_gets_one_answer_from_every_engine(in_process_engines, query, options):
    """Valid or not: the same hit list, or the same exception type, everywhere."""
    answers = {
        (name, entry_point): answer(engine, entry_point, query, **options)
        for name, engine in in_process_engines.items()
        for entry_point in ("search", "search_online")
    }
    expected = answers["memory", "search"]
    assert answers == dict.fromkeys(answers, expected)
    if isinstance(expected, type):
        assert issubclass(expected, ValueError)


# --------------------------------------------------------------------- #
# No search runs here that a worker runs
# --------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "name, built, rows",
    [("shards3-serial", 1, 1), ("shards3-disk", 1, 1), ("shards3-processes", 0, 3)],
)
def test_a_scatter_builds_only_the_executions_it_runs(all_engines, monkeypatch, name, built, rows):
    """One execution per query on every backend; a frontier in this process
    only where the search runs here."""
    constructed = []
    construct = QueryExecution.__init__

    def counting(execution, *args, **kwargs):
        constructed.append(execution)
        construct(execution, *args, **kwargs)

    engine = all_engines[name]
    monkeypatch.setattr(QueryExecution, "__init__", counting)
    frontiers = record_frontiers(monkeypatch, engine)
    result = engine.search(QUERY, min_score=20)
    assert len(constructed) == 1 and len(frontiers) == built
    shard_stats = result.parameters["shard_stats"]
    assert len(shard_stats) == rows and sum(row["hits"] for row in shard_stats) == len(result) > 0
    columns = sum(row["columns_expanded"] for row in shard_stats)
    assert result.statistics.columns_expanded == columns > 0


# --------------------------------------------------------------------- #
# Spelled once, and kept so
# --------------------------------------------------------------------- #
def option_spellings(path):
    """(qualified function name, option fields among its parameters), per def."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                arguments = child.args
                names = {
                    argument.arg
                    for argument in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                }
                found.append((scope + (child.name,), names & OPTION_FIELDS))
                visit(child, scope + (child.name,))
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(tree, ())
    return found


def test_no_signature_under_the_engines_names_two_option_fields():
    offenders = []
    for layer in ("core", "sharding", "parallel"):
        directory = os.path.join(SRC, layer)
        for filename in sorted(os.listdir(directory)):
            if not filename.endswith(".py"):
                continue
            for scope, spelled in option_spellings(os.path.join(directory, filename)):
                if len(spelled) > 1:
                    offenders.append((f"{layer}/{filename}", ".".join(scope), sorted(spelled)))
    assert not offenders, (
        "search options travel as one SearchRequest; these signatures spell "
        f"them out again: {offenders}"
    )


def test_the_search_flags_map_onto_request_fields():
    from repro.cli import REQUEST_OPTIONS, _build_parser

    subparsers = next(
        action for action in _build_parser()._actions if isinstance(action.choices, dict)
    )
    flags = {action.dest for action in subparsers.choices["search"]._actions}
    assert set(REQUEST_OPTIONS) == {"evalue", "min_score", "max_results", "timeout"}
    assert set(REQUEST_OPTIONS) <= flags
    assert set(REQUEST_OPTIONS.values()) <= OPTION_FIELDS
    # No other flag spells a request field under its own name.
    assert flags & OPTION_FIELDS <= set(REQUEST_OPTIONS)


def test_readme_lists_the_fields_the_request_has():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    listed = re.search(r"`SearchRequest`\s+\(([^)]*)\)", readme)
    assert listed, "README's searching-surface paragraph lists the request's fields"
    names = re.findall(r"`(\w+)`", listed.group(1))
    assert names == [field.name for field in dataclasses.fields(SearchRequest)]
