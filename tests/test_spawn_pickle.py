"""Spawn-boundary round trips for the designated payload classes and the outcome.

The sharded engine's pool (``repro.sharding.remote.spawn_pool``) starts
workers with the ``spawn`` context: a fresh
interpreter re-imports every task class by qualified name and unpickles its
fields.  These tests ship each payload class through a real spawn worker
(``repro.testing.proc_roundtrip``) and compare what comes back -- the
strongest possible form of "this class is spawn-safe", and the runtime
complement of the static ``pickle-safety`` rule.  What a shard search sends
*back* is a plain :class:`~repro.core.results.SearchResult`; its round trip
is held here too.

One shared spawn pool for the module: spawn startup is the expensive
part, and reusing the worker also proves the payloads coexist in one
interpreter.
"""

from __future__ import annotations

import dataclasses
import os
import pickle

import pytest

import repro

from repro.core.engine import OasisEngine
from repro.core.oasis import OasisSearchStatistics
from repro.core.request import SearchRequest
from repro.core.results import Alignment, SearchResult
from repro.obs.trace import TraceContext
from repro.scoring.karlin_altschul import KarlinAltschulParameters
from repro.scoring.data import nucleotide_matrix
from repro.sharding.remote import ShardSearchTask, spawn_pool
from repro.testing import proc_roundtrip


@pytest.fixture(scope="module")
def spawn_backend():
    with spawn_pool(1) as pool:
        yield pool


def roundtrip(backend, payload):
    return backend.submit(proc_roundtrip, payload).result()


#: What a caller writes, and what a coordinator makes of it for its shards.
UNRESOLVED = SearchRequest(
    "TACG", evalue=10.0, max_results=50, compute_alignments=True, time_budget=2.5
)
RESOLVED = dataclasses.replace(
    UNRESOLVED,
    min_score=17,
    evalue=None,
    statistics_model=KarlinAltschulParameters(lambda_=0.34, k=0.28, h=2.3),
    database_size=1_226,
)


def make_search_task(**overrides):
    base = dict(
        directory="/tmp/index",
        shard=1,
        root_symbols=b"\x00\x03",
        request=RESOLVED,
        matrix=nucleotide_matrix(1, -3),
        deadline_epoch=1_234.5,
        buffer_pool_bytes=1 << 16,
        fingerprint={"matrix": "pam30", "gap": -8},
        database_digest="abc123",
    )
    base.update(overrides)
    return ShardSearchTask(**base)


def assert_equal_field_by_field(returned, sent):
    assert type(returned) is type(sent)
    for field in dataclasses.fields(sent):
        assert getattr(returned, field.name) == getattr(sent, field.name), field.name


class TestSearchRequest:
    @pytest.mark.parametrize("request_", [UNRESOLVED, RESOLVED], ids=["unresolved", "resolved"])
    def test_spawn_roundtrip_preserves_every_field(self, spawn_backend, request_):
        qualname, returned = roundtrip(spawn_backend, request_)
        assert qualname == "repro.core.request.SearchRequest"
        assert_equal_field_by_field(returned, request_)
        assert returned == request_ and hash(returned) == hash(request_)

    def test_the_model_arrives_as_the_dataclass_it_left_as(self, spawn_backend):
        _, returned = roundtrip(spawn_backend, RESOLVED)
        assert isinstance(returned.statistics_model, KarlinAltschulParameters)
        assert returned.statistics_model.evalue(17, 4, 1_226) == (
            RESOLVED.statistics_model.evalue(17, 4, 1_226)
        )


class TestShardSearchTask:
    def test_spawn_roundtrip_preserves_every_field(self, spawn_backend):
        task = make_search_task()
        qualname, returned = roundtrip(spawn_backend, task)
        assert qualname == "repro.sharding.remote.ShardSearchTask"
        assert_equal_field_by_field(returned, task)
        assert_equal_field_by_field(returned.request, RESOLVED)
        assert returned.matrix.rows == task.matrix.rows
        assert returned.matrix.alphabet.name == "dna"

    def test_the_matrix_travels_without_its_numpy_view(self):
        matrix = nucleotide_matrix(1, -3)
        assert matrix.lookup.shape == (6, 6)
        copy = pickle.loads(pickle.dumps(matrix))
        assert "lookup" not in vars(copy) and copy == matrix

    def test_trace_context_field_survives_embedded(self, spawn_backend):
        task = make_search_task(
            trace=TraceContext(trace_id="t-1", parent_id="s-9")
        )
        _, returned = roundtrip(spawn_backend, task)
        assert returned.trace == task.trace
        assert returned.trace.parent_id == "s-9"


class TestTraceContext:
    def test_spawn_roundtrip(self, spawn_backend):
        context = TraceContext(trace_id="t-42", parent_id=None)
        qualname, returned = roundtrip(spawn_backend, context)
        assert qualname == "repro.obs.trace.TraceContext"
        assert returned == context

    def test_worker_side_tracer_continues_the_trace(self, spawn_backend):
        context = TraceContext(trace_id="t-42", parent_id="s-1")
        _, returned = roundtrip(spawn_backend, context)
        tracer = returned.tracer()
        assert tracer.trace_id == "t-42"


class TestSearchResultOutcome:
    """The worker's answer: the SearchResult its execution built, as it is."""

    def test_spawn_roundtrip_is_equal_field_by_field(
        self, spawn_backend, small_protein_database, pam30_matrix, gap8
    ):
        engine = OasisEngine.build(small_protein_database, matrix=pam30_matrix, gap_model=gap8)
        result = engine.search("WKDDGNGYISAAE", min_score=20, compute_alignments=True)
        assert len(result) >= 2

        qualname, returned = roundtrip(spawn_backend, result)
        assert qualname == "repro.core.results.SearchResult"
        for field in dataclasses.fields(SearchResult):
            assert getattr(returned, field.name) == getattr(result, field.name), field.name
        for sent, got in zip(result.hits, returned.hits):
            assert isinstance(got.alignment, Alignment)
            assert got.alignment == sent.alignment
            assert got.evalue == sent.evalue and isinstance(got.evalue, float)
            assert got.emitted_at == sent.emitted_at
        assert isinstance(returned.statistics, OasisSearchStatistics)
        assert returned.statistics.as_dict() == result.statistics.as_dict()
        assert returned.statistics.nodes_expanded > 0


class TestPayloadShape:
    """The structural half: what makes these classes spawn-safe stays true."""

    @pytest.mark.parametrize(
        "payload_class", [SearchRequest, ShardSearchTask, TraceContext]
    )
    def test_payloads_are_frozen_dataclasses(self, payload_class):
        assert dataclasses.is_dataclass(payload_class)
        assert payload_class.__dataclass_params__.frozen

    @pytest.mark.parametrize(
        "payload_class", [SearchRequest, ShardSearchTask, TraceContext]
    )
    def test_payloads_are_module_level(self, payload_class):
        # Spawn workers import by qualified name; a nested class has a
        # dotted __qualname__ and would never resolve.
        assert "." not in payload_class.__qualname__

    def test_plain_pickle_roundtrip_without_a_worker(self):
        # The cheap in-process check, for completeness: protocol-default
        # pickle must already work before any process is involved.
        for payload in (
            UNRESOLVED,
            make_search_task(),
            TraceContext(trace_id="t", parent_id=None),
        ):
            assert pickle.loads(pickle.dumps(payload)) == payload


#: The directory ``spawn_pool`` exports: the one holding the ``repro`` package.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class TestSpawnPool:
    """``sharding.remote.spawn_pool``: the one way this package starts workers."""

    def test_workers_are_spawned_never_forked(self):
        with spawn_pool(1) as pool:
            assert pool._mp_context.get_start_method() == "spawn"
            assert pool._max_workers == 1

    def test_a_worker_inherits_the_exported_package_root(self, spawn_backend):
        exported = spawn_backend.submit(os.getenv, "PYTHONPATH").result()
        assert PACKAGE_ROOT in exported.split(os.pathsep)

    @pytest.mark.parametrize(
        "before, after",
        [
            (None, [PACKAGE_ROOT]),
            ("/elsewhere", ["/elsewhere", PACKAGE_ROOT]),
            (PACKAGE_ROOT, [PACKAGE_ROOT]),
            (os.pathsep.join(["/first", PACKAGE_ROOT]), ["/first", PACKAGE_ROOT]),
        ],
        ids=["unset", "appended-after-others", "already-first", "already-later"],
    )
    def test_the_package_root_is_appended_once(self, monkeypatch, before, after):
        if before is None:
            monkeypatch.delenv("PYTHONPATH", raising=False)
        else:
            monkeypatch.setenv("PYTHONPATH", before)
        for _ in range(2):
            # No worker starts until a task is submitted: making a pool is cheap.
            spawn_pool(1).shutdown()
        assert os.environ["PYTHONPATH"].split(os.pathsep) == after
