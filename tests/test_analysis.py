"""The static-analysis framework: every rule proven to fire, and src/ clean.

Each rule gets a seeded violation in a miniature ``repro``-shaped tree (a
``repro/<package>/`` directory under tmp_path -- the analyzer anchors module
names at the last ``repro`` path component, so the fixtures land in the same
packages the real rules police) plus a matching clean fixture, so a rule
that silently stops firing fails here, not in review.

The suppression mechanism gets its own self-test: a ``# repro: allow[...]``
must neutralise exactly its own rule id, and every suppression that fires
must be *counted and reported* -- a silent opt-out is itself a bug.
"""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.analysis import analyze_paths, module_name_for
from repro.analysis.__main__ import main
from repro.analysis.registry import all_rules, rule_catalog

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def write_module(tmp_path, relative, source):
    """Write ``repro/<relative>`` under tmp_path and return its path."""
    path = tmp_path / "repro" / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def violations_for(tmp_path, relative, source):
    report = analyze_paths([write_module(tmp_path, relative, source)])
    return report


def rule_ids(report):
    return sorted({violation.rule_id for violation in report.violations})


class TestModuleNaming:
    def test_module_name_anchors_at_repro(self, tmp_path):
        path = write_module(tmp_path, "storage/pool.py", "x = 1\n")
        assert module_name_for(path) == "repro.storage.pool"

    def test_init_file_names_the_package(self, tmp_path):
        path = write_module(tmp_path, "storage/__init__.py", "x = 1\n")
        assert module_name_for(path) == "repro.storage"

    def test_file_outside_repro_has_no_name(self, tmp_path):
        path = tmp_path / "elsewhere.py"
        path.write_text("x = 1\n", encoding="utf-8")
        assert module_name_for(str(path)) == ""


class TestLayeringRule:
    def test_upward_module_scope_import_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/bad.py",
            """
            from repro.sharding.engine import ShardedEngine
            """,
        )
        assert rule_ids(report) == ["layering"]

    def test_downward_and_same_layer_imports_pass(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/good.py",
            """
            from repro.core.engine import OasisEngine
            from repro.obs.trace import Tracer
            from repro.parallel.executor import BatchSearchExecutor
            from repro.sharding.catalog import ShardCatalog
            """,
        )
        assert report.ok

    def test_function_local_upward_import_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/facade.py",
            """
            def build_sharded():
                from repro.sharding import ShardedEngine
                return ShardedEngine
            """,
        )
        assert report.ok

    def test_type_checking_upward_import_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/annotated.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.parallel.executor import BatchSearchReport
            """,
        )
        assert report.ok

    def test_package_root_import_is_flagged_below_top(self, tmp_path):
        report = violations_for(
            tmp_path,
            "storage/rooty.py",
            """
            from repro import OasisEngine
            """,
        )
        assert rule_ids(report) == ["layering"]

    def test_relative_import_resolves_against_own_package(self, tmp_path):
        # storage importing its sibling via `from . import` is in-layer.
        report = violations_for(
            tmp_path,
            "storage/neighbour.py",
            """
            from . import blocks
            """,
        )
        assert report.ok


class TestPickleSafetyRule:
    def test_non_dataclass_payload_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/remote.py",
            """
            class ShardSearchTask:
                def __init__(self, directory):
                    self.directory = directory
            """,
        )
        assert "pickle-safety" in rule_ids(report)

    def test_live_state_field_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/remote.py",
            """
            import threading
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class ShardSearchTask:
                directory: str
                lock: threading.Lock
            """,
        )
        assert "pickle-safety" in rule_ids(report)

    def test_nested_payload_class_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/remote.py",
            """
            def build():
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class HiddenTask:
                    directory: str

                return HiddenTask
            """,
        )
        assert "pickle-safety" in rule_ids(report)

    def test_plain_data_dataclass_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/remote.py",
            """
            from dataclasses import dataclass
            from typing import Optional

            @dataclass(frozen=True)
            class ShardSearchTask:
                directory: str
                shard_index: int
                deadline_epoch: Optional[float] = None
            """,
        )
        assert report.ok

    def test_real_spawn_payloads_are_clean(self):
        real = os.path.join(SRC_ROOT, "repro", "sharding", "remote.py")
        report = analyze_paths([real])
        assert not [v for v in report.violations if v.rule_id == "pickle-safety"]


class TestProcessSubmitRule:
    def test_lambda_submit_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/scatter.py",
            """
            def scatter(backend, tasks):
                return [backend.submit(lambda: task) for task in tasks]
            """,
        )
        assert rule_ids(report) == ["spawn-submit"]

    def test_closure_submit_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/scatter.py",
            """
            def scatter(backend, tasks):
                def run(task):
                    return task

                return [backend.submit(run, task) for task in tasks]
            """,
        )
        assert rule_ids(report) == ["spawn-submit"]

    def test_module_level_function_submit_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/scatter.py",
            """
            def run(task):
                return task

            def scatter(backend, tasks):
                return [backend.submit(run, task) for task in tasks]
            """,
        )
        assert report.ok

    def test_bound_method_submit_passes(self, tmp_path):
        # A serial or thread backend may run a bound method.
        report = violations_for(
            tmp_path,
            "sharding/scatter.py",
            """
            def scatter(backend, executions):
                return [backend.submit(execution.result) for execution in executions]
            """,
        )
        assert report.ok

    @pytest.mark.parametrize("module", ["parallel/fanout.py", "storage/fanout.py"])
    def test_rule_is_scoped_to_the_process_capable_layer(self, tmp_path, module):
        # Only sharding/ feeds a process pool; a thread pool may run a lambda.
        report = violations_for(
            tmp_path,
            module,
            """
            def scatter(pool, tasks):
                return [pool.submit(lambda: task) for task in tasks]
            """,
        )
        assert report.ok


class TestLockScopeRule:
    def test_bare_acquire_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:
                def grab(self):
                    self._lock.acquire()
                    try:
                        return self.value
                    finally:
                        self._lock.release()
            """,
        )
        assert rule_ids(report) == ["lock-scope"]
        assert len(report.violations) == 2

    def test_with_scoped_lock_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:
                def grab(self):
                    with self._lock:
                        return self.value
            """,
        )
        assert report.ok


class TestLockBlockingRule:
    def test_read_under_lock_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:
                def page(self, block):
                    with self._lock:
                        return self._file.read_block(block)
            """,
        )
        assert rule_ids(report) == ["lock-io"]

    def test_future_result_under_lock_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/pooled.py",
            """
            class Engine:
                def drain(self, future):
                    with self._pool_lock:
                        return future.result()
            """,
        )
        assert rule_ids(report) == ["lock-io"]

    def test_pool_shutdown_under_lock_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/engine.py",
            """
            class Engine:
                def close(self):
                    with self._pool_lock:
                        self._pool.shutdown(wait=True)
            """,
        )
        assert rule_ids(report) == ["lock-io"]

    def test_pool_shutdown_after_the_lock_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "sharding/engine.py",
            """
            class Engine:
                def close(self):
                    with self._pool_lock:
                        pool, self._pool = self._pool, None
                    pool.shutdown(wait=True)
            """,
        )
        assert report.ok

    def test_read_outside_lock_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:
                def page(self, block):
                    with self._lock:
                        cached = self._table.get(block)
                    if cached is not None:
                        return cached
                    data = self._file.read_block(block)
                    with self._lock:
                        self._table[block] = data
                    return data
            """,
        )
        assert report.ok

    @pytest.mark.parametrize(
        "call",
        ["self._file.read(4)", "time.sleep(0.1)", "future.result()", "self._done.wait()"],
    )
    def test_a_blocking_call_under_the_engine_pool_lock_is_flagged(self, tmp_path, call):
        report = violations_for(
            tmp_path,
            "sharding/engine.py",
            f"""
            class Engine:
                def scatter(self, future):
                    with self._pool_lock:
                        return {call}
            """,
        )
        assert rule_ids(report) == ["lock-io"]

    def test_rule_is_scoped_to_storage_and_sharding(self, tmp_path):
        report = violations_for(
            tmp_path,
            "workloads/adapter.py",
            """
            class Adapter:
                def page(self, block):
                    with self._lock:
                        return self._file.read_block(block)
            """,
        )
        assert report.ok


class TestDeterminismRules:
    def test_set_iteration_is_flagged_in_core(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/order.py",
            """
            def widths(nodes):
                out = []
                for node in set(nodes):
                    out.append(node)
                return out
            """,
        )
        assert rule_ids(report) == ["unordered-iter"]

    def test_sorted_set_iteration_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/order.py",
            """
            def widths(nodes):
                return [node for node in sorted(set(nodes))]
            """,
        )
        assert report.ok

    def test_set_iteration_outside_sensitive_layers_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "experiments/sweep.py",
            """
            def names(rows):
                return [row for row in set(rows)]
            """,
        )
        assert report.ok

    def test_bare_except_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "workloads/runner.py",
            """
            def run(fn):
                try:
                    return fn()
                except:
                    return None
            """,
        )
        assert rule_ids(report) == ["bare-except"]

    def test_mutable_default_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "workloads/runner.py",
            """
            def collect(item, bucket=[]):
                bucket.append(item)
                return bucket
            """,
        )
        assert rule_ids(report) == ["mutable-default"]

    def test_unguarded_tracer_call_is_flagged_in_core(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/hot.py",
            """
            def step(tracer, value):
                tracer.record(value)
            """,
        )
        assert rule_ids(report) == ["tracer-guard"]

    def test_is_not_none_guard_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/hot.py",
            """
            def step(tracer, value):
                if tracer is not None:
                    tracer.record(value)
            """,
        )
        assert report.ok

    def test_early_return_guard_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/hot.py",
            """
            def step(tracer, metrics, value):
                if tracer is None:
                    return
                tracer.record(value)
                metrics.counter("steps").inc()
            """,
        )
        assert report.ok


class TestSuppressions:
    def test_allow_comment_suppresses_and_is_counted(self, tmp_path):
        path = write_module(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:
                def page(self, block):
                    with self._io_lock:
                        return self._file.read_block(block)  # repro: allow[lock-io]
            """,
        )
        report = analyze_paths([path])
        assert report.ok
        assert len(report.suppressed) == 1
        suppressed = report.suppressed[0]
        assert suppressed.rule_id == "lock-io"
        assert suppressed.suppressed is True
        # Reported, never silent: the formatted output names the waiver.
        assert "(suppressed)" in report.format()
        assert "lock-io" in report.format()

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        path = write_module(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:
                def page(self, block):
                    with self._io_lock:
                        return self._file.read_block(block)  # repro: allow[layering]
            """,
        )
        report = analyze_paths([path])
        assert not report.ok
        assert rule_ids(report) == ["lock-io"]
        assert not report.suppressed

    def test_suppression_is_line_scoped(self, tmp_path):
        path = write_module(
            tmp_path,
            "storage/pool.py",
            """
            class Pool:  # repro: allow[lock-io]
                def page(self, block):
                    with self._io_lock:
                        return self._file.read_block(block)
            """,
        )
        report = analyze_paths([path])
        assert not report.ok


class TestCli:
    def test_exit_one_on_violations(self, tmp_path, capsys):
        write_module(tmp_path, "core/bad.py", "from repro.sharding import x\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "[layering]" in out
        assert "1 violations" in out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        write_module(tmp_path, "core/good.py", "from repro.storage import blocks\n")
        assert main([str(tmp_path)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_parse_error_fails_the_run(self, tmp_path, capsys):
        write_module(tmp_path, "core/broken.py", "def oops(:\n")
        assert main([str(tmp_path)]) == 1
        assert "parse error" in capsys.readouterr().out

    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.rule_id in out
        assert "allow[rule-id]" in out

    def test_rule_ids_are_unique_and_kebab_case(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert len(ids) == len(set(ids))
        for rule_id in ids:
            assert rule_id == rule_id.lower()
            assert " " not in rule_id
        assert rule_catalog().count(":") >= len(ids)


class TestRealTree:
    def test_src_is_clean(self, capsys):
        """The acceptance gate: the shipped tree passes its own analyzer."""
        assert main([SRC_ROOT]) == 0
        out = capsys.readouterr().out
        # The sanctioned waivers are visible, not silent.
        assert "(suppressed)" in out


class TestWallClockRule:
    def test_time_time_call_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/timing.py",
            """
            import time

            def elapsed(start):
                return time.time() - start
            """,
        )
        assert rule_ids(report) == ["monotonic-time"]
        (violation,) = report.violations
        assert "perf_counter" in violation.message

    def test_from_import_alias_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/timing.py",
            """
            from time import time as now

            def stamp():
                return now()
            """,
        )
        assert rule_ids(report) == ["monotonic-time"]

    def test_monotonic_clocks_pass(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/timing.py",
            """
            import time

            def measure(work):
                wall = time.perf_counter()
                cpu = time.process_time()
                work()
                return time.perf_counter() - wall, time.process_time() - cpu
            """,
        )
        assert report.ok

    def test_unrelated_time_attribute_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/timing.py",
            """
            import time

            def pause():
                time.sleep(0.01)

            def local_shadow():
                def time():
                    return 0
                return time()
            """,
        )
        assert report.ok

    def test_suppression_waives_the_epoch_stamp(self, tmp_path):
        path = write_module(
            tmp_path,
            "obs/stamp.py",
            """
            import time

            def epoch_stamp():
                return time.time()  # repro: allow[monotonic-time]
            """,
        )
        report = analyze_paths([path])
        assert report.ok
        assert [entry.rule_id for entry in report.suppressed] == ["monotonic-time"]

    def test_catalog_lists_the_rule(self):
        assert "monotonic-time" in rule_catalog()


class TestKernelPurityRule:
    def test_allocation_in_kernel_loop_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/kernels.py",
            """
            import numpy as np

            def expand(arcs, context):
                for symbol in arcs:
                    candidate = np.empty_like(context.column)
                    candidate[0] = symbol
            """,
        )
        assert rule_ids(report) == ["kernel-purity"]

    def test_any_numpy_call_in_kernel_loop_is_flagged(self, tmp_path):
        # Not only allocators: out= ufunc forms and ufunc methods cost a
        # live-cell step each, whichever way NumPy is imported.
        report = violations_for(
            tmp_path,
            "core/kernels.py",
            """
            import numpy
            import numpy as np

            def expand(arcs, read, write):
                while arcs:
                    np.add(read, arcs.pop(), out=write)
                    np.maximum.accumulate(write, out=write)
                    numpy.subtract(write, 1, out=write)
            """,
        )
        assert [violation.rule_id for violation in report.violations] == ["kernel-purity"] * 3

    def test_telemetry_in_kernel_loop_is_flagged(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/kernels.py",
            """
            def expand(arcs, context):
                for symbol in arcs:
                    if context.tracer is not None:
                        pass
            """,
        )
        assert rule_ids(report) == ["kernel-purity"]

    def test_live_cell_loop_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/kernels.py",
            """
            import numpy as np

            def expand(arcs, seed, context):
                column = [(row, score) for row, score in enumerate(seed.tolist())]
                profile = context.profile_rows
                for symbol in arcs:
                    scores = profile[symbol]
                    column = [(row + 1, score + scores[row]) for row, score in column]
                return np.asarray(column)
            """,
        )
        assert report.ok

    def test_allocation_outside_loop_passes(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/kernels.py",
            """
            import numpy as np

            def seed(length):
                column = np.zeros(length)
                return column
            """,
        )
        assert report.ok

    def test_rule_is_scoped_to_the_kernels_module(self, tmp_path):
        report = violations_for(
            tmp_path,
            "core/expand.py",
            """
            import numpy as np

            def reference(arcs, column):
                for symbol in arcs:
                    candidate = np.empty_like(column)
                    candidate[0] = symbol
            """,
        )
        assert report.ok

    def test_real_kernels_module_is_clean(self):
        report = analyze_paths([os.path.join(SRC_ROOT, "repro", "core", "kernels.py")])
        assert report.ok, report.violations

    def test_catalog_lists_the_rule(self):
        assert "kernel-purity" in rule_catalog()
