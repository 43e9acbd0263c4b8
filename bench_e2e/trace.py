"""Tracing from outside the program: timing proxies around a cursor and a kernel.

No file under ``src/`` knows about this.  The engines already accept a cursor
instance and a kernel instance, so the traced pass hands them a
:class:`TimedCursor` around the real cursor and a :class:`TimedKernel` around
the production kernel.  Both add their busy time and call count to one shared
:class:`LayerClock`; the benchmark snapshots that clock around each query and
turns the differences into one root span and one child span per layer.

The kernel proxy materialises the sibling generator before it starts its own
clock: the generator calls the cursor, so that time lands under the cursor
clock and the two self-times never overlap.  The cursor calls themselves
happen in the same order as without the proxy (the production kernels never
touch the cursor), so hit lists, work counters and buffer-pool counters are
unchanged -- ``test_proxies.py`` holds that.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.expand import ExpansionContext
from repro.core.kernels import ExpansionKernel, Sibling, get_kernel
from repro.core.search_node import SearchNode
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import NodeHandle, SuffixTreeCursor


@dataclass
class LayerClock:
    """Busy seconds and call counts, by layer name."""

    busy: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, int] = field(default_factory=dict)

    def add(self, layer: str, seconds: float) -> None:
        self.busy[layer] = self.busy.get(layer, 0.0) + seconds
        self.calls[layer] = self.calls.get(layer, 0) + 1

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.busy), dict(self.calls)


class TimedCursor(SuffixTreeCursor):
    """A cursor that charges every traversal call to ``layer`` on the clock."""

    def __init__(self, inner: SuffixTreeCursor, clock: LayerClock, layer: str):
        self.inner = inner
        self.clock = clock
        self.layer = layer

    @property
    def database(self) -> SequenceDatabase:
        return self.inner.database

    @property
    def root(self) -> NodeHandle:
        return self.inner.root

    @property
    def pool(self):
        # QueryExecution reads the buffer-pool counters through ``cursor.pool``.
        return getattr(self.inner, "pool", None)

    def _timed(self, method, node):
        start = time.perf_counter()
        try:
            return method(node)
        finally:
            self.clock.add(self.layer, time.perf_counter() - start)

    def is_leaf(self, node: NodeHandle) -> bool:
        return self._timed(self.inner.is_leaf, node)

    def children(self, node: NodeHandle) -> List[NodeHandle]:
        return self._timed(self.inner.children, node)

    def arc_symbols(self, node: NodeHandle) -> np.ndarray:
        return self._timed(self.inner.arc_symbols, node)

    def sequences_below(self, node: NodeHandle) -> List[int]:
        return self._timed(self.inner.sequences_below, node)

    # Not on the search path; delegated untimed.
    def arc(self, node: NodeHandle) -> Tuple[int, int]:
        return self.inner.arc(node)

    def string_depth(self, node: NodeHandle) -> int:
        return self.inner.string_depth(node)

    def suffix_start(self, node: NodeHandle) -> int:
        return self.inner.suffix_start(node)

    def leaf_positions(self, node: NodeHandle) -> Iterator[int]:
        return self.inner.leaf_positions(node)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


class TimedKernel(ExpansionKernel):
    """The production kernel, with ``expand_children`` charged to ``core.kernels``."""

    def __init__(self, clock: LayerClock, inner: Optional[ExpansionKernel] = None):
        self.inner = inner if inner is not None else get_kernel(None)
        self.clock = clock
        self.name = self.inner.name

    def expand_arc(self, parent, tree_node, arc_symbols, is_leaf, context) -> SearchNode:
        start = time.perf_counter()
        try:
            return self.inner.expand_arc(parent, tree_node, arc_symbols, is_leaf, context)
        finally:
            self.clock.add("core.kernels", time.perf_counter() - start)

    def expand_children(
        self, parent: SearchNode, siblings: Iterable[Sibling], context: ExpansionContext
    ) -> List[SearchNode]:
        materialised = list(siblings)       # runs the cursor, under the cursor's clock
        start = time.perf_counter()
        try:
            return self.inner.expand_children(parent, materialised, context)
        finally:
            self.clock.add("core.kernels", time.perf_counter() - start)


@dataclass
class QueryTrace:
    """One traced query: the root interval and the busy time of each layer."""

    trace_id: int
    start: float
    end: float
    layers: Dict[str, Tuple[float, int]]      # layer -> (busy seconds, calls)
    scale: float = 1.0                        # calibrated / raw, set by the caller

    @property
    def wall(self) -> float:
        return self.end - self.start

    def remainder(self) -> float:
        """Root minus children: the driver's own time, reported as ``core.oasis``."""
        return self.wall - sum(busy for busy, _ in self.layers.values())

    def spans(self) -> List[Dict[str, object]]:
        """Raw seconds; ``scale`` turns them into calibrated ones."""
        layers = dict(self.layers)
        layers["core.oasis"] = (self.remainder(), 1)
        spans = [{"span": "query", "parent": None, "busy_s": self.wall, "calls": 1}]
        spans += [
            {"span": layer, "parent": "query", "busy_s": busy, "calls": calls}
            for layer, (busy, calls) in layers.items()
        ]
        shared = {"trace_id": self.trace_id, "start": self.start, "end": self.end,
                  "scale": self.scale}
        return [{**shared, **span} for span in spans]


def traced_query(clock: LayerClock, trace_id: int, operation, extra=None) -> Tuple[object, QueryTrace]:
    """Run ``operation`` and record what each layer's clock gained meanwhile.

    ``extra(value, wall)`` may return further ``{layer: (busy, calls)}`` spans
    worked out from the operation's own result (the sharded engine's per-shard
    elapsed times).
    """
    busy_before, calls_before = clock.snapshot()
    start = time.perf_counter()
    value = operation()
    end = time.perf_counter()
    busy_after, calls_after = clock.snapshot()
    layers = {
        layer: (busy - busy_before.get(layer, 0.0), calls_after[layer] - calls_before.get(layer, 0))
        for layer, busy in busy_after.items()
    }
    if extra is not None:
        layers.update(extra(value, end - start))
    return value, QueryTrace(trace_id, start, end, layers)


def write_spans(path: str, traces: List[QueryTrace]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for trace in traces:
            for span in trace.spans():
                handle.write(json.dumps(span) + "\n")
