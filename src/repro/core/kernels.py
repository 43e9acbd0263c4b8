"""Arc-expansion kernels: Algorithm 3 over the cells that survive pruning.

Alignment pruning (Section 3.2) leaves a frontier column almost empty: on
the benchmark's inputs the column that seeds an arc holds about two live
cells out of 15 (protein motifs) or 40-120 (DNA) rows, two arcs in three
end after a single column, two columns in five enter with one live cell
and as many leave with none.  The dense form in :mod:`repro.core.expand`
still pays a dozen NumPy calls per column for all of them.  The production
kernel here never materialises the dead ones:

:class:`LiveCellKernel` (``live``, the default where ``compiled`` cannot build)
    A column is the ascending list of ``(row, score)`` cells that survived
    pruning.  One DP step is one walk down that list: each live cell emits
    its horizontal (``+gap``, same row) and diagonal (``+S(q, t)``, next
    row) successor, the walk carries the diagonal one until the next cell
    shows whether a horizontal successor shares its row, follows the
    vertical ``+gap`` chain below each *surviving* successor for as long as
    it stays alive, and appends survivors as it meets them -- all in plain
    Python ints against per-query lists held by the
    :class:`~repro.core.expand.ExpansionContext` (:func:`_expand_live`).
    The column's strongest cell is tracked on the way: it is the strongest
    diagonal or horizontal successor, because a chain never exceeds the cell
    it starts from.

    It is exact, not approximate.  With every rule on, the reference's three
    tests ``new <= 0``, ``new + h <= max_score`` and ``new + h < min_score``
    are, per cell, ``new <= limit[i]`` with ``limit[i] = max(0, cutoff -
    h[i])`` and ``cutoff = max(max_score, min_score - 1)``.  ``h`` is
    non-increasing, so ``limit`` is non-decreasing down a column: a ``+gap``
    chain that has fallen to its limit can never rise above a later one, a
    cell derived from a pruned cell (the ``PRUNED`` sentinel plus a small
    score) sits below every limit, and neither can be a column's maximum.
    So the survivor set and its scores, ``max_score``, ``f``, ``b``, node
    states, ``columns_expanded`` and every ``nodes_*`` counter equal the
    reference's.  Any survivor has ``score + h > cutoff``, hence ``f >
    max_score`` and ``f >= min_score``: early termination is exactly "no
    cell survived".

    The reference prunes a column against the cutoff *including* that
    column's own strongest cell, which the walk only knows when it ends.  So
    the walk prunes against the limit in force when the column starts, and
    when the strongest cell raises the cutoff (it exceeds ``max_score`` and
    reaches ``min_score``: rare) tests the survivors once more against the
    new limit.  That is exact as well: a cell dropped under the lower limit
    is dropped under every higher one and starts no chain that could
    survive, so each first-pass survivor already holds its dense value
    ``max_k(candidate[k] + gap * (i - k))``, and ``limit_for`` is monotone
    in the cutoff, so the survivors under the new limit are among them.
    ``h[m] == 0`` makes the last row's final limit the cutoff itself, which
    no score exceeds, so a finished column has no cell in row ``m``; under
    the *earlier* limit a new strongest cell can sit there for the rest of
    the walk and start a chain towards row ``m + 1``, which is why every
    limit list ends in a sentinel row that stops it.

:class:`CompiledKernel` (``compiled``, the default where it builds)
    The same walk in C (``_column_step.c``, next to this file), written
    against the CPython C API, inside Algorithm 1's queue: ``frontier(records,
    context, root, root_symbols)`` (:attr:`CompiledKernel.node_frontier`;
    :mod:`repro.core.frontier`), a binary heap of C entries whose columns
    live in one cell arena.  It builds the query's constants once, when it
    is made -- the heuristic from the matrix's clamped gains, the profile
    from its packed rows, the root column, each limit computed as
    ``limit_for`` lists it -- and decodes
    each node's children itself from the cursor's ``node_records``: the
    in-memory tree's record arrays, or the disk cursor's page source, whose
    buffer-pool pages it asks for exactly as ``DiskSuffixTree.siblings``
    does (the pool's hits, misses and clock run in C too, over its flat
    buffers: ``page``, which the pool's ``page`` is bound to wherever the
    module builds).  Each arc is walked where it lies, and each node's
    children get the entries, numbering and counter updates
    :func:`_expand_live` gives them.  Its ``advance(bound_floor, budget)``
    pops and expands until an ACCEPTED entry surfaces whose leaves -- walked
    from the same records, on a disk with the requests of
    ``DiskSuffixTree.leaf_positions`` -- hold a sequence not reported
    before, the held hits' score is passed, ``budget`` pops have been made
    or the queue is empty, and only a hit's score and sequences become
    Python objects: one C call per hit, not one Python round trip per node.
    A partition's root is its first expansion,
    over only the children whose first arc symbol is in ``root_symbols``.
    The search runs it on every
    :class:`~repro.suffixtree.GeneralizedSuffixTree`, built or read, and
    every :class:`~repro.storage.DiskSuffixTree`
    (:meth:`ExpansionKernel.frontier` decides).  Everywhere else --
    ``expand_arc``, ``expand_children``, and a cursor without
    ``node_records`` (a test double, or a timing proxy such as
    ``bench_e2e``'s ``TimedCursor``) -- the compiled kernel runs ``live``'s
    Python step on the Python frontier.  ``live`` stays as the form that
    runs everywhere, the one the C source is read against, and the C
    frontier's twin in the tests (``tests/test_frontier.py``).

    The C source is compiled on first use, once per user and machine: ``gcc
    -O2 -shared -fPIC -I<sysconfig include>`` into ``$XDG_CACHE_HOME/
    repro-oasis`` (``~/.cache/repro-oasis``), a directory created with mode
    0o700 and never loaded from when another user owns it or group or
    others can write it.  The library's name is the sha256 of the source,
    the interpreter's ``EXT_SUFFIX`` and the compile command; the compiler
    writes a temporary file that ``os.replace`` puts in place, so processes
    that start together are safe.  A failed compile leaves a ``.failed``
    marker under the same name, so later processes fall back at once
    instead of paying the compiler again.  No ``gcc``, no ``Python.h``, a
    cache directory that cannot be written or may not be trusted, a failed
    compile or a failed load: the default is then ``live``, and ``compiled``
    asked for by name is a :class:`KernelUnavailable` naming the reason.

    The suffix-tree build loads the same module (:func:`_compiled_step`,
    imported at function scope by :mod:`repro.suffixtree.build`, as the
    buffer pool imports it) for its third entry point, ``flat_tree``: the
    rightmost-path stack pass over the sorted suffixes' LCPs.  It is still
    one library per source, ABI and command, built or refused once per
    process; where it is refused the build runs the same pass in Python.

:class:`ReferenceKernel` (``reference``)
    The dense implementation, verbatim
    (:func:`~repro.core.expand.expand_arc_reference`): the parity oracle.
    It knows how to expand one arc; the base class's ``expand_children``
    runs it over a sibling list.  It alone holds the pruning-rule switches
    of Section 3.2 (``ReferenceKernel(prune_dominated=False)``, as the
    ablation experiment varies them): the live-cell walk is exact only with
    every rule on, so it has none.

Each kernel runs one path per cursor, so ``statistics.kernel`` names the
code that ran: the dense NumPy form for ``reference``, :func:`_expand_live`
for ``live``, and for ``compiled`` the C frontier, or :func:`_expand_live`
on the Python frontier where a cursor has no ``node_records``.

The Python frontier and a kernel exchange frontier entries, the flat tuples
of :mod:`repro.core.search_node`.  ``expand_children(parent, siblings,
context)`` receives the entry the frontier popped and the node's children
as a list of ``(handle, arc symbols, is_leaf)`` triples, and returns the
entries of the children to enqueue, in child order and numbered from
``context.nodes_enqueued`` (the heap tie-break depends on both); the
frontier pushes them as they are.  Four in five children come out UNVIABLE
and are counted in ``context.nodes_dropped`` without ever becoming an
entry.  Kernels hold no per-query state -- one instance serves concurrent
executions; the C frontier is made per search -- and never call the
cursor.  The one exception is the compiled frontier, which decodes the
children itself: it reads what the cursor hands over as ``node_records``
(record arrays, or a page source whose requests go to the buffer pool),
never a cursor method.

Selection goes through :func:`get_kernel`: an explicit ``kernel=`` argument
(``OasisEngine``, its ``build`` / ``open`` and the CLI all thread one
through) wins, otherwise the ``OASIS_KERNEL`` environment variable,
otherwise ``compiled`` where it builds and ``live`` where it does not.  The
choice is made when the engine is built, so ``statistics.kernel`` names the
kernel that ran.

Purity contract, enforced by the ``kernel-purity`` analysis rule over this
file: no NumPy call and no tracer access inside a kernel loop.  The
C frontier keeps the Python walk's rules: no buffer shared between searches (a
frontier's heap and arena belong to its one search, and an ``advance``
that another thread enters while a pool miss has released the GIL is a
``RuntimeError``), every conversion and allocation checked, a symbol or row
out of range an ``IndexError``, and an argument of the wrong shape a
``TypeError``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import shutil
import stat
from types import ModuleType
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.expand import ExpansionContext, expand_arc_reference
from repro.core.frontier import Frontier, PythonFrontier
from repro.core.search_node import (
    ACCEPTED_FIRST,
    FrontierEntry,
    NodeState,
    PRUNED,
    SearchNode,
    VIABLE_AFTER,
    frontier_entry,
    node_view,
)

# One child of a VIABLE node as the driver hands it to a kernel, exactly what
# ``SuffixTreeCursor.siblings`` returns: the arc is ``bytes``, so a kernel
# loop iterates plain Python ints.
from repro.suffixtree.cursor import NodeHandle, Sibling, SuffixTreeCursor


#: Environment variable selecting the default kernel.
KERNEL_ENVIRONMENT_VARIABLE = "OASIS_KERNEL"

#: The default where the compiled step builds; ``live`` everywhere else.
DEFAULT_KERNEL = "compiled"

#: Seconds the one-time compile of the compiled step may take.
_COMPILE_TIMEOUT_S = 120

_UNVIABLE = NodeState.UNVIABLE


class ExpansionKernel:
    """One strategy for running Algorithm 3 over a node's children.

    ``expand_children`` is what the search driver calls: it receives the
    frontier entry of a VIABLE node and that node's whole sibling list and
    returns the frontier entries of the children to enqueue, *in child
    order*, numbered from ``context.nodes_enqueued``; UNVIABLE children are
    dropped and counted in ``context.nodes_dropped``.  ``expand_arc`` expands
    a single arc into its :class:`SearchNode`, whatever its state.

    The implementation here serves every kernel that only knows how to
    expand one arc densely: it views the parent as a :class:`SearchNode`,
    runs ``expand_arc`` per sibling and turns what is kept into entries.
    """

    name = ""

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: bytes,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        raise NotImplementedError

    def expand_children(
        self,
        parent: FrontierEntry,
        siblings: Sequence[Sibling],
        context: ExpansionContext,
    ) -> List[FrontierEntry]:
        node = node_view(parent, context.min_score)
        if isinstance(node.column, list):
            # The root column is created sparse; the dense form below it is
            # dense all the way down.
            node.column = context.dense_column(node.column)
        kept: List[FrontierEntry] = []
        counter = context.nodes_enqueued
        for tree_node, arc_symbols, is_leaf in siblings:
            child = self.expand_arc(node, tree_node, arc_symbols, is_leaf, context)
            if child.state is _UNVIABLE:
                context.nodes_dropped += 1
            else:
                counter += 1
                kept.append(frontier_entry(child, counter))
        context.nodes_enqueued = counter
        return kept

    def frontier(
        self,
        cursor: SuffixTreeCursor,
        context: ExpansionContext,
        root: NodeHandle,
        root_symbols: Optional[bytes],
    ) -> Frontier:
        """The frontier a search of ``cursor`` runs on, seeded with node ``root``.

        Here the Python one: each expanded node costs one ``cursor.siblings``
        call, handed to :meth:`expand_children`, and each ACCEPTED one a
        ``cursor.sequences_below`` call.  With ``root_symbols`` (a partition
        of the tree; ``None`` for all of it) the root's expansion gets only
        the children whose first arc symbol is among them.  The compiled
        kernel runs its C frontier over a cursor that names its
        ``node_records``.
        """
        siblings, expand_children = cursor.siblings, self.expand_children

        def expand(parent: FrontierEntry, context: ExpansionContext) -> List[FrontierEntry]:
            children = siblings(parent[3])
            if root_symbols is not None and parent[2] == 0:
                # Entry number 0 is the root: a partition keeps its own children.
                children = [child for child in children if child[1][0] in root_symbols]
            return expand_children(parent, children, context)

        return PythonFrontier(expand, context, root, cursor.sequences_below)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceKernel(ExpansionKernel):
    """The dense per-column implementation, unmodified (the parity oracle).

    The three switches are the pruning rules of Section 3.2, all on by
    default; each is passed to :func:`expand_arc_reference`.  Switching one
    off never changes the result set, only the amount of work.
    """

    name = "reference"

    def __init__(
        self,
        prune_non_positive: bool = True,
        prune_dominated: bool = True,
        prune_threshold: bool = True,
    ) -> None:
        self.rules: Dict[str, bool] = {
            "prune_non_positive": prune_non_positive,
            "prune_dominated": prune_dominated,
            "prune_threshold": prune_threshold,
        }

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: bytes,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        return expand_arc_reference(
            parent, tree_node, arc_symbols, is_leaf, context, **self.rules
        )


def _expand_live(
    parent: FrontierEntry,
    siblings: Sequence[Sibling],
    context: ExpansionContext,
    arc_bests: Optional[List[int]] = None,
) -> List[FrontierEntry]:
    """Live-cell Algorithm 3 below ``parent``, one arc per sibling.

    Returns the entries of the ACCEPTED and VIABLE children in sibling
    order, numbered from ``context.nodes_enqueued``; an UNVIABLE child is
    counted in ``context.nodes_dropped``.  With ``arc_bests`` (the
    ``expand_arc`` view) every child is returned, its ``b`` is appended to
    that list, and neither counter moves.
    """
    seed = parent[4]
    if seed is None:
        raise ValueError("cannot expand below a node whose column was discarded")
    gap = context.gap_penalty
    min_score = context.min_score
    profile = context.profile_rows
    heuristic = context.heuristic
    limit_for = context.limit_for
    parent_max = parent[5]
    parent_depth = parent[6]
    parent_limit = limit_for(parent_max if parent_max >= min_score else min_score - 1)
    view = arc_bests is not None
    # ``b`` is the strongest cell of any column on the arc.  The walk tracks
    # the diagonal candidates; a horizontal one is below the strongest cell
    # of the column before it, so only the seed's can count -- and only for
    # ``b``, because a seed cell never exceeds ``parent_max``.
    floor = max([score for _, score in seed]) + gap if view else PRUNED

    kept: List[FrontierEntry] = []
    counter = context.nodes_enqueued
    dropped = 0
    columns = 0
    for tree_node, arc_symbols, is_leaf in siblings:
        column = seed
        max_score = parent_max
        limit = parent_limit
        best = floor
        depth = parent_depth
        for symbol in arc_symbols:
            depth += 1
            scores = profile[symbol]
            # One walk down the live cells.  Each emits a horizontal
            # candidate (``+gap``, same row) and a diagonal one (``+S(q, t)``,
            # next row, held back as ``pending`` until the next cell shows
            # whether a horizontal candidate shares its row).  A settled
            # candidate is raised to the vertical chain arriving from the
            # survivor above it where that is higher, survives if it exceeds
            # its limit, and starts the chain below it; the chain's own
            # cells between candidates survive for as long as they stay above
            # theirs.
            survivors: List[Tuple[int, int]] = []
            pending_row = -1
            pending = 0
            chain_row = -1
            chain = 0
            for row, score in column:
                value = score + gap
                if pending_row == row:
                    if pending > value:
                        value = pending
                elif pending_row >= 0:
                    if chain_row >= 0:
                        while chain_row < pending_row and chain > limit[chain_row]:
                            survivors.append((chain_row, chain))
                            chain += gap
                            chain_row += 1
                        if chain_row == pending_row and chain > pending:
                            pending = chain
                    if pending > limit[pending_row]:
                        survivors.append((pending_row, pending))
                        chain = pending + gap
                        chain_row = pending_row + 1
                    else:
                        chain_row = -1
                if chain_row >= 0:
                    while chain_row < row and chain > limit[chain_row]:
                        survivors.append((chain_row, chain))
                        chain += gap
                        chain_row += 1
                    if chain_row == row and chain > value:
                        value = chain
                if value > limit[row]:
                    survivors.append((row, value))
                    chain = value + gap
                    chain_row = row + 1
                else:
                    chain_row = -1
                pending = score + scores[row]
                pending_row = row + 1
                if pending > best:
                    best = pending
            if chain_row >= 0:
                while chain_row < pending_row and chain > limit[chain_row]:
                    survivors.append((chain_row, chain))
                    chain += gap
                    chain_row += 1
                if chain_row == pending_row and chain > pending:
                    pending = chain
            if pending > limit[pending_row]:
                survivors.append((pending_row, pending))
                chain = pending + gap
                chain_row = pending_row + 1
                while chain > limit[chain_row]:
                    survivors.append((chain_row, chain))
                    chain += gap
                    chain_row += 1

            if best > max_score:
                max_score = best
                if best >= min_score:
                    # The cutoff rose: what survived the limit in force when
                    # the column started is tested against the new one.
                    limit = limit_for(best)
                    survivors = [cell for cell in survivors if cell[1] > limit[cell[0]]]
            column = survivors
            if not column:
                break
        columns += depth - parent_depth
        if column and not is_leaf:
            # The arc is spelled out and cells are still alive.
            counter += 1
            bound = max([score + heuristic[row] for row, score in column])
            kept.append((-bound, VIABLE_AFTER, counter, tree_node, column, max_score, depth))
        # Otherwise finished: every cell pruned (nothing below can beat the
        # path's best) or a leaf (nothing below at all).  ``f`` collapses to
        # ``max_score`` and the column is discarded.
        elif max_score >= min_score:
            counter += 1
            kept.append((-max_score, ACCEPTED_FIRST, counter, tree_node, None, max_score, depth))
        elif view:
            # UNVIABLE: never enqueued, so its number and flag mean nothing.
            kept.append((-max_score, VIABLE_AFTER, counter, tree_node, None, max_score, depth))
        else:
            dropped += 1
        if view:
            arc_bests.append(best)
    context.columns_expanded += columns
    if not view:
        context.nodes_enqueued = counter
        context.nodes_dropped += dropped
    return kept


class LiveCellKernel(ExpansionKernel):
    """Algorithm 3 over the live cells of each column only, in Python.

    Every pruning rule is on: a column is just its few surviving cells, the
    ``(row, score)`` list :func:`_expand_live` walks.  ``expand_arc`` takes
    a parent in that form too, as the driver and this kernel build it.
    """

    name = "live"

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: bytes,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        arc_bests: List[int] = []
        (child,) = _expand_live(
            frontier_entry(parent, 0), ((tree_node, arc_symbols, is_leaf),), context, arc_bests
        )
        return node_view(child, context.min_score, arc_bests[0])

    def expand_children(
        self,
        parent: FrontierEntry,
        siblings: Sequence[Sibling],
        context: ExpansionContext,
    ) -> List[FrontierEntry]:
        return _expand_live(parent, siblings, context)


class KernelUnavailable(ValueError):
    """The compiled step cannot be built or loaded on this host."""


class CompiledKernel(LiveCellKernel):
    """The live-cell kernel with its search in C (the default where it builds).

    Over a cursor's ``node_records`` the search runs the C frontier of
    ``_column_step.c``, which expands each node as :func:`_expand_live`
    does: the same walk, entries, numbering and counter updates.  Everything
    else -- ``expand_arc``, ``expand_children``, a cursor without
    ``node_records`` -- is the ``live`` kernel's Python.  Constructing one
    builds the module on first use (:func:`_compiled_step`) and raises
    :class:`KernelUnavailable` where it cannot.
    """

    name = "compiled"

    def __init__(self) -> None:
        module = _compiled_step()
        if isinstance(module, str):
            raise KernelUnavailable(f"expansion kernel 'compiled' is unavailable: {module}")
        #: ``frontier(records, context, root, root_symbols[, popped])``: the
        #: C frontier.
        self.node_frontier: Callable[..., Frontier] = module.frontier

    def frontier(
        self,
        cursor: SuffixTreeCursor,
        context: ExpansionContext,
        root: NodeHandle,
        root_symbols: Optional[bytes],
    ) -> Frontier:
        records = cursor.node_records
        if records is None:
            return super().frontier(cursor, context, root, root_symbols)
        return self.node_frontier(records, context, root, root_symbols)


# --------------------------------------------------------------------- #
# The compiled step: built on first use, cached per user
# --------------------------------------------------------------------- #
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_column_step.c")
_MODULE = "repro.core._column_step"


def _compiler() -> Optional[str]:
    return shutil.which("gcc")


def _include_directory() -> str:
    import sysconfig

    return sysconfig.get_path("include")


def _cache_directory() -> str:
    # The XDG Base Directory spec makes a relative XDG_CACHE_HOME invalid:
    # honouring it would build a cache in every working directory.
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-oasis")


def _sha256(data: bytes):
    """``hashlib.sha256`` without loading OpenSSL, which would cost every
    cold search about 5 ms and 3.7 MB of RSS: the interpreter's own module
    (``_sha2`` from Python 3.12, ``_sha256`` before), ``hashlib`` if neither."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256(data)
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data)


def _private_directory(path: str) -> Optional[str]:
    """Create ``path`` (mode 0o700) if missing; why it may not hold a library, if so.

    A directory that another user owns, or that group or others can
    write, could hold a library someone else put there: never load from it.
    """
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        status = os.stat(path)
    except OSError as error:
        return f"cannot create the cache directory {path}: {error}"
    if not stat.S_ISDIR(status.st_mode):
        return f"the cache directory {path} is not a directory"
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        return f"the cache directory {path} is not private to this user"
    return None


def _library() -> Union[Tuple[List[str], str, str, str, str], str]:
    """Where the compiled step's library lies, or why it cannot be built here.

    ``(compile command, library, failure marker, cache directory, suffix)``:
    the command is ``gcc -O2 -shared -fPIC -I<Python include>``, and the
    library is named in the user's cache directory by the sha256 of the
    source, the interpreter's ABI and the command.
    """
    compiler = _compiler()
    if compiler is None:
        return "no gcc on PATH"
    include = _include_directory()
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return f"no Python.h in {include}"
    directory = _cache_directory()
    refusal = _private_directory(directory)
    if refusal is not None:
        return refusal

    import sysconfig

    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    command = [compiler, "-O2", "-shared", "-fPIC", f"-I{include}"]
    try:
        with open(_SOURCE, "rb") as source:
            digest = _sha256(source.read())
    except OSError as error:
        return f"cannot read {_SOURCE}: {error}"
    digest.update(suffix.encode())
    digest.update("\0".join(command).encode())
    stem = os.path.join(directory, f"_column_step-{digest.hexdigest()}")
    return command, stem + suffix, stem + ".failed", directory, suffix


@functools.lru_cache(maxsize=None)
def _compiled_step() -> Union[ModuleType, str]:
    """The compiled module (``frontier``, ``page`` and ``flat_tree``), or why
    it cannot run here.

    The library (:func:`_library`) is built once per source, interpreter
    ABI and compile command.  A failed compile leaves a ``.failed`` marker
    under the same key, so later processes fall back at once instead of
    paying the compiler again.  The outcome is cached for the life of the
    process.
    """
    plan = _library()
    if isinstance(plan, str):
        return plan
    library, marker = plan[1], plan[2]
    if os.path.exists(marker):
        return f"an earlier build failed (see {marker})"
    if not os.path.exists(library):
        failure = _build(*plan)
        if failure is not None:
            return failure

    from importlib.machinery import ExtensionFileLoader, ModuleSpec
    from importlib.util import module_from_spec

    loader = ExtensionFileLoader(_MODULE, library)
    try:
        module = module_from_spec(ModuleSpec(_MODULE, loader, origin=library))
        loader.exec_module(module)
    except (ImportError, OSError) as error:
        return f"cannot load {library}: {error}"
    return module


def _build(
    command: List[str], library: str, marker: str, directory: str, suffix: str
) -> Optional[str]:
    """Compile :data:`_SOURCE` into ``library``; why not, if it fails.

    The compiler writes a temporary file that is renamed into place, so a
    process starting at the same moment finds the whole library or none.
    """
    import subprocess
    import tempfile

    try:
        descriptor, temporary = tempfile.mkstemp(suffix=suffix, dir=directory)
        os.close(descriptor)
    except OSError as error:
        return f"cannot write to the cache directory {directory}: {error}"
    try:
        try:
            completed = subprocess.run(
                command + [_SOURCE, "-o", temporary],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                timeout=_COMPILE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            log = str(error)
        else:
            if completed.returncode == 0:
                try:
                    os.replace(temporary, library)
                except OSError as error:
                    return f"cannot write to the cache directory {directory}: {error}"
                return None
            log = completed.stdout.decode(errors="replace")
    finally:
        with contextlib.suppress(OSError):  # renamed into place, or gone
            os.unlink(temporary)
    try:
        with open(marker, "w") as failed:
            failed.write(log)
    except OSError:
        pass  # no marker: the next process tries once more
    return f"the compile failed (see {marker})"


# --------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------- #
_KERNELS: Dict[str, Type[ExpansionKernel]] = {
    ReferenceKernel.name: ReferenceKernel,
    LiveCellKernel.name: LiveCellKernel,
    CompiledKernel.name: CompiledKernel,
}


def available_kernels() -> Tuple[str, ...]:
    """The kernels that run on this host: the oracle, the Python production
    kernel, then the compiled one where it builds (which this may trigger)."""
    if isinstance(_compiled_step(), str):
        return tuple(name for name in _KERNELS if name != CompiledKernel.name)
    return tuple(_KERNELS)


def get_kernel(
    kernel: Union[str, ExpansionKernel, None] = None,
) -> ExpansionKernel:
    """Resolve a kernel selection into a kernel instance.

    Precedence: an explicit instance is used as-is, an explicit name is
    looked up, ``None`` falls back to the ``OASIS_KERNEL`` environment
    variable and finally to :data:`DEFAULT_KERNEL` -- the compiled kernel,
    or ``live`` where it cannot build.  A name that cannot run here is a
    ``ValueError`` (:class:`KernelUnavailable` for ``compiled``).
    """
    if isinstance(kernel, ExpansionKernel):
        return kernel
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENVIRONMENT_VARIABLE)
        if not kernel:
            try:
                return CompiledKernel()
            except KernelUnavailable:
                return LiveCellKernel()
    try:
        factory = _KERNELS[kernel]
    except KeyError:
        raise ValueError(
            f"unknown expansion kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        ) from None
    return factory()
