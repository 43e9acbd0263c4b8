/* The search of repro.core.kernels' compiled kernel, its buffer pool, and
 * the suffix-tree build's stack pass.
 *
 * The module has three entry points, one per job:
 *
 * frontier(records, context, root, root_symbols[, popped]) is Algorithm 1's
 * queue (repro.core.frontier): a binary heap of C entries on (-f, flag,
 * counter), each column a slice of one cell arena, seeded with node root (a
 * handle) as Algorithm 2 seeds it.  Its advance(bound_floor, budget) pops
 * and expands nodes until an ACCEPTED entry with a sequence not reported
 * before surfaces, the top bound is below bound_floor, budget pops have
 * passed or the queue is empty.  Each expansion is kernels._expand_live
 * over the node's children, walk for walk: the same survivors, entries
 * numbered the same way, the same counters.  Each ACCEPTED pop is counted
 * in nodes_accepted and its leaves are walked (walk_leaves): the sequences
 * they lie in that the frontier's bitmap has not seen are the hit, returned
 * as (score, ascending sequence indices) -- the only Python objects a
 * search makes -- and a pop whose sequences were all reported before is
 * passed over within the same budget.  With popped (a list) every popped
 * entry is appended to it as its tuple, the test view.  With root_symbols
 * (bytes; None is the whole tree) the first expansion, the root's, walks
 * only the children whose first arc symbol is among them: one partition of
 * the tree.  The counters are the frontier's, continuing from the
 * context's.  The heap, the arena, the staged children of one expansion,
 * the leaf walk's stack and the bitmap are the frontier's own, used by one
 * advance at a time.
 *
 * The query's constants are built here, once per frontier, from the
 * context's query_codes (bytes), gains (SubstitutionMatrix.gains: the
 * clamped best score of each code) and packed_score_rows (each code's
 * scores as int64 bytes): the heuristic h[i], the sum of the gains of
 * q_{i+1} .. q_m; the profile, S(q_row, symbol) at row * alphabet +
 * symbol, the query codes' rows one after the other; and the root column,
 * a zero in every row whose h reaches min_score (no root entry at all when
 * h[0] does not).  limit[row] is computed from h as limit_for builds it:
 * max(0, cutoff - h[row]), and the stop sentinel in row m + 1.
 *
 * records is the tree's node_records, of one of two shapes:
 *
 *   - a GeneralizedSuffixTree's (internal_records, leaf_records,
 *     concatenated codes, sequence ends), each record region one page in
 *     memory;
 *   - a DiskSuffixTree's page source (pool.state, per region (first
 *     block, page bytes, record count), sequence ends), whose pages are the
 *     image's blocks, asked of the buffer pool exactly as
 *     DiskSuffixTree.siblings asks for them, anew per node: the parent
 *     record's page, the internal run's, the leaf run's, then every page of
 *     every arc in child order -- a partition root's unowned children's
 *     too, though no column is walked over them.  A hit's leaf walk asks
 *     for the pages DiskSuffixTree.leaf_positions asks for: children()'s
 *     for each internal node below the hit, in pre-order.  Each request is
 *     pool_request, the C body of BufferPool.page, over the pool's flat
 *     buffers: a hit sets the frame's reference bit and counts, a miss
 *     reads the block with the GIL released, then counts, looks the block
 *     up again and runs the clock.  Each page's bytes are held while they
 *     are read; page words are little-endian (image format v2).  A closed
 *     block file is the ValueError of a read from it, before any request.
 *
 * page(state, block, region) is that request alone: BufferPool.page, bound
 * to a pool's state wherever this module builds, so DiskSuffixTree._read
 * runs the same clock.
 *
 * flat_tree(lcps[, leaf_parent, node_depth, node_leftmost, node_parent]) is
 * repro.suffixtree.build._flat_tree's rightmost-path stack pass, the
 * bottom-up lcp-interval walk of Abouelhoda, Kurtz and Ohlebusch (2004),
 * over the LCPs of the sorted suffixes (int32 or int64 items, read through
 * the buffer protocol).  Called with the LCPs alone it returns the node
 * count, root included; _flat_tree then sizes the four int32 outputs to
 * what they hold (one item per leaf, one per node) and calls it again to
 * fill them, nodes numbered in creation order as the Python loop numbers
 * them.  Its one allocation is the stack, which grows on demand to at most
 * the longest LCP + 1 entries.
 *
 * One decoder serves both sources and both walks: the node's run of
 * internal children, then its run of leaves, are decoded one record at a
 * time as GeneralizedSuffixTree.children decodes them (a leaf's sequence by
 * bisection); an expansion walks each arc where it lies, page by page, and
 * stages a child only if it is kept -- four children in five are dropped
 * after a symbol or two.  A record that points past its region, an arc past
 * the symbols and a suffix past the last sequence end are IndexErrors,
 * raised before any request past the region.
 *
 * Each arc is one walk_arc; kernels.py documents the walk and why it is
 * exact, and the comments here cover only what C adds.
 *
 * A frontier's arrays belong to its one search, and an advance entered
 * while another is under way (a pool miss releases the GIL) is a
 * RuntimeError.  No pointer into a list is held across anything that can
 * run Python code; the record arrays are held through the buffer protocol
 * for a whole advance, so they can be neither freed nor resized under it,
 * and a pool page
 * through a strong reference to its bytes (a miss releases the GIL, and
 * another thread may evict the frame meanwhile).  The pool's buffers are
 * written only while the GIL is held, so no lock guards them.  A page's
 * bytes are written into only after the pool evicted it and nothing but
 * the pool holds it: the eviction keeps it as the pool's one spare, and the
 * next miss reads into it, so a page anyone holds keeps its block's content.
 *
 * Integers: ints read from Python must lie within +-2**62, and a sum that
 * leaves that range raises OverflowError where Python ints would grow.  A
 * symbol or row out of range raises IndexError, as list indexing does in
 * the Python walk.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <errno.h>
#include <limits.h>
#include <stdint.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

typedef long long i64;

/* The PRUNED sentinel of repro.core.search_node, and the limit of row
 * m + 1 (expand._NO_SCORE_ABOVE). */
#define PRUNED (-1000000000000000LL)
#define NO_SCORE_ABOVE (-PRUNED)
#define SCORE_BOUND (1LL << 62)
#define VIABLE_AFTER 1
#define ACCEPTED_FIRST 0

/* The record words of repro.suffixtree.cursor. */
#define LAST_SIBLING_BIT 0x80000000u
#define VALUE_MASK 0x7FFFFFFFu
#define NO_POINTER 0xFFFFFFFFu

typedef struct {
    PyObject *gap_penalty;
    PyObject *min_score;
    PyObject *query_codes;
    PyObject *gains;
    PyObject *packed_score_rows;
    PyObject *nodes_enqueued;
    PyObject *nodes_dropped;
    PyObject *columns_expanded;
    PyObject *internal_kind; /* "I", the first item of an internal handle */
    PyObject *leaf_kind;     /* "L" */
    PyObject *descriptor;    /* a block file's, None once closed */
    PyObject *path;          /* a block file's */
    PyObject *frontier_type;
} step_state;

/* A list or tuple, or TypeError naming what it should have been. */
static int
require_sequence(PyObject *object, const char *what)
{
    if (PyList_Check(object) || PyTuple_Check(object))
        return 0;
    PyErr_Format(PyExc_TypeError, "%s must be a list or a tuple, not %.100s",
                 what, Py_TYPE(object)->tp_name);
    return -1;
}

/* Item ``index`` of a list or tuple (borrowed), or IndexError. */
static PyObject *
item_at(PyObject *sequence, Py_ssize_t index, const char *what)
{
    if (index < 0 || index >= Py_SIZE(sequence)) {
        PyErr_Format(PyExc_IndexError, "%s index out of range", what);
        return NULL;
    }
    return PyList_Check(sequence) ? PyList_GET_ITEM(sequence, index)
                                  : PyTuple_GET_ITEM(sequence, index);
}

static int
overflow(void)
{
    PyErr_SetString(PyExc_OverflowError, "score outside +-2**62");
    return -1;
}

static int
out_of_range(const char *what)
{
    PyErr_SetString(PyExc_IndexError, what);
    return -1;
}

static int
as_score(PyObject *object, i64 *out)
{
    int overflowed;
    long long value;

    if (!PyLong_Check(object)) {
        PyErr_Format(PyExc_TypeError, "expected an int, not %.100s",
                     Py_TYPE(object)->tp_name);
        return -1;
    }
    value = PyLong_AsLongLongAndOverflow(object, &overflowed);
    if (value == -1 && PyErr_Occurred())
        return -1;
    if (overflowed || value > SCORE_BOUND || value < -SCORE_BOUND)
        return overflow();
    *out = value;
    return 0;
}

/* Item ``index`` of a list or tuple of ints. */
static int
int_at(PyObject *sequence, Py_ssize_t index, const char *what, i64 *out)
{
    PyObject *item = item_at(sequence, index, what);
    return item == NULL ? -1 : as_score(item, out);
}

static int
attribute_score(PyObject *object, PyObject *name, i64 *out)
{
    PyObject *value = PyObject_GetAttr(object, name);
    int status;

    if (value == NULL)
        return -1;
    status = as_score(value, out);
    Py_DECREF(value);
    return status;
}

/* A buffer of ``format`` items, held until PyBuffer_Release. */
static int
buffer_with(PyObject *object, const char *format, int flags, const char *what, Py_buffer *view)
{
    if (PyObject_GetBuffer(object, view, flags) < 0)
        return -1;
    if (view->format == NULL || strcmp(view->format, format) != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('%s'), not %.100s", what, format,
                     Py_TYPE(object)->tp_name);
        return -1;
    }
    return 0;
}

/* A writable buffer of ``format`` items: an array, or a bytearray for "B". */
static int
buffer_of(PyObject *object, const char *format, const char *what, Py_buffer *view)
{
    return buffer_with(object, format, PyBUF_FORMAT | PyBUF_WRITABLE, what, view);
}

/* A record array, an array('I'), read only. */
static int
words_of(PyObject *object, const char *what, Py_buffer *view)
{
    return buffer_with(object, "I", PyBUF_FORMAT, what, view);
}

/* a + b, or OverflowError when it leaves +-2**62. */
static inline int
add(i64 a, i64 b, i64 *out)
{
    if (__builtin_add_overflow(a, b, out) || *out > SCORE_BOUND || *out < -SCORE_BOUND)
        return overflow();
    return 0;
}

/* One query's constants, as the walk reads them. */
typedef struct {
    const i64 *heuristic; /* h[0..m] */
    const i64 *profile;   /* S(q_row, symbol) at row * alphabet + symbol */
    i64 m;
    i64 alphabet;
} query_view;

/* limit_for(cutoff)[row]: max(0, cutoff - h[row]), the sentinel in row
 * m + 1, IndexError past it. */
static inline int
limit_at(const query_view *query, i64 cutoff, i64 row, i64 *out)
{
    i64 bound;

    if (row <= query->m) {
        bound = query->heuristic[row];
        if (bound >= cutoff)
            *out = 0;
        else if (__builtin_sub_overflow(cutoff, bound, out))
            return overflow();
        return 0;
    }
    if (row == query->m + 1) {
        *out = NO_SCORE_ABOVE;
        return 0;
    }
    return out_of_range("limit index out of range");
}

/* (-f, flag, counter, tree_node, column, max_score, depth); steals column. */
static PyObject *
frontier_entry(i64 f, int flag, i64 counter, PyObject *tree_node, PyObject *column,
               i64 max_score, i64 depth)
{
    PyObject *entry = PyTuple_New(7);
    PyObject *value;
    int slot;
    i64 numbers[7] = {-f, flag, counter, 0, 0, max_score, depth};

    if (entry == NULL) {
        Py_DECREF(column);
        return NULL;
    }
    Py_INCREF(tree_node);
    PyTuple_SET_ITEM(entry, 3, tree_node);
    PyTuple_SET_ITEM(entry, 4, column);
    for (slot = 0; slot < 7; slot++) {
        if (slot == 3 || slot == 4)
            continue;
        value = PyLong_FromLongLong(numbers[slot]);
        if (value == NULL) {
            Py_DECREF(entry);
            return NULL;
        }
        PyTuple_SET_ITEM(entry, slot, value);
    }
    return entry;
}

/* (kind, a, b, c, d): a node handle as GeneralizedSuffixTree.children
 * builds it. */
static PyObject *
node_handle(PyObject *kind, i64 a, i64 b, i64 c, i64 d)
{
    PyObject *handle = PyTuple_New(5);
    PyObject *value;
    i64 numbers[4] = {a, b, c, d};
    int slot;

    if (handle == NULL)
        return NULL;
    Py_INCREF(kind);
    PyTuple_SET_ITEM(handle, 0, kind);
    for (slot = 0; slot < 4; slot++) {
        value = PyLong_FromLongLong(numbers[slot]);
        if (value == NULL) {
            Py_DECREF(handle);
            return NULL;
        }
        PyTuple_SET_ITEM(handle, slot + 1, value);
    }
    return handle;
}

/* The (row, score) cells as a new list of 2-tuples. */
static PyObject *
column_list(const i64 *rows, const i64 *scores, Py_ssize_t count)
{
    PyObject *column = PyList_New(count);
    PyObject *cell, *row, *score;
    Py_ssize_t k;

    if (column == NULL)
        return NULL;
    for (k = 0; k < count; k++) {
        cell = PyTuple_New(2);
        row = PyLong_FromLongLong(rows[k]);
        score = PyLong_FromLongLong(scores[k]);
        if (cell == NULL || row == NULL || score == NULL) {
            Py_XDECREF(cell);
            Py_XDECREF(row);
            Py_XDECREF(score);
            Py_DECREF(column);
            return NULL;
        }
        PyTuple_SET_ITEM(cell, 0, row);
        PyTuple_SET_ITEM(cell, 1, score);
        PyList_SET_ITEM(column, k, cell);
    }
    return column;
}

/* What an expansion reads before its first arc -- the query's constants,
 * the parent's seed column, max_score and depth -- and the scratch its
 * arcs' columns live in.  ``counter`` numbers the entries it builds. */
typedef struct {
    query_view query;
    i64 gap, min_score, counter;
    i64 *memory; /* owned: h, the profile, then the two columns below */
    i64 *rows_a, *scores_a, *rows_b, *scores_b;
    Py_ssize_t capacity;
    i64 parent_max, parent_depth, parent_cutoff;
    i64 *seed_rows, *seed_scores;
    Py_ssize_t seed_count;
} expansion;

/* One arc's walk so far: its last column's live cells, max_score, b, depth
 * and the cutoff in force; ``finished`` once a column kept no cell. */
typedef struct {
    i64 *rows, *scores;
    Py_ssize_t count;
    i64 max_score, best, depth, cutoff;
    int finished;
} arc_walk;

/* What becomes of a child: enqueued VIABLE or ACCEPTED, or else dropped. */
enum fate { DROPPED, VIABLE, ACCEPTED };

/* The query's heuristic and profile from its codes, the matrix's gains and
 * its packed score rows, into ``memory``: h[i] = h[i + 1] + gains[q_{i+1}]
 * with h[m] = 0 (heuristic.heuristic_vector), and profile row i the packed
 * score row of q_{i+1}.  A code past the gains or the rows is an IndexError,
 * a row that is not bytes a TypeError, and one that is not one int64 per
 * symbol a ValueError. */
static int
build_query(expansion *e, PyObject *codes, PyObject *gains, PyObject *rows)
{
    const unsigned char *query = (const unsigned char *)PyBytes_AS_STRING(codes);
    const Py_ssize_t m = PyBytes_GET_SIZE(codes), alphabet = Py_SIZE(rows);
    i64 *heuristic, *profile, gain;
    PyObject *row;
    Py_ssize_t i;

    e->capacity = m + 2;
    if (alphabet > 0
        && m > (PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(i64) - 5 * e->capacity) / alphabet) {
        PyErr_NoMemory();
        return -1;
    }
    e->memory = PyMem_New(i64, m + 1 + m * alphabet + 4 * e->capacity);
    if (e->memory == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    heuristic = e->memory;
    profile = heuristic + m + 1;
    e->rows_a = profile + m * alphabet;
    e->scores_a = e->rows_a + e->capacity;
    e->rows_b = e->scores_a + e->capacity;
    e->scores_b = e->rows_b + e->capacity;
    e->query.heuristic = heuristic;
    e->query.profile = profile;
    e->query.m = m;
    e->query.alphabet = alphabet;
    heuristic[m] = 0;
    for (i = m - 1; i >= 0; i--) {
        if (int_at(gains, query[i], "gains", &gain) < 0
            || add(heuristic[i + 1], gain, &heuristic[i]) < 0)
            return -1;
        row = item_at(rows, query[i], "packed score rows");
        if (row == NULL)
            return -1;
        if (!PyBytes_Check(row)) {
            PyErr_Format(PyExc_TypeError, "a packed score row must be bytes, not %.100s",
                         Py_TYPE(row)->tp_name);
            return -1;
        }
        if (PyBytes_GET_SIZE(row) != alphabet * (Py_ssize_t)sizeof(i64)) {
            PyErr_SetString(PyExc_ValueError,
                            "a packed score row is not one int64 per symbol of the matrix");
            return -1;
        }
        memcpy(profile + i * alphabet, PyBytes_AS_STRING(row), alphabet * sizeof(i64));
    }
    return 0;
}

/* The query's constants from the context, built once per frontier, and
 * scratch for two columns of at most one cell per limit row (rows 0 to
 * m + 1). */
static int
open_query(step_state *state, PyObject *context, expansion *e)
{
    PyObject *codes = NULL, *gains = NULL, *rows = NULL;
    int status = -1;

    if (attribute_score(context, state->gap_penalty, &e->gap) < 0
        || attribute_score(context, state->min_score, &e->min_score) < 0
        || attribute_score(context, state->nodes_enqueued, &e->counter) < 0)
        return -1;
    codes = PyObject_GetAttr(context, state->query_codes);
    if (codes == NULL)
        goto done;
    if (!PyBytes_Check(codes)) {
        PyErr_Format(PyExc_TypeError, "the query codes must be bytes, not %.100s",
                     Py_TYPE(codes)->tp_name);
        goto done;
    }
    gains = PyObject_GetAttr(context, state->gains);
    if (gains == NULL || require_sequence(gains, "the gains") < 0)
        goto done;
    rows = PyObject_GetAttr(context, state->packed_score_rows);
    if (rows == NULL || require_sequence(rows, "the packed score rows") < 0)
        goto done;
    status = build_query(e, codes, gains, rows);

done:
    Py_XDECREF(codes);
    Py_XDECREF(gains);
    Py_XDECREF(rows);
    return status;
}

/* The parent's max_score and depth, and the cutoff they put in force. */
static void
set_parent(expansion *e, i64 max_score, i64 depth)
{
    e->parent_max = max_score;
    e->parent_depth = depth;
    e->parent_cutoff = max_score >= e->min_score ? max_score : e->min_score - 1;
}

#define FAIL_UNLESS(condition) \
    do {                       \
        if (!(condition))      \
            goto error;        \
    } while (0)

/* limit[row] under the cutoff in force, into ``out``. */
#define LIMIT(row, out) FAIL_UNLESS(limit_at(&e->query, cutoff, (row), &(out)) == 0)

#define KEEP(row, score)                                   \
    do {                                                   \
        if (kept_count == e->capacity) {                   \
            out_of_range("limit index out of range");      \
            goto error;                                    \
        }                                                  \
        out_rows[kept_count] = (row);                      \
        out_scores[kept_count] = (score);                  \
        kept_count++;                                      \
    } while (0)

/* An arc's walk before its first symbol: the seed column. */
static void
begin_arc(const expansion *e, arc_walk *walk)
{
    walk->rows = e->seed_rows;
    walk->scores = e->seed_scores;
    walk->count = e->seed_count;
    walk->max_score = e->parent_max;
    walk->best = PRUNED;
    walk->depth = e->parent_depth;
    walk->cutoff = e->parent_cutoff;
    walk->finished = 0;
}

/* The live-cell walk down the next ``symbols`` codes of an arc.  An arc
 * split over pages is walked one piece at a time, and a finished walk reads
 * no further piece.  It runs no Python code. */
static int
walk_arc(const expansion *e, arc_walk *walk, const unsigned char *arc_codes, Py_ssize_t symbols)
{
    const i64 gap = e->gap;
    i64 *in_rows = walk->rows, *in_scores = walk->scores;
    i64 *out_rows, *out_scores;
    i64 max_score = walk->max_score, best = walk->best, depth = walk->depth;
    i64 cutoff = walk->cutoff, limit_value;
    Py_ssize_t in_count = walk->count, kept_count, j, k;

    if (walk->finished)
        return 0;
    for (j = 0; j < symbols; j++) {
        i64 pending_row = -1, pending = 0, chain_row = -1, chain = 0;
        i64 symbol = arc_codes[j];

        depth++;
        if (symbol >= e->query.alphabet)
            return out_of_range("profile index out of range");
        out_rows = in_rows == e->rows_a ? e->rows_b : e->rows_a;
        out_scores = in_rows == e->rows_a ? e->scores_b : e->scores_a;
        kept_count = 0;
        for (k = 0; k < in_count; k++) {
            i64 row = in_rows[k], score = in_scores[k], value;

            FAIL_UNLESS(add(score, gap, &value) == 0);
            if (pending_row == row) {
                if (pending > value)
                    value = pending;
            }
            else if (pending_row >= 0) {
                if (chain_row >= 0) {
                    while (chain_row < pending_row) {
                        LIMIT(chain_row, limit_value);
                        if (chain <= limit_value)
                            break;
                        KEEP(chain_row, chain);
                        FAIL_UNLESS(add(chain, gap, &chain) == 0);
                        chain_row++;
                    }
                    if (chain_row == pending_row && chain > pending)
                        pending = chain;
                }
                LIMIT(pending_row, limit_value);
                if (pending > limit_value) {
                    KEEP(pending_row, pending);
                    FAIL_UNLESS(add(pending, gap, &chain) == 0);
                    chain_row = pending_row + 1;
                }
                else {
                    chain_row = -1;
                }
            }
            if (chain_row >= 0) {
                while (chain_row < row) {
                    LIMIT(chain_row, limit_value);
                    if (chain <= limit_value)
                        break;
                    KEEP(chain_row, chain);
                    FAIL_UNLESS(add(chain, gap, &chain) == 0);
                    chain_row++;
                }
                if (chain_row == row && chain > value)
                    value = chain;
            }
            LIMIT(row, limit_value);
            if (value > limit_value) {
                KEEP(row, value);
                FAIL_UNLESS(add(value, gap, &chain) == 0);
                chain_row = row + 1;
            }
            else {
                chain_row = -1;
            }
            if (row >= e->query.m)
                return out_of_range("profile row index out of range");
            FAIL_UNLESS(add(score, e->query.profile[row * e->query.alphabet + symbol], &pending)
                        == 0);
            pending_row = row + 1;
            if (pending > best)
                best = pending;
        }
        if (chain_row >= 0) {
            while (chain_row < pending_row) {
                LIMIT(chain_row, limit_value);
                if (chain <= limit_value)
                    break;
                KEEP(chain_row, chain);
                FAIL_UNLESS(add(chain, gap, &chain) == 0);
                chain_row++;
            }
            if (chain_row == pending_row && chain > pending)
                pending = chain;
        }
        /* An empty seed leaves no pending cell (Python's limit[-1] is
         * the sentinel, which 0 never exceeds). */
        if (pending_row >= 0) {
            LIMIT(pending_row, limit_value);
            if (pending > limit_value) {
                KEEP(pending_row, pending);
                FAIL_UNLESS(add(pending, gap, &chain) == 0);
                chain_row = pending_row + 1;
                for (;;) {
                    LIMIT(chain_row, limit_value);
                    if (chain <= limit_value)
                        break;
                    KEEP(chain_row, chain);
                    FAIL_UNLESS(add(chain, gap, &chain) == 0);
                    chain_row++;
                }
            }
        }

        if (best > max_score) {
            max_score = best;
            if (best >= e->min_score) {
                /* The cutoff rose: the survivors face the new limit. */
                cutoff = best;
                in_count = kept_count;
                kept_count = 0;
                for (k = 0; k < in_count; k++) {
                    LIMIT(out_rows[k], limit_value);
                    if (out_scores[k] > limit_value) {
                        out_rows[kept_count] = out_rows[k];
                        out_scores[kept_count] = out_scores[k];
                        kept_count++;
                    }
                }
            }
        }
        in_rows = out_rows;
        in_scores = out_scores;
        in_count = kept_count;
        if (kept_count == 0) {
            walk->finished = 1;
            break;
        }
    }
    walk->rows = in_rows;
    walk->scores = in_scores;
    walk->count = in_count;
    walk->max_score = max_score;
    walk->best = best;
    walk->depth = depth;
    walk->cutoff = cutoff;
    return 0;

error:
    return -1;
}

#undef LIMIT
#undef KEEP

static enum fate
fate_of(const expansion *e, const arc_walk *end, int is_leaf)
{
    if (end->count > 0 && !is_leaf)
        return VIABLE; /* the arc is spelled out and cells are still alive */
    return end->max_score >= e->min_score ? ACCEPTED : DROPPED;
}

/* f of a VIABLE child: the strongest of its live cells plus h of its row. */
static int
viable_bound(const expansion *e, const arc_walk *end, i64 *bound)
{
    i64 candidate;
    Py_ssize_t k;

    *bound = PRUNED;
    for (k = 0; k < end->count; k++) {
        if (end->rows[k] > e->query.m)
            return out_of_range("heuristic index out of range");
        if (add(end->scores[k], e->query.heuristic[end->rows[k]], &candidate) < 0)
            return -1;
        if (k == 0 || candidate > *bound)
            *bound = candidate;
    }
    return 0;
}

static int
append_entry(PyObject *kept, PyObject *entry)
{
    int status;

    if (entry == NULL)
        return -1;
    status = PyList_Append(kept, entry);
    Py_DECREF(entry);
    return status;
}

/* ------------------------------------------------------------------ */
/* The frontier's source: record arrays in memory, or pool pages        */
/* ------------------------------------------------------------------ */

/* The record decoder below is one text compiled once per source: each call
 * site passes ``paged`` as a constant, so the in-memory expansion branches
 * on no source kind per record or word. */
#define PER_SOURCE static inline __attribute__((always_inline))

/* The regions of repro.storage.layout.Region, in its order, and the bytes
 * of one record in each. */
enum { SYMBOLS, INTERNAL, LEAVES, REGIONS };
static const i64 record_bytes[REGIONS] = {1, 4 * sizeof(uint32_t), sizeof(uint32_t)};

/* The slots of BufferPool.counters (repro.storage.buffer_pool). */
enum {
    HAND, FILLED, HITS, MISSES, EVICTIONS,
    REGION_HITS, REGION_MISSES = REGION_HITS + REGIONS,
    READ_NANOSECONDS = REGION_MISSES + REGIONS, COUNTERS
};

/* A buffer pool, as BufferPool.state hands it over: (block file, block
 * size, pages, blocks, referenced, slot_of, counters, spare).  The buffers
 * are held for a call, so they cannot be resized under it; pages and spare
 * (a list of one item: the page the last eviction freed, or None) are
 * lists, read and written only by index, each index checked. */
typedef struct {
    PyObject *file, *pages, *spare; /* borrowed from the state */
    i64 block_size;
    Py_buffer blocks_view, referenced_view, slot_view, counters_view;
    i64 *blocks, *counters;
    unsigned char *referenced;
    int32_t *slot_of;
    i64 frames, block_count;
} pool_view;

static int
open_pool(PyObject *state, pool_view *pool)
{
    memset(pool, 0, sizeof(*pool));
    if (!PyTuple_Check(state) || PyTuple_GET_SIZE(state) != 8
        || !PyList_Check(PyTuple_GET_ITEM(state, 2)) || !PyList_Check(PyTuple_GET_ITEM(state, 7))
        || PyList_GET_SIZE(PyTuple_GET_ITEM(state, 7)) != 1) {
        PyErr_SetString(PyExc_TypeError,
                        "a pool state is (block_file, block_size, pages list, blocks, "
                        "referenced, slot_of, counters, spare list of one item)");
        return -1;
    }
    pool->file = PyTuple_GET_ITEM(state, 0);
    pool->pages = PyTuple_GET_ITEM(state, 2);
    pool->spare = PyTuple_GET_ITEM(state, 7);
    if (int_at(state, 1, "pool state", &pool->block_size) < 0
        || buffer_of(PyTuple_GET_ITEM(state, 3), "q", "the blocks", &pool->blocks_view) < 0
        || buffer_of(PyTuple_GET_ITEM(state, 4), "B", "the reference bits",
                     &pool->referenced_view) < 0
        || buffer_of(PyTuple_GET_ITEM(state, 5), "i", "slot_of", &pool->slot_view) < 0
        || buffer_of(PyTuple_GET_ITEM(state, 6), "q", "the counters", &pool->counters_view) < 0)
        return -1;
    pool->blocks = pool->blocks_view.buf;
    pool->referenced = pool->referenced_view.buf;
    pool->slot_of = pool->slot_view.buf;
    pool->counters = pool->counters_view.buf;
    pool->frames = pool->blocks_view.len / (Py_ssize_t)sizeof(i64);
    pool->block_count = pool->slot_view.len / (Py_ssize_t)sizeof(int32_t);
    if (pool->block_size <= 0 || pool->frames <= 0
        || pool->referenced_view.len != pool->frames
        || PyList_GET_SIZE(pool->pages) != pool->frames
        || pool->counters_view.len != COUNTERS * (Py_ssize_t)sizeof(i64)) {
        PyErr_SetString(PyExc_ValueError, "a pool state whose buffers do not agree");
        return -1;
    }
    return 0;
}

static void
close_pool(pool_view *pool)
{
    PyBuffer_Release(&pool->blocks_view);
    PyBuffer_Release(&pool->referenced_view);
    PyBuffer_Release(&pool->slot_view);
    PyBuffer_Release(&pool->counters_view);
}

static int
broken_pool(void)
{
    PyErr_SetString(PyExc_ValueError, "a pool state with a frame or block out of range");
    return -1;
}

/* Whether ``page`` can be written into: exact bytes of a block, and no
 * reference to it but the one its caller took from the pool.  Never with
 * the GIL disabled, where another thread may take a reference meanwhile. */
static inline int
reusable(const pool_view *pool, PyObject *page)
{
#ifdef Py_GIL_DISABLED
    (void)pool;
    (void)page;
    return 0;
#else
    return PyBytes_CheckExact(page) && Py_REFCNT(page) == 1
           && PyBytes_GET_SIZE(page) == pool->block_size;
#endif
}

/* Frame ``slot`` of the clock gets ``block`` and its page, a new frame
 * while the pool fills, else the clock's victim: BufferPool._install.  The
 * victim's page becomes the spare when the frame held the only reference
 * to it; else the frame's reference is dropped, as the Python body drops it. */
static int
install(pool_view *pool, i64 block, PyObject *data)
{
    i64 *counters = pool->counters, slot = counters[FILLED], victim;
    PyObject *evicted;

    if (slot < 0 || slot > pool->frames || counters[HAND] < 0 || counters[HAND] >= pool->frames
        || PyList_GET_SIZE(pool->pages) != pool->frames)
        return broken_pool();
    if (slot < pool->frames) {
        /* Still filling: the next frame is where the hand would stand. */
        counters[FILLED] = slot + 1;
    }
    else {
        slot = counters[HAND];
        while (pool->referenced[slot]) {
            /* Second chance: clear the bit and advance the hand. */
            pool->referenced[slot] = 0;
            slot = (slot + 1) % pool->frames;
        }
        victim = pool->blocks[slot];
        if (victim < 0 || victim >= pool->block_count)
            return broken_pool();
        pool->slot_of[victim] = -1;
        counters[EVICTIONS]++;
    }
    counters[HAND] = (slot + 1) % pool->frames;
    pool->blocks[slot] = block;
    pool->slot_of[block] = (int32_t)slot;
    pool->referenced[slot] = 1;
    Py_INCREF(data);
    evicted = PyList_GET_ITEM(pool->pages, slot);
    PyList_SET_ITEM(pool->pages, slot, data);
    /* Pages and spares are bytes or None: freeing one runs no Python code. */
    if (PyList_GET_SIZE(pool->spare) == 1 && reusable(pool, evicted))
        PyList_SetItem(pool->spare, 0, evicted);
    else
        Py_XDECREF(evicted);
    return 0;
}

/* The spare page, taken from the pool, if nothing else holds it: a new
 * reference whose cached hash is forgotten, since its bytes are about to
 * change.  NULL, and no error, when there is none to take. */
static PyObject *
take_spare(pool_view *pool)
{
    PyObject *spare;

    if (PyList_GET_SIZE(pool->spare) != 1)
        return NULL;
    spare = PyList_GET_ITEM(pool->spare, 0);
    if (!reusable(pool, spare))
        return NULL;
    Py_INCREF(Py_None);
    PyList_SET_ITEM(pool->spare, 0, Py_None);
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"
    ((PyBytesObject *)spare)->ob_shash = -1;
#pragma GCC diagnostic pop
    return spare;
}

/* The frame holding ``block``, -1 if none. */
static inline i64
resident_slot(const pool_view *pool, i64 block)
{
    return block >= 0 && block < pool->block_count ? pool->slot_of[block] : -1;
}

/* Block ``block`` of ``region``: one request, BufferPool.page.  A hit sets
 * the frame's reference bit.  A miss counts (a failed read too) and reads
 * the block with the GIL released, into the spare page if nothing else
 * holds it, else into new bytes; then it looks the block up again --
 * another thread may have installed it meanwhile -- and installs it if
 * not.  A new reference to the page's bytes. */
static PyObject *
pool_request(step_state *state, pool_view *pool, int region, i64 block)
{
    i64 *counters = pool->counters, slot = resident_slot(pool, block);
    PyObject *data, *descriptor, *path;
    struct timespec started, stopped;
    Py_ssize_t got;
    int fd;

    if (slot >= 0) {
        data = slot < pool->frames && slot < PyList_GET_SIZE(pool->pages)
                   ? PyList_GET_ITEM(pool->pages, slot)
                   : NULL;
        if (data == NULL || !PyBytes_Check(data) || PyBytes_GET_SIZE(data) != pool->block_size) {
            broken_pool();
            return NULL;
        }
        pool->referenced[slot] = 1;
        counters[HITS]++;
        counters[REGION_HITS + region]++;
        Py_INCREF(data);
        return data;
    }
    counters[MISSES]++;
    counters[REGION_MISSES + region]++;
    descriptor = PyObject_GetAttr(pool->file, state->descriptor);
    if (descriptor == NULL)
        return NULL;
    if (descriptor == Py_None) {
        Py_DECREF(descriptor);
        PyErr_SetString(PyExc_ValueError, "read from a closed block file");
        return NULL;
    }
    fd = (int)PyLong_AsLong(descriptor);
    Py_DECREF(descriptor);
    if (fd == -1 && PyErr_Occurred())
        return NULL;
    if (block > LLONG_MAX / pool->block_size) {
        PyErr_SetString(PyExc_OverflowError, "a block past any file offset");
        return NULL;
    }
    data = take_spare(pool);
    if (data == NULL)
        data = PyBytes_FromStringAndSize(NULL, (Py_ssize_t)pool->block_size);
    if (data == NULL)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    clock_gettime(CLOCK_MONOTONIC, &started);
    do
        got = pread(fd, PyBytes_AS_STRING(data), (size_t)pool->block_size,
                    (off_t)(block * pool->block_size));
    while (got < 0 && errno == EINTR);
    clock_gettime(CLOCK_MONOTONIC, &stopped);
    Py_END_ALLOW_THREADS
    counters[READ_NANOSECONDS] += (i64)(stopped.tv_sec - started.tv_sec) * 1000000000LL
                                  + (stopped.tv_nsec - started.tv_nsec);
    if (got < 0) {
        PyErr_SetFromErrno(PyExc_OSError);
        goto error;
    }
    if (got != pool->block_size || block >= pool->block_count) {
        path = PyObject_GetAttr(pool->file, state->path);
        if (path == NULL)
            goto error;
        if (got != pool->block_size)
            PyErr_Format(PyExc_ValueError,
                         "%S: block %lld reads %zd of %lld bytes -- the file is cut short", path,
                         block, got, pool->block_size);
        else
            PyErr_Format(PyExc_ValueError,
                         "%S: block %lld is past the %lld blocks the pool was built over", path,
                         block, pool->block_count);
        Py_DECREF(path);
        goto error;
    }
    slot = resident_slot(pool, block);
    if (slot >= pool->frames) {
        broken_pool();
        goto error;
    }
    if (slot >= 0)
        pool->referenced[slot] = 1;
    else if (install(pool, block, data) < 0)
        goto error;
    return data;

error:
    Py_DECREF(data);
    return NULL;
}

/* page(state, block, region) -> bytes: BufferPool.page, bound to a pool's
 * state with functools.partial. */
static PyObject *
pool_page(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    pool_view pool;
    PyObject *data = NULL;
    i64 block, region;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "page(state, block, region) takes 3 arguments");
        return NULL;
    }
    block = PyLong_AsLongLong(args[1]);
    if (block == -1 && PyErr_Occurred())
        return NULL;
    if (as_score(args[2], &region) < 0)
        return NULL;
    if (region < 0 || region >= REGIONS) {
        PyErr_SetString(PyExc_ValueError, "a region is 0, 1 or 2");
        return NULL;
    }
    if (open_pool(args[0], &pool) == 0)
        data = pool_request(PyModule_GetState(module), &pool, (int)region, block);
    close_pool(&pool);
    return data;
}

/* The page of one region a call reads from, and the block it is. */
typedef struct {
    PyObject *owner; /* paged: a strong reference to the page's bytes */
    const unsigned char *bytes;
    i64 block;       /* -1 before the first request */
} page_held;

/* Where the frontier reads a node's records and arcs.  In memory each
 * region is one page: the whole record array (native words) or the codes.
 * Paged, a page is one block of the image, asked of the buffer pool as
 * DiskSuffixTree._read asks for it, and its words are little-endian. */
typedef struct {
    int paged;
    i64 start[REGIONS];      /* paged: the region's first block in the file */
    i64 page_bytes[REGIONS]; /* payload bytes of a page (whole records) */
    i64 count[REGIONS];      /* symbols, internal records, leaf records */
    page_held pages[REGIONS];
    Py_buffer internal_view, leaf_view, ends_view;
    const uint32_t *ends;
    Py_ssize_t end_count;
    pool_view pool; /* paged */
    step_state *state;
} node_source;

static int
read_ends(node_source *s, PyObject *ends)
{
    if (words_of(ends, "sequence_ends", &s->ends_view) < 0)
        return -1;
    s->ends = s->ends_view.buf;
    s->end_count = s->ends_view.len / (Py_ssize_t)sizeof(uint32_t);
    return 0;
}

/* (internal_records, leaf_records, codes, sequence_ends): in memory. */
static int
open_arrays(node_source *s, PyObject *records)
{
    PyObject *codes = PyTuple_GET_ITEM(records, 2);
    int region;

    if (!PyBytes_Check(codes)) {
        PyErr_Format(PyExc_TypeError, "the codes must be bytes, not %.100s",
                     Py_TYPE(codes)->tp_name);
        return -1;
    }
    if (words_of(PyTuple_GET_ITEM(records, 0), "internal_records", &s->internal_view) < 0
        || words_of(PyTuple_GET_ITEM(records, 1), "leaf_records", &s->leaf_view) < 0
        || read_ends(s, PyTuple_GET_ITEM(records, 3)) < 0)
        return -1;
    s->pages[SYMBOLS].bytes = (const unsigned char *)PyBytes_AS_STRING(codes);
    s->page_bytes[SYMBOLS] = PyBytes_GET_SIZE(codes);
    s->pages[INTERNAL].bytes = s->internal_view.buf;
    s->page_bytes[INTERNAL] = s->internal_view.len;
    s->pages[LEAVES].bytes = s->leaf_view.buf;
    s->page_bytes[LEAVES] = s->leaf_view.len;
    for (region = 0; region < REGIONS; region++)
        s->count[region] = s->page_bytes[region] / record_bytes[region];
    return 0;
}

/* (pool state, regions, sequence_ends), regions one (first block, page
 * bytes, record count) per region: paged. */
static int
open_pages(node_source *s, PyObject *records)
{
    PyObject *regions = PyTuple_GET_ITEM(records, 1), *region_tuple, *descriptor;
    int region;

    s->paged = 1;
    if (open_pool(PyTuple_GET_ITEM(records, 0), &s->pool) < 0
        || require_sequence(regions, "the regions") < 0)
        return -1;
    for (region = 0; region < REGIONS; region++) {
        region_tuple = item_at(regions, region, "regions");
        if (region_tuple == NULL || require_sequence(region_tuple, "a region") < 0
            || int_at(region_tuple, 0, "region", &s->start[region]) < 0
            || int_at(region_tuple, 1, "region", &s->page_bytes[region]) < 0
            || int_at(region_tuple, 2, "region", &s->count[region]) < 0)
            return -1;
        if (s->page_bytes[region] < record_bytes[region]
            || s->page_bytes[region] % record_bytes[region] != 0
            || s->page_bytes[region] > s->pool.block_size) {
            PyErr_SetString(PyExc_ValueError,
                            "a page holds no whole number of records, or more than a block");
            return -1;
        }
        s->pages[region].block = -1;
    }
    if (read_ends(s, PyTuple_GET_ITEM(records, 2)) < 0)
        return -1;
    /* A closed cursor makes no request, resident page or not. */
    descriptor = PyObject_GetAttr(s->pool.file, s->state->descriptor);
    if (descriptor == NULL)
        return -1;
    Py_DECREF(descriptor);
    if (descriptor == Py_None) {
        PyErr_SetString(PyExc_ValueError, "read from a closed block file");
        return -1;
    }
    return 0;
}

/* ``records`` as a source; close_source releases what it holds, whether
 * this succeeded or not. */
static int
open_source(step_state *state, PyObject *records, node_source *s)
{
    memset(s, 0, sizeof(*s));
    s->state = state;
    if (PyTuple_Check(records) && PyTuple_GET_SIZE(records) == 4)
        return open_arrays(s, records);
    if (PyTuple_Check(records) && PyTuple_GET_SIZE(records) == 3)
        return open_pages(s, records);
    PyErr_SetString(PyExc_TypeError,
                    "records must be a tree's node_records: (internal_records, leaf_records, "
                    "codes, sequence_ends) or a page source");
    return -1;
}

/* Forget the pages held, so that the next node's reads request them again,
 * as DiskSuffixTree.siblings does for each node. */
static void
drop_pages(node_source *s)
{
    int region;

    for (region = 0; region < REGIONS; region++) {
        Py_CLEAR(s->pages[region].owner);
        s->pages[region].block = -1;
    }
}

/* Drop the call's pages and buffers; a second call does nothing. */
static void
close_source(node_source *s)
{
    drop_pages(s);
    PyBuffer_Release(&s->internal_view);
    PyBuffer_Release(&s->leaf_view);
    PyBuffer_Release(&s->ends_view);
    close_pool(&s->pool);
}

/* Block ``block`` of ``region`` into its page: one request of a paged
 * source, held until the next request of its region replaces it. */
static int
request(node_source *s, int region, i64 block)
{
    page_held *p = &s->pages[region];
    PyObject *data = pool_request(s->state, &s->pool, region, s->start[region] + block);

    if (data == NULL)
        return -1;
    Py_XDECREF(p->owner);
    p->owner = data;
    p->bytes = (const unsigned char *)PyBytes_AS_STRING(data);
    p->block = block;
    return 0;
}

/* Record ``index`` of ``region``, from the page already held when it lies
 * there, else from a request for its own; IndexError (``what``) past the
 * region, before any request. */
PER_SOURCE const unsigned char *
record_at(node_source *s, const int paged, int region, i64 index, const char *what)
{
    i64 at, block;

    if (index < 0 || index >= s->count[region]) {
        out_of_range(what);
        return NULL;
    }
    at = index * record_bytes[region];
    if (!paged)
        return s->pages[region].bytes + at; /* the region is one page */
    block = at / s->page_bytes[region];
    if (block != s->pages[region].block && request(s, region, block) < 0)
        return NULL;
    return s->pages[region].bytes + (at - block * s->page_bytes[region]);
}

/* Word ``word`` of the record at ``at``. */
PER_SOURCE i64
word_at(const int paged, const unsigned char *at, int word)
{
    const unsigned char *bytes = at + word * sizeof(uint32_t);
    uint32_t value;

    if (!paged) {
        memcpy(&value, bytes, sizeof(value));
        return value;
    }
    return (i64)((uint32_t)bytes[0] | (uint32_t)bytes[1] << 8 | (uint32_t)bytes[2] << 16
                 | (uint32_t)bytes[3] << 24);
}

/* One decoded child: what its handle holds, whether it is a leaf, and a
 * leaf's sequence. */
typedef struct {
    i64 value, arc_start, length, depth;
    Py_ssize_t sequence;
    int leaf;
} child_record;

/* The children of one node, in the frontier's scratch. */
typedef struct {
    child_record *items;
    Py_ssize_t count, capacity;
    child_record local[64];
} child_list;

static int
push_child(child_list *children, i64 value, i64 arc_start, i64 length, i64 depth,
           Py_ssize_t sequence, int leaf)
{
    child_record *grown;

    if (children->count == children->capacity) {
        if (children->items == children->local) {
            grown = PyMem_New(child_record, 2 * children->capacity);
            if (grown != NULL)
                memcpy(grown, children->local, sizeof(children->local));
        }
        else {
            grown = PyMem_Resize(children->items, child_record, 2 * children->capacity);
        }
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        children->items = grown;
        children->capacity *= 2;
    }
    children->items[children->count++] =
        (child_record){value, arc_start, length, depth, sequence, leaf};
    return 0;
}

/* bisect_right(sequence_ends, start): suffix ``start`` lies in the first
 * sequence whose end is above it.  IndexError past the last end. */
static int
sequence_of(const node_source *s, i64 start, Py_ssize_t *sequence)
{
    Py_ssize_t low = 0, high = s->end_count, middle;

    while (low < high) {
        middle = low + (high - low) / 2;
        if (start < (i64)s->ends[middle])
            high = middle;
        else
            low = middle + 1;
    }
    if (low == s->end_count)
        return out_of_range("a suffix past the last sequence end");
    *sequence = low;
    return 0;
}

/* Internal ``node``'s run of internal children, then its run of leaves,
 * decoded record by record as GeneralizedSuffixTree.children decodes them
 * (a leaf's sequence end by bisection).  Paged, the requests are those of
 * DiskSuffixTree._read: the parent's page, the internal run's pages (none
 * new while the run stays on the parent's block), the leaf run's pages. */
PER_SOURCE int
decode_children(node_source *s, const int paged, i64 node, child_list *children)
{
    const unsigned char *at;
    i64 depth, child, leaf, word, child_depth, arc_start, start, length;
    Py_ssize_t sequence;

    at = record_at(s, paged, INTERNAL, node, "a node index past the internal records");
    if (at == NULL)
        return -1;
    depth = word_at(paged, at, 0) & VALUE_MASK;
    child = word_at(paged, at, 2);
    leaf = word_at(paged, at, 3);
    while (child != NO_POINTER) {
        at = record_at(s, paged, INTERNAL, child, "a child pointer past the internal records");
        if (at == NULL)
            return -1;
        word = word_at(paged, at, 0);
        child_depth = word & VALUE_MASK;
        arc_start = word_at(paged, at, 1);
        if (child_depth < depth || arc_start + child_depth - depth > s->count[SYMBOLS])
            return out_of_range("an arc past the symbol array");
        if (push_child(children, child, arc_start, child_depth - depth, child_depth, -1, 0) < 0)
            return -1;
        child = word & LAST_SIBLING_BIT ? NO_POINTER : child + 1;
    }
    while (leaf != NO_POINTER) {
        at = record_at(s, paged, LEAVES, leaf, "a leaf index past the leaf records");
        if (at == NULL)
            return -1;
        word = word_at(paged, at, 0);
        start = word & VALUE_MASK;
        if (sequence_of(s, start, &sequence) < 0)
            return -1;
        length = (i64)s->ends[sequence] - start;
        if (length < depth || (i64)s->ends[sequence] > s->count[SYMBOLS])
            return out_of_range("an arc past the symbol array");
        if (push_child(children, start, start + depth, length - depth, length, sequence, 1) < 0)
            return -1;
        leaf = word & LAST_SIBLING_BIT ? NO_POINTER : leaf + 1;
    }
    return 0;
}

/* The walk down one child's arc, a page at a time: 0, or 1 for a child
 * whose first symbol ``owned`` (a partition root's symbols, NULL for all)
 * leaves out, over which no column is walked.  Paged, every page of the
 * arc is requested, as DiskSuffixTree._read slices it, even once the walk
 * has finished or for a child left out; in memory the arc is one piece of
 * the codes. */
PER_SOURCE int
walk_child(node_source *s, const int paged, const expansion *e, const child_record *child,
           const unsigned char *owned, arc_walk *walk)
{
    i64 at = child->arc_start, remaining = child->length, block, offset, piece;
    const i64 page_bytes = s->page_bytes[SYMBOLS];
    const unsigned char *codes;
    int left_out = 0;

    begin_arc(e, walk);
    if (owned != NULL && remaining == 0)
        return out_of_range("an empty arc below the root");
    if (!paged) { /* the codes are one page */
        codes = s->pages[SYMBOLS].bytes + at;
        if (owned != NULL && !owned[codes[0]])
            return 1;
        return walk_arc(e, walk, codes, (Py_ssize_t)remaining);
    }
    while (remaining > 0) {
        block = at / page_bytes;
        offset = at - block * page_bytes;
        piece = page_bytes - offset < remaining ? page_bytes - offset : remaining;
        if (request(s, SYMBOLS, block) < 0)
            return -1;
        codes = s->pages[SYMBOLS].bytes + offset;
        if (owned != NULL && at == child->arc_start && !owned[codes[0]]) {
            left_out = 1;
            walk->finished = 1; /* its pages are still requested */
        }
        if (walk_arc(e, walk, codes, (Py_ssize_t)piece) < 0)
            return -1;
        at += piece;
        remaining -= piece;
    }
    return left_out;
}

/* ------------------------------------------------------------------ */
/* The frontier: Algorithm 1's priority queue, and the loop around it   */
/* ------------------------------------------------------------------ */

/* What advance() returns when it stops short of a hit: repro.core.frontier's
 * EMPTY, BELOW_FLOOR and PAUSED. */
enum { EMPTY, BELOW_FLOOR, PAUSED };

/* One frontier entry, the C form of (-f, flag, counter, tree_node, column,
 * max_score, depth): the handle as its kind and four ints, the column as
 * a slice of the frontier's cell arena. */
typedef struct {
    i64 key;          /* -f */
    i64 counter;      /* the enqueue number */
    i64 handle[4];
    i64 max_score, depth;
    Py_ssize_t cells; /* the column's rows from here in the arena, then its scores */
    Py_ssize_t count; /* its live cells; -1 once the column is discarded */
    int flag;         /* ACCEPTED_FIRST or VIABLE_AFTER */
    int leaf;         /* the handle's kind: "L", else "I" */
} c_entry;

typedef struct {
    PyObject_HEAD
    PyObject *module, *records, *popped; /* popped: a list, or NULL */
    expansion e;        /* the query's constants, built once; e.counter numbers entries */
    c_entry *heap;      /* a binary min-heap on (key, flag, counter) */
    Py_ssize_t size, heap_capacity;
    c_entry *staged;    /* one expansion's kept children, before they are pushed */
    Py_ssize_t staged_capacity;
    i64 *arena;         /* the queued columns; a popped one's cells are garbage */
    Py_ssize_t arena_used, arena_capacity, live_cells;
    i64 *seed;          /* the column being expanded, copied out of the arena */
    Py_ssize_t seed_capacity;
    child_list children; /* one node's, decoded for an expansion or a leaf walk */
    i64 *pending;       /* the leaf walk's internal nodes still to decode */
    Py_ssize_t pending_capacity;
    unsigned char *reported; /* per sequence: reported by an earlier hit */
    Py_ssize_t sequence_count;
    Py_ssize_t *found;  /* one hit's sequences not reported before */
    Py_ssize_t found_count, found_capacity;
    i64 columns_expanded, nodes_dropped, nodes_expanded, nodes_accepted, max_queue_size;
    int busy;
    int partition;          /* the root, not yet expanded, is a partition's */
    unsigned char owned[256]; /* the partition's first symbols */
} frontier_object;

static inline int
entry_before(const c_entry *a, const c_entry *b)
{
    if (a->key != b->key)
        return a->key < b->key;
    if (a->flag != b->flag)
        return a->flag < b->flag;
    return a->counter < b->counter;
}

/* Room for ``more`` items in a PyMem array of ``size`` items. */
static int
reserve(void **items, Py_ssize_t *capacity, Py_ssize_t size, Py_ssize_t more, size_t item)
{
    Py_ssize_t wanted = *capacity > 0 ? *capacity : 64;
    void *grown;

    if (size + more <= *capacity)
        return 0;
    while (wanted < size + more)
        wanted *= 2;
    if ((size_t)wanted > PY_SSIZE_T_MAX / item || (grown = PyMem_Realloc(*items, wanted * item)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *items = grown;
    *capacity = wanted;
    return 0;
}

/* Push an entry whose room is reserved. */
static void
heap_push(frontier_object *self, const c_entry *entry)
{
    Py_ssize_t at = self->size++, parent;

    while (at > 0) {
        parent = (at - 1) / 2;
        if (!entry_before(entry, &self->heap[parent]))
            break;
        self->heap[at] = self->heap[parent];
        at = parent;
    }
    self->heap[at] = *entry;
    if (entry->count > 0)
        self->live_cells += entry->count;
}

/* Pop the least entry of a heap that holds one into ``top``. */
static void
heap_pop(frontier_object *self, c_entry *top)
{
    c_entry last;
    Py_ssize_t at = 0, child, size;

    *top = self->heap[0];
    if (top->count > 0)
        self->live_cells -= top->count;
    size = --self->size;
    if (size == 0)
        return;
    last = self->heap[size];
    for (;;) {
        child = 2 * at + 1;
        if (child >= size)
            break;
        if (child + 1 < size && entry_before(&self->heap[child + 1], &self->heap[child]))
            child++;
        if (!entry_before(&self->heap[child], &last))
            break;
        self->heap[at] = self->heap[child];
        at = child;
    }
    self->heap[at] = last;
}

/* The rows and scores of ``count`` cells appended to the arena. */
static int
arena_append(frontier_object *self, const i64 *rows, const i64 *scores, Py_ssize_t count,
             Py_ssize_t *cells)
{
    if (reserve((void **)&self->arena, &self->arena_capacity, self->arena_used, 2 * count,
                sizeof(i64)) < 0)
        return -1;
    *cells = self->arena_used;
    memcpy(self->arena + *cells, rows, count * sizeof(i64));
    memcpy(self->arena + *cells + count, scores, count * sizeof(i64));
    self->arena_used += 2 * count;
    return 0;
}

/* When popped columns hold most of the arena, the queued ones move to a
 * fresh arena of twice their size: the arena stays within a small factor
 * of what the queue holds, as the Python frontier's lists do. */
static int
arena_compact(frontier_object *self)
{
    Py_ssize_t capacity = 4 * self->live_cells, used = 0, k;
    c_entry *entry;
    i64 *fresh;

    if (self->arena_used <= 4096 || self->arena_used <= capacity)
        return 0;
    if (capacity < 1024)
        capacity = 1024;
    fresh = PyMem_New(i64, capacity);
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (k = 0; k < self->size; k++) {
        entry = &self->heap[k];
        if (entry->count <= 0)
            continue;
        memcpy(fresh + used, self->arena + entry->cells, 2 * entry->count * sizeof(i64));
        entry->cells = used;
        used += 2 * entry->count;
    }
    PyMem_Free(self->arena);
    self->arena = fresh;
    self->arena_capacity = capacity;
    self->arena_used = used;
    return 0;
}

/* Expand ``parent``: decode its children, walk each arc -- only those of
 * the children whose first symbol ``owned`` holds, unless it is NULL -- and
 * push the kept children, each put in a C entry where _expand_live builds a
 * tuple.  The children are pushed and the counters moved only once every
 * child is walked, so an error leaves the queue as the Python frontier
 * leaves it: without the parent and without its children. */
PER_SOURCE int
frontier_expand(frontier_object *self, node_source *s, const int paged, const c_entry *parent,
                const unsigned char *owned)
{
    expansion *e = &self->e;
    arc_walk walk;
    const child_record *child;
    c_entry *entry;
    i64 counter = e->counter, columns = 0, dropped = 0, bound;
    Py_ssize_t index, staged = 0, mark, count = parent->count, k;
    enum fate fate;
    int left_out;

    if (reserve((void **)&self->seed, &self->seed_capacity, 0, 2 * count + 1, sizeof(i64)) < 0)
        return -1;
    memcpy(self->seed, self->arena + parent->cells, 2 * count * sizeof(i64));
    e->seed_rows = self->seed;
    e->seed_scores = self->seed + count;
    e->seed_count = count;
    set_parent(e, parent->max_score, parent->depth);
    if (arena_compact(self) < 0)
        return -1;
    mark = self->arena_used;

    self->children.count = 0;
    if (paged)
        drop_pages(s);
    if (!parent->leaf && decode_children(s, paged, parent->handle[0], &self->children) < 0)
        goto error;
    for (index = 0; index < self->children.count; index++) {
        child = &self->children.items[index];
        left_out = walk_child(s, paged, e, child, owned, &walk);
        if (left_out < 0)
            goto error;
        if (left_out)
            continue;
        columns += walk.depth - e->parent_depth;
        fate = fate_of(e, &walk, child->leaf);
        if (fate == DROPPED) {
            dropped++;
            continue;
        }
        if (reserve((void **)&self->staged, &self->staged_capacity, staged, 1, sizeof(c_entry)) < 0)
            goto error;
        entry = &self->staged[staged];
        entry->count = -1;
        entry->cells = 0;
        if (fate == VIABLE) {
            if (viable_bound(e, &walk, &bound) < 0
                || arena_append(self, walk.rows, walk.scores, walk.count, &entry->cells) < 0)
                goto error;
            entry->key = -bound;
            entry->flag = VIABLE_AFTER;
            entry->count = walk.count;
        }
        else {
            /* Finished: f collapses to max_score and the column is discarded. */
            entry->key = -walk.max_score;
            entry->flag = ACCEPTED_FIRST;
        }
        entry->counter = ++counter;
        entry->handle[0] = child->value;
        entry->handle[1] = child->arc_start;
        entry->handle[2] = child->length;
        entry->handle[3] = child->depth;
        entry->leaf = child->leaf;
        entry->max_score = walk.max_score;
        entry->depth = walk.depth;
        staged++;
    }
    if (reserve((void **)&self->heap, &self->heap_capacity, self->size, staged, sizeof(c_entry)) < 0)
        goto error;
    for (k = 0; k < staged; k++)
        heap_push(self, &self->staged[k]);
    e->counter = counter;
    self->columns_expanded += columns;
    self->nodes_dropped += dropped;
    return 0;

error:
    self->arena_used = mark;
    return -1;
}

/* Sequence ``sequence`` into the hit being gathered, unless an earlier hit
 * reported it. */
static int
note_sequence(frontier_object *self, Py_ssize_t sequence)
{
    if (sequence >= self->sequence_count)
        return out_of_range("a sequence past the ends the frontier was made over");
    if (self->reported[sequence])
        return 0;
    if (reserve((void **)&self->found, &self->found_capacity, self->found_count, 1,
                sizeof(Py_ssize_t)) < 0)
        return -1;
    self->reported[sequence] = 1;
    self->found[self->found_count++] = sequence;
    return 0;
}

/* Forget the hit being gathered: its sequences are not reported. */
static void
drop_found(frontier_object *self)
{
    Py_ssize_t k;

    for (k = 0; k < self->found_count; k++)
        self->reported[self->found[k]] = 0;
    self->found_count = 0;
}

static int
ascending(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;

    return (x > y) - (x < y);
}

/* The sequences below ACCEPTED ``entry`` that no earlier hit reported,
 * marked reported and left ascending in self->found: cursor.sequences_below
 * less the reported ones.  A leaf is its own sequence.  Below an internal
 * node the walk is DiskSuffixTree.leaf_positions': each internal node in
 * pre-order decoded anew as children() decodes it, so a paged source makes
 * the same requests in the same order, and every leaf of every run is read
 * whether or not its sequence is new.  An error leaves nothing marked. */
PER_SOURCE int
walk_leaves(frontier_object *self, node_source *s, const int paged, const c_entry *entry)
{
    child_list *children = &self->children;
    const child_record *child;
    Py_ssize_t sequence, waiting = 0, k;

    self->found_count = 0;
    if (entry->leaf) {
        if (sequence_of(s, entry->handle[0], &sequence) < 0 || note_sequence(self, sequence) < 0)
            goto error;
        return 0;
    }
    if (reserve((void **)&self->pending, &self->pending_capacity, 0, 1, sizeof(i64)) < 0)
        goto error;
    self->pending[waiting++] = entry->handle[0];
    while (waiting > 0) {
        if (paged)
            drop_pages(s);
        children->count = 0;
        if (decode_children(s, paged, self->pending[--waiting], children) < 0)
            goto error;
        /* Last child first onto the stack, so that the first is decoded next. */
        for (k = children->count - 1; k >= 0; k--) {
            child = &children->items[k];
            if (child->leaf) {
                if (note_sequence(self, child->sequence) < 0)
                    goto error;
            }
            else {
                if (reserve((void **)&self->pending, &self->pending_capacity, waiting, 1,
                            sizeof(i64)) < 0)
                    goto error;
                self->pending[waiting++] = child->value;
            }
        }
    }
    qsort(self->found, self->found_count, sizeof(Py_ssize_t), ascending);
    return 0;

error:
    drop_found(self);
    return -1;
}

/* (score, [sequence, ...]) of the hit in self->found; on failure its
 * sequences are not reported. */
static PyObject *
hit_step(frontier_object *self, i64 score)
{
    PyObject *sequences = PyList_New(self->found_count), *value, *step = NULL;
    Py_ssize_t k;

    if (sequences != NULL) {
        for (k = 0; k < self->found_count; k++) {
            value = PyLong_FromSsize_t(self->found[k]);
            if (value == NULL) {
                Py_CLEAR(sequences);
                break;
            }
            PyList_SET_ITEM(sequences, k, value);
        }
    }
    value = sequences == NULL ? NULL : PyLong_FromLongLong(score);
    if (value != NULL)
        step = PyTuple_Pack(2, value, sequences);
    Py_XDECREF(value);
    Py_XDECREF(sequences);
    if (step == NULL)
        drop_found(self);
    return step;
}

/* A C entry's handle, as GeneralizedSuffixTree.children builds it. */
static PyObject *
entry_handle(step_state *state, const c_entry *entry)
{
    return node_handle(entry->leaf ? state->leaf_kind : state->internal_kind, entry->handle[0],
                       entry->handle[1], entry->handle[2], entry->handle[3]);
}

/* The popped entry as the Python frontier's tuple, appended to ``popped``:
 * the test view of the pop sequence. */
static int
record_pop(frontier_object *self, step_state *state, const c_entry *entry)
{
    PyObject *handle = entry_handle(state, entry), *column;
    int status;

    if (handle == NULL)
        return -1;
    if (entry->count < 0) {
        Py_INCREF(Py_None);
        column = Py_None;
    }
    else {
        column = column_list(self->arena + entry->cells, self->arena + entry->cells + entry->count,
                             entry->count);
        if (column == NULL) {
            Py_DECREF(handle);
            return -1;
        }
    }
    status = append_entry(self->popped, frontier_entry(-entry->key, entry->flag, entry->counter,
                                                       handle, column, entry->max_score,
                                                       entry->depth));
    Py_DECREF(handle);
    return status;
}

/* Algorithm 2's seed: node ``root`` (a handle) under the bound h[0] with
 * the root column -- a zero in every row whose h reaches min_score -- as
 * entry number 0, the path's max_score 0; no entry where h[0] is below
 * min_score, since then nothing can reach it. */
static int
seed_root(frontier_object *self, PyObject *root)
{
    const expansion *e = &self->e;
    c_entry entry;
    PyObject *kind;
    Py_ssize_t slot, row, count = 0;

    memset(&entry, 0, sizeof(entry));
    if (require_sequence(root, "a node handle") < 0)
        return -1;
    kind = Py_SIZE(root) == 5 ? item_at(root, 0, "node handle") : NULL;
    if (kind == NULL || !PyUnicode_Check(kind)
        || (PyUnicode_CompareWithASCIIString(kind, "I") != 0
            && PyUnicode_CompareWithASCIIString(kind, "L") != 0)) {
        PyErr_Clear();
        PyErr_SetString(PyExc_ValueError, "a node handle is ('I' or 'L', four ints)");
        return -1;
    }
    entry.leaf = PyUnicode_CompareWithASCIIString(kind, "L") == 0;
    for (slot = 0; slot < 4; slot++)
        if (int_at(root, slot + 1, "node handle", &entry.handle[slot]) < 0)
            return -1;
    if (e->query.heuristic[0] < e->min_score)
        return 0;
    for (row = 0; row <= e->query.m; row++)
        count += e->query.heuristic[row] >= e->min_score;
    if (reserve((void **)&self->arena, &self->arena_capacity, self->arena_used, 2 * count,
                sizeof(i64)) < 0
        || reserve((void **)&self->heap, &self->heap_capacity, self->size, 1, sizeof(c_entry)) < 0)
        return -1;
    entry.cells = self->arena_used;
    for (row = 0; row <= e->query.m; row++) {
        if (e->query.heuristic[row] >= e->min_score) {
            self->arena[self->arena_used] = row;
            self->arena[self->arena_used + count] = 0;
            self->arena_used++;
        }
    }
    self->arena_used += count;
    entry.count = count;
    entry.key = -e->query.heuristic[0];
    entry.flag = VIABLE_AFTER;
    entry.depth = entry.handle[3];
    heap_push(self, &entry);
    return 0;
}

static void
frontier_dealloc(frontier_object *self)
{
    PyTypeObject *type = Py_TYPE(self);

    PyMem_Free(self->e.memory);
    PyMem_Free(self->heap);
    PyMem_Free(self->staged);
    PyMem_Free(self->arena);
    PyMem_Free(self->seed);
    PyMem_Free(self->pending);
    PyMem_Free(self->reported);
    PyMem_Free(self->found);
    if (self->children.items != self->children.local)
        PyMem_Free(self->children.items);
    Py_XDECREF(self->module);
    Py_XDECREF(self->records);
    Py_XDECREF(self->popped);
    type->tp_free((PyObject *)self);
    Py_DECREF(type);
}

static PyObject *
frontier_refuse(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    PyErr_SetString(PyExc_TypeError,
                    "a frontier is made by frontier(records, context, root, root_symbols)");
    return NULL;
}

static Py_ssize_t
frontier_length(frontier_object *self)
{
    return self->size;
}

/* advance(bound_floor, budget): pop and expand until an ACCEPTED entry
 * with a sequence no earlier hit reported surfaces -- (score, ascending
 * sequence indices) -- or the top bound is below bound_floor (None: no
 * floor), ``budget`` pops have passed, or the queue is empty.  An ACCEPTED
 * pop whose sequences were all reported counts against the budget like any
 * other.  The source is opened for the call: its buffers are held while it
 * runs, and a closed block file fails it before any request. */
static PyObject *
frontier_advance(frontier_object *self, PyObject *const *args, Py_ssize_t nargs)
{
    step_state *state;
    node_source source;
    c_entry top;
    PyObject *result = NULL;
    const unsigned char *owned;
    i64 floor = 0, budget, pops;
    int has_floor, code = PAUSED, failed = 0;

    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "advance(bound_floor, budget) takes 2 arguments");
        return NULL;
    }
    if (self->module == NULL) {
        PyErr_SetString(PyExc_TypeError,
                    "a frontier is made by frontier(records, context, root, root_symbols)");
        return NULL;
    }
    has_floor = args[0] != Py_None;
    if ((has_floor && as_score(args[0], &floor) < 0) || as_score(args[1], &budget) < 0)
        return NULL;
    if (budget < 1) {
        PyErr_SetString(PyExc_ValueError, "the budget is at least one pop");
        return NULL;
    }
    if (self->busy) {
        /* A pool miss releases the GIL in the middle of a call. */
        PyErr_SetString(PyExc_RuntimeError, "the frontier is already advancing");
        return NULL;
    }
    state = PyModule_GetState(self->module);
    self->busy = 1;
    if (open_source(state, self->records, &source) < 0) {
        close_source(&source);
        self->busy = 0;
        return NULL;
    }
    for (pops = 0; pops < budget; pops++) {
        if (self->size == 0) {
            code = EMPTY;
            break;
        }
        if (self->size > self->max_queue_size)
            self->max_queue_size = self->size;
        if (has_floor && -self->heap[0].key < floor) {
            code = BELOW_FLOOR;
            break;
        }
        heap_pop(self, &top);
        if (self->popped != NULL && record_pop(self, state, &top) < 0) {
            failed = 1;
            break;
        }
        if (top.flag == ACCEPTED_FIRST) {
            self->nodes_accepted++;
            if ((source.paged ? walk_leaves(self, &source, 1, &top)
                              : walk_leaves(self, &source, 0, &top)) < 0) {
                failed = 1;
                break;
            }
            if (self->found_count == 0)
                continue; /* every sequence below was reported before */
            /* Only a hit becomes Python objects. */
            result = hit_step(self, top.max_score);
            failed = result == NULL;
            break;
        }
        self->nodes_expanded++;
        /* The first node expanded is the root: a partition's takes only its
         * own children. */
        owned = self->partition ? self->owned : NULL;
        self->partition = 0;
        if ((source.paged ? frontier_expand(self, &source, 1, &top, owned)
                          : frontier_expand(self, &source, 0, &top, owned)) < 0) {
            failed = 1;
            break;
        }
    }
    self->busy = 0;
    close_source(&source);
    if (failed)
        return NULL;
    return result != NULL ? result : PyLong_FromLong(code);
}

/* frontier(records, context, root, root_symbols[, popped]): the queue
 * over a cursor's node_records, seeded with node ``root`` (seed_root) from
 * the query's constants, built here; with root_symbols (bytes), the root's
 * expansion keeps to the children whose first symbol it holds.  No sequence
 * of the records' is reported yet. */
static PyObject *
make_frontier(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    step_state *state = PyModule_GetState(module);
    PyObject *records, *context, *root, *symbols, *popped = NULL;
    frontier_object *self;
    node_source source;
    Py_ssize_t index, sequences;
    int status;

    if (nargs != 4 && nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "frontier(records, context, root, root_symbols[, popped]) takes 4 or 5 "
                        "arguments");
        return NULL;
    }
    records = args[0];
    context = args[1];
    root = args[2];
    symbols = args[3];
    if (nargs == 5 && args[4] != Py_None)
        popped = args[4];
    if (popped != NULL && !PyList_Check(popped)) {
        PyErr_SetString(PyExc_TypeError, "popped must be a list");
        return NULL;
    }
    if (symbols != Py_None && !PyBytes_Check(symbols)) {
        PyErr_Format(PyExc_TypeError, "root_symbols must be bytes or None, not %.100s",
                     Py_TYPE(symbols)->tp_name);
        return NULL;
    }
    /* The records' shape is checked here; each advance opens them again. */
    status = open_source(state, records, &source);
    sequences = source.end_count;
    close_source(&source);
    if (status < 0)
        return NULL;
    self = (frontier_object *)PyType_GenericAlloc((PyTypeObject *)state->frontier_type, 0);
    if (self == NULL)
        return NULL;
    Py_INCREF(module);
    self->module = module;
    Py_INCREF(records);
    self->records = records;
    Py_XINCREF(popped);
    self->popped = popped;
    self->children.items = self->children.local;
    self->children.capacity = sizeof(self->children.local) / sizeof(self->children.local[0]);
    if (symbols != Py_None) {
        self->partition = 1;
        for (index = 0; index < PyBytes_GET_SIZE(symbols); index++)
            self->owned[(unsigned char)PyBytes_AS_STRING(symbols)[index]] = 1;
    }
    self->sequence_count = sequences;
    self->reported = PyMem_Calloc(sequences > 0 ? sequences : 1, 1);
    if (self->reported == NULL) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    if (open_query(state, context, &self->e) < 0
        || attribute_score(context, state->columns_expanded, &self->columns_expanded) < 0
        || attribute_score(context, state->nodes_dropped, &self->nodes_dropped) < 0
        || seed_root(self, root) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static PyMethodDef frontier_methods[] = {
    {"advance", (PyCFunction)(void (*)(void))frontier_advance, METH_FASTCALL,
     "advance(bound_floor, budget) -> (score, sequences), or EMPTY / BELOW_FLOOR / PAUSED\n\n"
     "Pop and expand until an ACCEPTED entry surfaces below which some sequence\n"
     "was not reported before -- its score and those sequences, ascending --, the\n"
     "top bound is below bound_floor (None: no floor), budget pops have passed,\n"
     "or the queue is empty.  An ACCEPTED pop with no new sequence counts in\n"
     "nodes_accepted and against the budget, and the search goes on."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef frontier_members[] = {
    {"columns_expanded", T_LONGLONG, offsetof(frontier_object, columns_expanded), READONLY,
     "DP columns expanded, from the context's count at creation"},
    {"nodes_enqueued", T_LONGLONG, offsetof(frontier_object, e.counter), READONLY,
     "entries numbered, from the context's count at creation"},
    {"nodes_dropped", T_LONGLONG, offsetof(frontier_object, nodes_dropped), READONLY,
     "UNVIABLE children dropped, from the context's count at creation"},
    {"nodes_expanded", T_LONGLONG, offsetof(frontier_object, nodes_expanded), READONLY,
     "entries this frontier popped and expanded"},
    {"nodes_accepted", T_LONGLONG, offsetof(frontier_object, nodes_accepted), READONLY,
     "ACCEPTED entries this frontier popped, a hit or not"},
    {"max_queue_size", T_LONGLONG, offsetof(frontier_object, max_queue_size), READONLY,
     "the longest the queue was before a pop"},
    {NULL, 0, 0, 0, NULL},
};

static PyType_Slot frontier_slots[] = {
    {Py_tp_dealloc, frontier_dealloc},
    {Py_tp_new, frontier_refuse},
    {Py_tp_methods, frontier_methods},
    {Py_tp_members, frontier_members},
    {Py_sq_length, frontier_length},
    {Py_tp_doc,
     "The best-first queue of one search, in C: frontier(records, context, root, root_symbols)."},
    {0, NULL},
};

static PyType_Spec frontier_spec = {
    "_column_step.Frontier",
    sizeof(frontier_object),
    0,
    Py_TPFLAGS_DEFAULT,
    frontier_slots,
};

/* The build's stack pass: one rightmost-path entry. */
typedef struct {
    int32_t node;
    int32_t depth;
} path_entry;

/* flat_tree's four outputs, as _flat_tree returns them after the
 * positions, and the room in each. */
#define FLAT_OUTPUTS 4
static const char *const flat_names[FLAT_OUTPUTS] = {
    "leaf_parent", "node_depth", "node_leftmost", "node_parent"};

typedef struct {
    int32_t *leaf_parent, *node_depth, *node_leftmost, *node_parent;
    Py_ssize_t leaves, nodes;
} flat_outputs;

/* A C-contiguous buffer of ints held until PyBuffer_Release: ``wide`` is
 * NULL for an output, which must be a writable array('i'); for the LCPs it
 * is set to whether items are 8 bytes ('l' or 'q') rather than 4 ('i'). */
static int
int_buffer(PyObject *object, const char *what, int *wide, Py_buffer *view)
{
    const char *format;
    int four, eight;

    if (PyObject_GetBuffer(object, view, PyBUF_FORMAT | PyBUF_STRIDES) < 0)
        return -1;
    format = view->format != NULL ? view->format : "B";
    four = strcmp(format, "i") == 0 && view->itemsize == 4;
    eight = (strcmp(format, "l") == 0 || strcmp(format, "q") == 0) && view->itemsize == 8;
    if (!four && (wide == NULL || !eight))
        PyErr_Format(PyExc_TypeError, "%s must hold %s ints, not '%s' items", what,
                     wide == NULL ? "4-byte ('i')" : "4- or 8-byte ('i', 'l', 'q')", format);
    else if (!PyBuffer_IsContiguous(view, 'C'))
        PyErr_Format(PyExc_ValueError, "%s must be contiguous", what);
    else if (wide == NULL && view->readonly)
        PyErr_Format(PyExc_TypeError, "%s must be writable", what);
    else {
        if (wide != NULL)
            *wide = eight;
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

/* The bottom-up lcp-interval pass of _flat_tree over the LCPs of the n
 * sorted suffixes, with ``out`` NULL to count the nodes only.  The stack
 * is the rightmost path of the tree built so far; its depths rise strictly
 * from the root's 0, so it holds at most the longest LCP + 1 entries, and
 * it grows on demand.  A leaf's parent is final once the next suffix has
 * been seen, a node's once it has left the path but for the last popped,
 * whose arc a later suffix may split. */
static inline int
stack_pass(const void *lcps, const int wide, Py_ssize_t n, flat_outputs *out,
           Py_ssize_t *nodes)
{
    path_entry *path = NULL;
    Py_ssize_t size = 1, capacity = 0, created = 1, k;
    int32_t popped, top;
    i64 common;
    int status = -1;

    if (reserve((void **)&path, &capacity, 0, 1, sizeof(path_entry)) < 0)
        return -1;
    path[0].node = path[0].depth = 0;
    if (out != NULL)
        out->node_depth[0] = out->node_leftmost[0] = out->node_parent[0] = 0;
    for (k = 0; k < n; k++) {
        common = wide ? ((const int64_t *)lcps)[k] : ((const int32_t *)lcps)[k];
        if (common < 0 || (k == 0 && common != 0)) {
            PyErr_Format(PyExc_ValueError,
                         common < 0 ? "LCP %lld of suffix %zd is negative"
                                    : "the first suffix of all must have LCP 0, not %lld",
                         common, k);
            goto done;
        }
        if (common > INT32_MAX) {
            PyErr_Format(PyExc_OverflowError, "LCP %lld of suffix %zd is past 2**31 - 1",
                         common, k);
            goto done;
        }
        popped = -1;
        while (path[size - 1].depth > common)
            popped = path[--size].node;
        top = path[size - 1].node;
        if (path[size - 1].depth < common) {
            /* The split point falls inside the arc of what was popped last
             * (the previous leaf when no node was): a new node takes over
             * that child and its leftmost leaf. */
            if (out != NULL) {
                if (created >= out->nodes) {
                    PyErr_Format(PyExc_ValueError,
                                 "the node arrays hold %zd nodes; the tree has more",
                                 out->nodes);
                    goto done;
                }
                out->node_depth[created] = (int32_t)common;
                out->node_parent[created] = top;
                if (popped < 0) {
                    out->node_leftmost[created] = (int32_t)(k - 1);
                    out->leaf_parent[k - 1] = (int32_t)created;
                } else {
                    out->node_leftmost[created] = out->node_leftmost[popped];
                    out->node_parent[popped] = (int32_t)created;
                }
            }
            if (reserve((void **)&path, &capacity, size, 1, sizeof(path_entry)) < 0)
                goto done;
            top = (int32_t)created++;
            path[size].node = top;
            path[size++].depth = (int32_t)common;
        }
        if (out != NULL)
            out->leaf_parent[k] = top;
    }
    *nodes = created;
    status = 0;
done:
    PyMem_Free(path);
    return status;
}

/* flat_tree(lcps[, leaf_parent, node_depth, node_leftmost, node_parent])
 * -> the node count, root included: with the four outputs, the pass also
 * fills them. */
static PyObject *
flat_tree(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer lcps, views[FLAT_OUTPUTS];
    flat_outputs out, *filled = NULL;
    Py_ssize_t n, nodes = 0;
    int wide, held = 0, status = -1;

    if (nargs != 1 && nargs != 1 + FLAT_OUTPUTS) {
        PyErr_SetString(PyExc_TypeError,
                        "flat_tree(lcps[, leaf_parent, node_depth, node_leftmost, node_parent]) "
                        "takes 1 or 5 arguments");
        return NULL;
    }
    if (int_buffer(args[0], "lcps", &wide, &lcps) < 0)
        return NULL;
    n = lcps.len / lcps.itemsize;
    if (n > INT32_MAX) {
        PyErr_SetString(PyExc_OverflowError, "more than 2**31 - 1 suffixes");
        goto done;
    }
    if (nargs > 1) {
        for (; held < FLAT_OUTPUTS; held++)
            if (int_buffer(args[1 + held], flat_names[held], NULL, &views[held]) < 0)
                goto done;
        out.leaf_parent = views[0].buf;
        out.node_depth = views[1].buf;
        out.node_leftmost = views[2].buf;
        out.node_parent = views[3].buf;
        out.leaves = views[0].len / 4;
        out.nodes = Py_MIN(views[1].len, Py_MIN(views[2].len, views[3].len)) / 4;
        if (out.leaves < n || out.nodes < 1) {
            PyErr_Format(PyExc_ValueError, "%s is too short",
                         out.leaves < n ? "leaf_parent" : "a node array");
            goto done;
        }
        filled = &out;
    }
    status = wide ? stack_pass(lcps.buf, 1, n, filled, &nodes)
                  : stack_pass(lcps.buf, 0, n, filled, &nodes);
done:
    while (held > 0)
        PyBuffer_Release(&views[--held]);
    PyBuffer_Release(&lcps);
    return status < 0 ? NULL : PyLong_FromSsize_t(nodes);
}

static PyMethodDef step_methods[] = {
    {"frontier", (PyCFunction)(void (*)(void))make_frontier, METH_FASTCALL,
     "frontier(records, context, root, root_symbols, popped=None) -> Frontier\n\n"
     "Algorithm 1's queue over tree.node_records -- record arrays, or buffer-pool\n"
     "pages --, seeded with node root and the root column, built with the\n"
     "heuristic and profile from the context's query_codes, gains and\n"
     "packed_score_rows; with root_symbols (bytes) the root's expansion keeps\n"
     "only the children whose first arc symbol is among them.  With popped (a\n"
     "list), each popped entry is appended to it as its tuple."},
    {"page", (PyCFunction)(void (*)(void))pool_page, METH_FASTCALL,
     "page(state, block, region) -> bytes\n\n"
     "BufferPool.page over the pool's state: one request, its hit or its miss\n"
     "and the clock run in C."},
    {"flat_tree", (PyCFunction)(void (*)(void))flat_tree, METH_FASTCALL,
     "flat_tree(lcps[, leaf_parent, node_depth, node_leftmost, node_parent]) -> node count\n\n"
     "The suffix-tree build's stack pass over the LCPs of the sorted suffixes\n"
     "(repro.suffixtree.build._flat_tree): the number of nodes, root included;\n"
     "with the four outputs (writable 'i' buffers, such as array('i'), one item\n"
     "per leaf, then one per node) it also writes each leaf's parent and each node's depth,\n"
     "leftmost leaf and parent, nodes numbered in creation order."},
    {NULL, NULL, 0, NULL},
};

static int
step_exec(PyObject *module)
{
    step_state *state = PyModule_GetState(module);

#define INTERN(field, text)                               \
    state->field = PyUnicode_InternFromString(text);      \
    if (state->field == NULL)                             \
        return -1;
    INTERN(gap_penalty, "gap_penalty")
    INTERN(min_score, "min_score")
    INTERN(query_codes, "query_codes")
    INTERN(gains, "gains")
    INTERN(packed_score_rows, "packed_score_rows")
    INTERN(nodes_enqueued, "nodes_enqueued")
    INTERN(nodes_dropped, "nodes_dropped")
    INTERN(columns_expanded, "columns_expanded")
    INTERN(internal_kind, "I")
    INTERN(leaf_kind, "L")
    INTERN(descriptor, "descriptor")
    INTERN(path, "path")
#undef INTERN
    state->frontier_type = PyType_FromSpec(&frontier_spec);
    return state->frontier_type == NULL ? -1 : 0;
}

static int
step_clear(PyObject *module)
{
    step_state *state = PyModule_GetState(module);

    Py_CLEAR(state->gap_penalty);
    Py_CLEAR(state->min_score);
    Py_CLEAR(state->query_codes);
    Py_CLEAR(state->gains);
    Py_CLEAR(state->packed_score_rows);
    Py_CLEAR(state->nodes_enqueued);
    Py_CLEAR(state->nodes_dropped);
    Py_CLEAR(state->columns_expanded);
    Py_CLEAR(state->internal_kind);
    Py_CLEAR(state->leaf_kind);
    Py_CLEAR(state->descriptor);
    Py_CLEAR(state->path);
    Py_CLEAR(state->frontier_type);
    return 0;
}

static void
step_free(void *module)
{
    step_clear((PyObject *)module);
}

static PyModuleDef_Slot step_slots[] = {
    {Py_mod_exec, step_exec},
    {0, NULL},
};

static struct PyModuleDef step_module = {
    PyModuleDef_HEAD_INIT,
    "_column_step",
    "The compiled kernel's search and buffer pool, and the build's stack pass: frontier, page and flat_tree.",
    sizeof(step_state),
    step_methods,
    step_slots,
    NULL,
    step_clear,
    step_free,
};

PyMODINIT_FUNC
PyInit__column_step(void)
{
    return PyModuleDef_Init(&step_module);
}
