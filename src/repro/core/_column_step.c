/* The live-cell column step of repro.core.kernels, compiled.
 *
 * expand(parent, siblings, context[, arc_bests]) is kernels._expand_live,
 * walk for walk: the same survivors, the same frontier entries numbered
 * from context.nodes_enqueued, the same nodes_enqueued / nodes_dropped /
 * columns_expanded updates, and with arc_bests (a list) the expand_arc
 * view that returns every child and appends its b.
 *
 * expand_node(records, parent, context) is expand(parent,
 * tree.siblings(parent[3]), context) with no sibling list in between.
 * records is the tree's node_records, of one of two shapes:
 *
 *   - a GeneralizedSuffixTree's (internal_records, leaf_records,
 *     concatenated codes, sequence ends), each record region one page in
 *     memory;
 *   - a DiskSuffixTree's page source (block file, pool.table, pool.miss,
 *     pool.add_hits, per region (first block, page bytes, record count),
 *     sequence ends), whose pages are the image's blocks, asked of the
 *     buffer pool exactly as DiskSuffixTree._read asks for them: the parent
 *     record's page, the internal run's, the leaf run's, then every page of
 *     every arc in child order.  A hit is table.get(block) and
 *     frame.referenced = True, a miss is pool.miss(block, region), and the
 *     call's hits are added once through pool.add_hits, on an error too.
 *     Each page's bytes are held while they are read; page words are
 *     little-endian (image format v2).  A closed block file is the
 *     ValueError of a read from it, before any request.
 *
 * One decoder serves both: the node's run of internal children, then its
 * run of leaves, are decoded one record at a time as
 * GeneralizedSuffixTree.children decodes them (a leaf's sequence end by
 * bisection), each arc is walked where it lies, page by page, and a child's
 * handle tuple is built only if the child is kept -- four children in five
 * are dropped after a symbol or two.  A record that points past its region,
 * an arc past the symbols and a suffix past the last sequence end are
 * IndexErrors, raised before any request past the region.
 *
 * Both steps run one per-arc walk, walk_arc; kernels.py documents the walk
 * and why it is exact, and the comments here cover only what C adds.
 *
 * The seed column, the siblings and the output entries are read and built
 * as Python objects directly.  The heuristic and the substitution profile
 * come packed, as the context's immutable int64 bytes (packed_heuristic,
 * and packed_profile: S(q_row, symbol) at row * alphabet + symbol), and
 * limit[row] is computed from them as limit_for builds it: max(0, cutoff -
 * h[row]), and the stop sentinel in row m + 1.  Only the columns inside one
 * arc, and a node's decoded children, live in C arrays, scratch to one call
 * (PyMem allocations freed before it returns): an allocation can run a
 * finaliser that switches threads, and another call sharing the kernel must
 * never see them.  No
 * pointer into a list is held across anything that can run Python code;
 * the record arrays are held through the buffer protocol for the whole
 * call, so they can be neither freed nor resized under it, and a pool page
 * through a strong reference to its bytes (a miss runs Python code, and
 * another thread may evict the frame meanwhile).
 *
 * Integers: ints read from Python must lie within +-2**62, and a sum that
 * leaves that range raises OverflowError where Python ints would grow.  A
 * symbol or row out of range raises IndexError, as list indexing does in
 * the Python walk.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

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
    PyObject *packed_heuristic;
    PyObject *packed_profile;
    PyObject *nodes_enqueued;
    PyObject *nodes_dropped;
    PyObject *columns_expanded;
    PyObject *internal_kind; /* "I", the first item of an internal handle */
    PyObject *leaf_kind;     /* "L" */
    PyObject *referenced;    /* a pool frame's clock bit */
    PyObject *data;          /* a pool frame's page */
    PyObject *descriptor;    /* a block file's, None once closed */
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

static int
set_attribute(PyObject *object, PyObject *name, i64 value)
{
    PyObject *number = PyLong_FromLongLong(value);
    int status;

    if (number == NULL)
        return -1;
    status = PyObject_SetAttr(object, name, number);
    Py_DECREF(number);
    return status;
}

static int
add_to_attribute(PyObject *object, PyObject *name, i64 amount)
{
    i64 value;

    if (attribute_score(object, name, &value) < 0)
        return -1;
    return set_attribute(object, name, value + amount);
}

/* A packed int64 array attribute: a new reference to the bytes, their
 * values and how many there are. */
static PyObject *
packed(PyObject *context, PyObject *name, const char **values, Py_ssize_t *count)
{
    PyObject *bytes = PyObject_GetAttr(context, name);

    if (bytes == NULL)
        return NULL;
    if (!PyBytes_Check(bytes) || PyBytes_GET_SIZE(bytes) % sizeof(i64) != 0) {
        PyErr_Format(PyExc_TypeError, "%U must be bytes of int64", name);
        Py_DECREF(bytes);
        return NULL;
    }
    *values = PyBytes_AS_STRING(bytes);
    *count = PyBytes_GET_SIZE(bytes) / (Py_ssize_t)sizeof(i64);
    return bytes;
}

/* A record array, an array('I'), held as a buffer until PyBuffer_Release. */
static int
words_of(PyObject *object, const char *what, Py_buffer *view)
{
    if (PyObject_GetBuffer(object, view, PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != (Py_ssize_t)sizeof(uint32_t) || view->format == NULL
        || strcmp(view->format, "I") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s must be an array('I'), not %.100s", what,
                     Py_TYPE(object)->tp_name);
        return -1;
    }
    return 0;
}

static inline i64
load(const char *values, i64 index)
{
    i64 value;

    memcpy(&value, values + index * (i64)sizeof(i64), sizeof(i64));
    return value;
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
    const char *heuristic; /* h[0..m] */
    const char *profile;   /* S(q_row, symbol) at row * alphabet + symbol */
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
        bound = load(query->heuristic, row);
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

/* The seed column into rows / scores: ascending rows from 0, int scores. */
static int
read_seed(PyObject *seed, i64 *rows, i64 *scores, Py_ssize_t count)
{
    PyObject *cell;
    Py_ssize_t k;

    for (k = 0; k < count; k++) {
        cell = item_at(seed, k, "column");
        if (cell == NULL || require_sequence(cell, "a column cell") < 0)
            return -1;
        if (Py_SIZE(cell) != 2) {
            PyErr_SetString(PyExc_ValueError, "a column cell is a (row, score) pair");
            return -1;
        }
        if (int_at(cell, 0, "cell", &rows[k]) < 0 || int_at(cell, 1, "cell", &scores[k]) < 0)
            return -1;
        if (rows[k] < 0)
            return out_of_range("a column row is negative");
        if (k > 0 && rows[k] <= rows[k - 1]) {
            PyErr_SetString(PyExc_ValueError, "a column's rows must ascend");
            return -1;
        }
    }
    return 0;
}

/* What one call reads before its first arc -- the parent entry, the
 * query's constants, the seed column -- and the scratch its arcs' columns
 * live in.  ``counter`` numbers the entries it builds. */
typedef struct {
    query_view query;
    i64 gap, min_score, parent_max, parent_depth, parent_cutoff, floor, counter;
    PyObject *seed, *heuristic, *profile; /* owned */
    i64 *scratch;
    i64 *seed_rows, *seed_scores, *rows_a, *scores_a, *rows_b, *scores_b;
    Py_ssize_t seed_count, capacity;
} expansion;

/* One arc's walk so far: its last column's live cells, max_score, b, depth
 * and the cutoff in force; ``finished`` once a column kept no cell. */
typedef struct {
    i64 *rows, *scores;
    Py_ssize_t count;
    i64 max_score, best, depth, cutoff;
    int finished;
} arc_walk;

/* What becomes of a child: enqueued VIABLE or ACCEPTED, returned UNVIABLE
 * by the expand_arc view only, or else dropped. */
enum fate { DROPPED, VIABLE, ACCEPTED, UNVIABLE };

static void
close_expansion(expansion *e)
{
    PyMem_Free(e->scratch);
    Py_XDECREF(e->seed);
    Py_XDECREF(e->heuristic);
    Py_XDECREF(e->profile);
}

/* Read the parent entry and the context into ``e``; close_expansion
 * releases what it holds, whether this succeeded or not. */
static int
open_expansion(step_state *state, PyObject *parent, PyObject *context, int view, expansion *e)
{
    PyObject *seed;
    Py_ssize_t heuristic_count, profile_count, k;

    memset(e, 0, sizeof(*e));
    seed = item_at(parent, 4, "frontier entry");
    if (seed == NULL)
        return -1;
    if (seed == Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot expand below a node whose column was discarded");
        return -1;
    }
    if (require_sequence(seed, "a column") < 0)
        return -1;
    Py_INCREF(seed);
    e->seed = seed;
    if (int_at(parent, 5, "frontier entry", &e->parent_max) < 0
        || int_at(parent, 6, "frontier entry", &e->parent_depth) < 0
        || attribute_score(context, state->gap_penalty, &e->gap) < 0
        || attribute_score(context, state->min_score, &e->min_score) < 0
        || attribute_score(context, state->nodes_enqueued, &e->counter) < 0)
        return -1;
    e->heuristic = packed(context, state->packed_heuristic, &e->query.heuristic, &heuristic_count);
    if (e->heuristic == NULL)
        return -1;
    e->profile = packed(context, state->packed_profile, &e->query.profile, &profile_count);
    if (e->profile == NULL)
        return -1;
    e->query.m = heuristic_count - 1;
    e->query.alphabet = e->query.m > 0 ? profile_count / e->query.m : 0;
    if (e->query.m < 0 || e->query.alphabet * e->query.m != profile_count) {
        PyErr_SetString(PyExc_ValueError,
                        "the packed profile is not m rows of one score per symbol");
        return -1;
    }
    e->parent_cutoff = e->parent_max >= e->min_score ? e->parent_max : e->min_score - 1;

    /* Scratch: the seed, then two columns of at most one cell per limit row
     * (rows 0 to m + 1). */
    e->seed_count = Py_SIZE(seed);
    e->capacity = (Py_ssize_t)e->query.m + 2;
    e->scratch = PyMem_New(i64, 2 * e->seed_count + 4 * e->capacity);
    if (e->scratch == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    e->seed_rows = e->scratch;
    e->seed_scores = e->seed_rows + e->seed_count;
    e->rows_a = e->seed_scores + e->seed_count;
    e->scores_a = e->rows_a + e->capacity;
    e->rows_b = e->scores_a + e->capacity;
    e->scores_b = e->rows_b + e->capacity;
    if (read_seed(seed, e->seed_rows, e->seed_scores, e->seed_count) < 0)
        return -1;

    e->floor = PRUNED;
    if (view) {
        if (e->seed_count == 0) {
            PyErr_SetString(PyExc_ValueError, "max() arg is an empty sequence");
            return -1;
        }
        e->floor = e->seed_scores[0];
        for (k = 1; k < e->seed_count; k++)
            if (e->seed_scores[k] > e->floor)
                e->floor = e->seed_scores[k];
        if (add(e->floor, e->gap, &e->floor) < 0)
            return -1;
    }
    return 0;
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
    walk->best = e->floor;
    walk->depth = e->parent_depth;
    walk->cutoff = e->parent_cutoff;
    walk->finished = 0;
}

/* The live-cell walk down the next ``symbols`` codes of an arc: the one
 * loop behind both steps.  An arc split over pages is walked one piece at
 * a time, and a finished walk reads no further piece.  It runs no Python
 * code. */
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
            FAIL_UNLESS(add(score, load(e->query.profile, row * e->query.alphabet + symbol),
                            &pending) == 0);
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
fate_of(const expansion *e, const arc_walk *end, int is_leaf, int view)
{
    if (end->count > 0 && !is_leaf)
        return VIABLE; /* the arc is spelled out and cells are still alive */
    if (end->max_score >= e->min_score)
        return ACCEPTED;
    return view ? UNVIABLE : DROPPED;
}

/* The entry of a child that is not dropped, numbered from e->counter. */
static PyObject *
child_entry(expansion *e, const arc_walk *end, enum fate fate, Py_ssize_t symbols,
            PyObject *tree_node)
{
    PyObject *column;
    i64 bound = PRUNED, candidate;
    Py_ssize_t k;

    if (fate == VIABLE) {
        for (k = 0; k < end->count; k++) {
            if (end->rows[k] > e->query.m) {
                out_of_range("heuristic index out of range");
                return NULL;
            }
            if (add(end->scores[k], load(e->query.heuristic, end->rows[k]), &candidate) < 0)
                return NULL;
            if (k == 0 || candidate > bound)
                bound = candidate;
        }
        if (symbols == 0) {
            Py_INCREF(e->seed);
            column = e->seed;
        }
        else {
            column = column_list(end->rows, end->scores, end->count);
            if (column == NULL)
                return NULL;
        }
        e->counter++;
        return frontier_entry(bound, VIABLE_AFTER, e->counter, tree_node, column,
                              end->max_score, end->depth);
    }
    /* Finished: f collapses to max_score and the column is discarded.  An
     * UNVIABLE child is never enqueued, so its number and flag mean
     * nothing. */
    if (fate == ACCEPTED)
        e->counter++;
    Py_INCREF(Py_None);
    return frontier_entry(end->max_score, fate == ACCEPTED ? ACCEPTED_FIRST : VIABLE_AFTER,
                          e->counter, tree_node, Py_None, end->max_score, end->depth);
}

/* The counters of a finished call, as the Python walk leaves them. */
static int
commit(step_state *state, PyObject *context, const expansion *e, i64 columns, i64 dropped,
       int view)
{
    if (add_to_attribute(context, state->columns_expanded, columns) < 0)
        return -1;
    if (view)
        return 0;
    if (set_attribute(context, state->nodes_enqueued, e->counter) < 0)
        return -1;
    return add_to_attribute(context, state->nodes_dropped, dropped);
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

static PyObject *
expand(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    step_state *state = PyModule_GetState(module);
    PyObject *siblings, *context, *arc_bests = NULL, *kept = NULL;
    PyObject *sibling = NULL, *tree_node = NULL, *arc = NULL, *best_object;
    expansion e;
    arc_walk end;
    enum fate fate;
    i64 columns = 0, dropped = 0;
    Py_ssize_t index;
    int view, is_leaf, status;

    if (nargs != 3 && nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "expand(parent, siblings, context[, arc_bests]) takes 3 or 4 arguments");
        return NULL;
    }
    siblings = args[1];
    context = args[2];
    if (nargs == 4 && args[3] != Py_None)
        arc_bests = args[3];
    view = arc_bests != NULL;
    if (view && !PyList_Check(arc_bests)) {
        PyErr_SetString(PyExc_TypeError, "arc_bests must be a list");
        return NULL;
    }
    if (require_sequence(args[0], "a frontier entry") < 0
        || require_sequence(siblings, "the siblings") < 0)
        return NULL;
    FAIL_UNLESS(open_expansion(state, args[0], context, view, &e) == 0);

    kept = PyList_New(0);
    FAIL_UNLESS(kept != NULL);
    for (index = 0; index < Py_SIZE(siblings); index++) {
        sibling = item_at(siblings, index, "siblings");
        FAIL_UNLESS(sibling != NULL);
        Py_INCREF(sibling);
        FAIL_UNLESS(require_sequence(sibling, "a sibling") == 0);
        if (Py_SIZE(sibling) != 3) {
            PyErr_SetString(PyExc_ValueError, "a sibling is a (handle, arc, is_leaf) triple");
            goto error;
        }
        tree_node = item_at(sibling, 0, "sibling");
        arc = item_at(sibling, 1, "sibling");
        Py_INCREF(tree_node);
        Py_INCREF(arc);
        if (!PyBytes_Check(arc)) {
            PyErr_Format(PyExc_TypeError, "an arc must be bytes, not %.100s",
                         Py_TYPE(arc)->tp_name);
            goto error;
        }
        begin_arc(&e, &end);
        FAIL_UNLESS(walk_arc(&e, &end, (const unsigned char *)PyBytes_AS_STRING(arc),
                             PyBytes_GET_SIZE(arc)) == 0);
        columns += end.depth - e.parent_depth;

        /* Asked only of a child with live cells, as the Python walk does. */
        is_leaf = 1;
        if (end.count > 0) {
            is_leaf = PyObject_IsTrue(item_at(sibling, 2, "sibling"));
            FAIL_UNLESS(is_leaf >= 0);
        }
        fate = fate_of(&e, &end, is_leaf, view);
        if (fate == DROPPED)
            dropped++;
        else
            FAIL_UNLESS(append_entry(kept, child_entry(&e, &end, fate, PyBytes_GET_SIZE(arc),
                                                       tree_node)) == 0);
        if (view) {
            best_object = PyLong_FromLongLong(end.best);
            FAIL_UNLESS(best_object != NULL);
            status = PyList_Append(arc_bests, best_object);
            Py_DECREF(best_object);
            FAIL_UNLESS(status == 0);
        }
        Py_CLEAR(arc);
        Py_CLEAR(tree_node);
        Py_CLEAR(sibling);
    }
    FAIL_UNLESS(commit(state, context, &e, columns, dropped, view) == 0);
    close_expansion(&e);
    return kept;

error:
    close_expansion(&e);
    Py_XDECREF(kept);
    Py_XDECREF(sibling);
    Py_XDECREF(tree_node);
    Py_XDECREF(arc);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* The node step's source: record arrays in memory, or pool pages       */
/* ------------------------------------------------------------------ */

/* The record decoder below is one text compiled once per source: each call
 * site passes ``paged`` as a constant, so the in-memory step branches on no
 * source kind per record or word. */
#define PER_SOURCE static inline __attribute__((always_inline))

/* The regions of repro.storage.layout.Region, in its order, and the bytes
 * of one record in each. */
enum { SYMBOLS, INTERNAL, LEAVES, REGIONS };
static const i64 record_bytes[REGIONS] = {1, 4 * sizeof(uint32_t), sizeof(uint32_t)};

/* The page of one region a call reads from, and the block it is. */
typedef struct {
    PyObject *owner; /* paged: a strong reference to the page's bytes */
    const unsigned char *bytes;
    i64 block;       /* -1 before the first request */
} page;

/* Where the node step reads a node's records and arcs.  In memory each
 * region is one page: the whole record array (native words) or the codes.
 * Paged, a page is one block of the image, asked of the buffer pool as
 * DiskSuffixTree._read asks for it, and its words are little-endian. */
typedef struct {
    int paged;
    i64 start[REGIONS];      /* paged: the region's first block in the file */
    i64 page_bytes[REGIONS]; /* payload bytes of a page (whole records) */
    i64 count[REGIONS];      /* symbols, internal records, leaf records */
    page pages[REGIONS];
    Py_buffer internal_view, leaf_view, ends_view;
    const uint32_t *ends;
    Py_ssize_t end_count;
    PyObject *table, *miss, *add_hits; /* paged; borrowed from the records */
    i64 hits[REGIONS];
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

/* (block_file, table, miss, add_hits, regions, sequence_ends), regions
 * one (first block, page bytes, record count) per region: paged. */
static int
open_pages(node_source *s, PyObject *records)
{
    PyObject *regions = PyTuple_GET_ITEM(records, 4), *region_tuple, *descriptor;
    int region;

    s->table = PyTuple_GET_ITEM(records, 1);
    s->miss = PyTuple_GET_ITEM(records, 2);
    s->add_hits = PyTuple_GET_ITEM(records, 3);
    if (!PyDict_Check(s->table) || !PyCallable_Check(s->miss) || !PyCallable_Check(s->add_hits)) {
        PyErr_SetString(PyExc_TypeError,
                        "a page source is (block_file, table dict, miss, add_hits, regions, "
                        "sequence_ends)");
        return -1;
    }
    if (require_sequence(regions, "the regions") < 0)
        return -1;
    for (region = 0; region < REGIONS; region++) {
        region_tuple = item_at(regions, region, "regions");
        if (region_tuple == NULL || require_sequence(region_tuple, "a region") < 0
            || int_at(region_tuple, 0, "region", &s->start[region]) < 0
            || int_at(region_tuple, 1, "region", &s->page_bytes[region]) < 0
            || int_at(region_tuple, 2, "region", &s->count[region]) < 0)
            return -1;
        if (s->page_bytes[region] < record_bytes[region]
            || s->page_bytes[region] % record_bytes[region] != 0) {
            PyErr_SetString(PyExc_ValueError, "a page holds no whole number of records");
            return -1;
        }
        s->pages[region].block = -1;
    }
    if (read_ends(s, PyTuple_GET_ITEM(records, 5)) < 0)
        return -1;
    s->paged = 1;
    /* A closed cursor makes no request, resident page or not. */
    descriptor = PyObject_GetAttr(PyTuple_GET_ITEM(records, 0), s->state->descriptor);
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
    if (PyTuple_Check(records) && PyTuple_GET_SIZE(records) == 6)
        return open_pages(s, records);
    PyErr_SetString(PyExc_TypeError,
                    "records must be a tree's node_records: (internal_records, leaf_records, "
                    "codes, sequence_ends) or a page source");
    return -1;
}

/* Add the call's hits to the pool, once, and drop its pages; a second
 * call does nothing.  An error already set survives unless adding the hits
 * raises, as a Python finally clause would have it. */
static int
close_source(node_source *s)
{
    PyObject *type, *value, *traceback, *added;
    i64 hits[REGIONS];
    int region;

    for (region = 0; region < REGIONS; region++) {
        Py_CLEAR(s->pages[region].owner);
        hits[region] = s->hits[region];
        s->hits[region] = 0;
    }
    PyBuffer_Release(&s->internal_view);
    PyBuffer_Release(&s->leaf_view);
    PyBuffer_Release(&s->ends_view);
    if (hits[SYMBOLS] + hits[INTERNAL] + hits[LEAVES] == 0)
        return 0;
    PyErr_Fetch(&type, &value, &traceback);
    added = PyObject_CallFunction(s->add_hits, "LLL", hits[SYMBOLS], hits[INTERNAL],
                                  hits[LEAVES]);
    if (added == NULL) {
        Py_XDECREF(type);
        Py_XDECREF(value);
        Py_XDECREF(traceback);
        return -1;
    }
    Py_DECREF(added);
    PyErr_Restore(type, value, traceback);
    return 0;
}

/* Block ``block`` of ``region`` into its page: one request of a paged
 * source.  A hit is table.get(block) and frame.referenced = True, counted
 * per region until close_source; a miss is pool.miss(block, region). */
static int
request(node_source *s, int region, i64 block)
{
    step_state *state = s->state;
    page *p = &s->pages[region];
    PyObject *key, *frame, *number, *data;

    key = PyLong_FromLongLong(s->start[region] + block);
    if (key == NULL)
        return -1;
    frame = PyDict_GetItemWithError(s->table, key);
    if (frame != NULL) {
        Py_INCREF(frame);
        if (PyObject_SetAttr(frame, state->referenced, Py_True) < 0) {
            Py_DECREF(frame);
            Py_DECREF(key);
            return -1;
        }
        s->hits[region]++;
    }
    else if (PyErr_Occurred()) {
        Py_DECREF(key);
        return -1;
    }
    else {
        number = PyLong_FromLong(region);
        frame = number == NULL ? NULL : PyObject_CallFunctionObjArgs(s->miss, key, number, NULL);
        Py_XDECREF(number);
        if (frame == NULL) {
            Py_DECREF(key);
            return -1;
        }
    }
    Py_DECREF(key);
    data = PyObject_GetAttr(frame, state->data);
    Py_DECREF(frame);
    if (data == NULL)
        return -1;
    if (!PyBytes_Check(data) || PyBytes_GET_SIZE(data) < s->page_bytes[region]) {
        PyErr_SetString(PyExc_ValueError, "a buffer-pool page is not a whole block of bytes");
        Py_DECREF(data);
        return -1;
    }
    /* The page is held until the next request of its region replaces it. */
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

/* One decoded child: what its handle holds, and whether it is a leaf. */
typedef struct {
    i64 value, arc_start, length, depth;
    int leaf;
} child_record;

/* The children of one node, in scratch local to the call. */
typedef struct {
    child_record *items;
    Py_ssize_t count, capacity;
    child_record local[64];
} child_list;

static int
push_child(child_list *children, i64 value, i64 arc_start, i64 length, i64 depth, int leaf)
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
    children->items[children->count++] = (child_record){value, arc_start, length, depth, leaf};
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
    Py_ssize_t low, high, middle;

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
        if (push_child(children, child, arc_start, child_depth - depth, child_depth, 0) < 0)
            return -1;
        child = word & LAST_SIBLING_BIT ? NO_POINTER : child + 1;
    }
    while (leaf != NO_POINTER) {
        at = record_at(s, paged, LEAVES, leaf, "a leaf index past the leaf records");
        if (at == NULL)
            return -1;
        word = word_at(paged, at, 0);
        start = word & VALUE_MASK;
        /* bisect_right(sequence_ends, start): suffix ``start`` ends at the
         * first end above it. */
        low = 0;
        high = s->end_count;
        while (low < high) {
            middle = low + (high - low) / 2;
            if (start < (i64)s->ends[middle])
                high = middle;
            else
                low = middle + 1;
        }
        if (low == s->end_count)
            return out_of_range("a suffix past the last sequence end");
        length = (i64)s->ends[low] - start;
        if (length < depth || (i64)s->ends[low] > s->count[SYMBOLS])
            return out_of_range("an arc past the symbol array");
        if (push_child(children, start, start + depth, length - depth, length, 1) < 0)
            return -1;
        leaf = word & LAST_SIBLING_BIT ? NO_POINTER : leaf + 1;
    }
    return 0;
}

/* The walk down one child's arc, a page at a time.  Paged, every page of
 * the arc is requested, as DiskSuffixTree._read slices it, even once the
 * walk has finished; in memory the arc is one piece of the codes. */
PER_SOURCE int
walk_child(node_source *s, const int paged, const expansion *e, const child_record *child,
           arc_walk *walk)
{
    i64 at = child->arc_start, remaining = child->length, block, offset, piece;
    const i64 page_bytes = s->page_bytes[SYMBOLS];

    begin_arc(e, walk);
    if (!paged) /* the codes are one page */
        return walk_arc(e, walk, s->pages[SYMBOLS].bytes + at, (Py_ssize_t)remaining);
    while (remaining > 0) {
        block = at / page_bytes;
        offset = at - block * page_bytes;
        piece = page_bytes - offset < remaining ? page_bytes - offset : remaining;
        if (request(s, SYMBOLS, block) < 0
            || walk_arc(e, walk, s->pages[SYMBOLS].bytes + offset, (Py_ssize_t)piece) < 0)
            return -1;
        at += piece;
        remaining -= piece;
    }
    return 0;
}

static PyObject *
expand_node(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    step_state *state = PyModule_GetState(module);
    PyObject *parent, *context, *tree_node = NULL, *kind, *handle, *kept = NULL;
    node_source source;
    child_list children;
    expansion e;
    arc_walk walk;
    enum fate fate;
    const child_record *child;
    i64 columns = 0, dropped = 0, node;
    Py_ssize_t index;
    int status;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "expand_node(records, parent, context) takes 3 arguments");
        return NULL;
    }
    parent = args[1];
    context = args[2];
    if (require_sequence(parent, "a frontier entry") < 0)
        return NULL;
    memset(&e, 0, sizeof(e));
    children.items = children.local;
    children.count = 0;
    children.capacity = sizeof(children.local) / sizeof(children.local[0]);
    FAIL_UNLESS(open_source(state, args[0], &source) == 0);
    FAIL_UNLESS(open_expansion(state, parent, context, 0, &e) == 0);
    tree_node = item_at(parent, 3, "frontier entry");
    FAIL_UNLESS(tree_node != NULL);
    Py_INCREF(tree_node);
    FAIL_UNLESS(require_sequence(tree_node, "a node handle") == 0);
    kind = item_at(tree_node, 0, "node handle");
    FAIL_UNLESS(kind != NULL);
    /* children() of anything but an internal handle is empty. */
    if (PyUnicode_Check(kind) && PyUnicode_CompareWithASCIIString(kind, "I") == 0) {
        FAIL_UNLESS(int_at(tree_node, 1, "node handle", &node) == 0);
        FAIL_UNLESS((source.paged ? decode_children(&source, 1, node, &children)
                                  : decode_children(&source, 0, node, &children)) == 0);
    }

    kept = PyList_New(0);
    FAIL_UNLESS(kept != NULL);
    for (index = 0; index < children.count; index++) {
        child = &children.items[index];
        FAIL_UNLESS((source.paged ? walk_child(&source, 1, &e, child, &walk)
                                  : walk_child(&source, 0, &e, child, &walk)) == 0);
        columns += walk.depth - e.parent_depth;
        fate = fate_of(&e, &walk, child->leaf, 0);
        if (fate == DROPPED) {
            dropped++;
            continue;
        }
        /* Only a kept child gets its handle. */
        handle = node_handle(child->leaf ? state->leaf_kind : state->internal_kind, child->value,
                             child->arc_start, child->length, child->depth);
        FAIL_UNLESS(handle != NULL);
        status = append_entry(kept, child_entry(&e, &walk, fate, (Py_ssize_t)child->length,
                                                handle));
        Py_DECREF(handle);
        FAIL_UNLESS(status == 0);
    }
    /* The pool's counters first, then the context's, as _read's hits are
     * added before the sibling-list step runs. */
    FAIL_UNLESS(close_source(&source) == 0);
    FAIL_UNLESS(commit(state, context, &e, columns, dropped, 0) == 0);
    close_expansion(&e);
    Py_DECREF(tree_node);
    if (children.items != children.local)
        PyMem_Free(children.items);
    return kept;

error:
    close_expansion(&e);
    Py_XDECREF(tree_node);
    Py_XDECREF(kept);
    if (children.items != children.local)
        PyMem_Free(children.items);
    close_source(&source);
    return NULL;
}

static PyMethodDef step_methods[] = {
    {"expand", (PyCFunction)(void (*)(void))expand, METH_FASTCALL,
     "expand(parent, siblings, context, arc_bests=None) -> list of frontier entries\n\n"
     "The live-cell column step over one sibling list (kernels._expand_live)."},
    {"expand_node", (PyCFunction)(void (*)(void))expand_node, METH_FASTCALL,
     "expand_node(records, parent, context) -> list of frontier entries\n\n"
     "expand(parent, tree.siblings(parent[3]), context), the children decoded\n"
     "from tree.node_records -- record arrays, or buffer-pool pages -- and their\n"
     "arcs read in place."},
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
    INTERN(packed_heuristic, "packed_heuristic")
    INTERN(packed_profile, "packed_profile")
    INTERN(nodes_enqueued, "nodes_enqueued")
    INTERN(nodes_dropped, "nodes_dropped")
    INTERN(columns_expanded, "columns_expanded")
    INTERN(internal_kind, "I")
    INTERN(leaf_kind, "L")
    INTERN(referenced, "referenced")
    INTERN(data, "data")
    INTERN(descriptor, "descriptor")
#undef INTERN
    return 0;
}

static int
step_clear(PyObject *module)
{
    step_state *state = PyModule_GetState(module);

    Py_CLEAR(state->gap_penalty);
    Py_CLEAR(state->min_score);
    Py_CLEAR(state->packed_heuristic);
    Py_CLEAR(state->packed_profile);
    Py_CLEAR(state->nodes_enqueued);
    Py_CLEAR(state->nodes_dropped);
    Py_CLEAR(state->columns_expanded);
    Py_CLEAR(state->internal_kind);
    Py_CLEAR(state->leaf_kind);
    Py_CLEAR(state->referenced);
    Py_CLEAR(state->data);
    Py_CLEAR(state->descriptor);
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
    "The live-cell column step of repro.core.kernels, compiled.",
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
