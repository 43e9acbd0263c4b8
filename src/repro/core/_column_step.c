/* The live-cell column step of repro.core.kernels, compiled.
 *
 * expand(parent, siblings, context[, arc_bests]) is kernels._expand_live,
 * walk for walk: the same survivors, the same frontier entries numbered
 * from context.nodes_enqueued, the same nodes_enqueued / nodes_dropped /
 * columns_expanded updates, and with arc_bests (a list) the expand_arc
 * view that returns every child and appends its b.
 *
 * expand_node(parent, records, context) is expand(parent,
 * tree.siblings(parent[3]), context) on a GeneralizedSuffixTree, with no
 * sibling list in between.  records is the tree's node_records,
 * (internal_records, leaf_records, concatenated codes, sequence ends):
 * the node's run of internal children, then its run of leaves, are decoded
 * from them one child at a time as GeneralizedSuffixTree.children decodes
 * them (a leaf's sequence end by bisection), each arc is walked where it
 * lies in the codes, and a child's handle tuple is built only if the child
 * is kept -- four children in five are dropped after a symbol or two.  A
 * record that points past its array, an arc past the codes and a suffix
 * past the last sequence end are IndexErrors.
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
 * arc live in C arrays, scratch to one call (one PyMem allocation, freed
 * before it returns): an allocation can run a finaliser that switches
 * threads, and another call sharing the kernel must never see them.  No
 * pointer into a list is held across anything that can run Python code;
 * the record arrays are held through the buffer protocol for the whole
 * call, so they can be neither freed nor resized under it.
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

/* Where one arc's walk ended: its last column's live cells, max_score, b
 * and depth. */
typedef struct {
    const i64 *rows, *scores;
    Py_ssize_t count;
    i64 max_score, best, depth;
} arc_end;

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

/* The live-cell walk down one arc of ``symbols`` codes from the seed: the
 * one loop behind both steps.  It runs no Python code. */
static int
walk_arc(const expansion *e, const unsigned char *arc_codes, Py_ssize_t symbols, arc_end *end)
{
    const i64 gap = e->gap;
    i64 *in_rows = e->seed_rows, *in_scores = e->seed_scores;
    i64 *out_rows = e->seed_rows, *out_scores = e->seed_scores;
    i64 max_score = e->parent_max, best = e->floor, depth = e->parent_depth;
    i64 cutoff = e->parent_cutoff, limit_value;
    Py_ssize_t in_count = e->seed_count, kept_count = e->seed_count, j, k;

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
        if (kept_count == 0)
            break;
    }
    end->rows = out_rows;
    end->scores = out_scores;
    end->count = kept_count;
    end->max_score = max_score;
    end->best = best;
    end->depth = depth;
    return 0;

error:
    return -1;
}

#undef LIMIT
#undef KEEP

static enum fate
fate_of(const expansion *e, const arc_end *end, int is_leaf, int view)
{
    if (end->count > 0 && !is_leaf)
        return VIABLE; /* the arc is spelled out and cells are still alive */
    if (end->max_score >= e->min_score)
        return ACCEPTED;
    return view ? UNVIABLE : DROPPED;
}

/* The entry of a child that is not dropped, numbered from e->counter. */
static PyObject *
child_entry(expansion *e, const arc_end *end, enum fate fate, Py_ssize_t symbols,
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
    arc_end end;
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
        FAIL_UNLESS(walk_arc(&e, (const unsigned char *)PyBytes_AS_STRING(arc),
                             PyBytes_GET_SIZE(arc), &end) == 0);
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

static PyObject *
expand_node(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    step_state *state = PyModule_GetState(module);
    PyObject *records, *context, *codes, *tree_node = NULL, *kind, *handle, *kept = NULL;
    Py_buffer internal_view = {0}, leaf_view = {0}, ends_view = {0};
    const uint32_t *internal, *leaves, *ends;
    const unsigned char *symbols;
    expansion e;
    arc_end end;
    enum fate fate;
    i64 columns = 0, dropped = 0, node, depth, child, leaf, word, start, arc_start, length;
    Py_ssize_t node_count, leaf_count, end_count, symbol_count, low, high, middle;
    int status;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "expand_node(parent, records, context) takes 3 arguments");
        return NULL;
    }
    records = args[1];
    context = args[2];
    if (require_sequence(args[0], "a frontier entry") < 0)
        return NULL;
    if (!PyTuple_Check(records) || PyTuple_GET_SIZE(records) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "records must be the tuple (internal_records, leaf_records, codes, "
                        "sequence_ends)");
        return NULL;
    }
    codes = PyTuple_GET_ITEM(records, 2);
    if (!PyBytes_Check(codes)) {
        PyErr_Format(PyExc_TypeError, "the codes must be bytes, not %.100s",
                     Py_TYPE(codes)->tp_name);
        return NULL;
    }
    memset(&e, 0, sizeof(e));
    FAIL_UNLESS(words_of(PyTuple_GET_ITEM(records, 0), "internal_records", &internal_view) == 0
                && words_of(PyTuple_GET_ITEM(records, 1), "leaf_records", &leaf_view) == 0
                && words_of(PyTuple_GET_ITEM(records, 3), "sequence_ends", &ends_view) == 0);
    internal = internal_view.buf;
    leaves = leaf_view.buf;
    ends = ends_view.buf;
    node_count = internal_view.len / (Py_ssize_t)(4 * sizeof(uint32_t));
    leaf_count = leaf_view.len / (Py_ssize_t)sizeof(uint32_t);
    end_count = ends_view.len / (Py_ssize_t)sizeof(uint32_t);
    symbols = (const unsigned char *)PyBytes_AS_STRING(codes);
    symbol_count = PyBytes_GET_SIZE(codes);

    FAIL_UNLESS(open_expansion(state, args[0], context, 0, &e) == 0);
    tree_node = item_at(args[0], 3, "frontier entry");
    FAIL_UNLESS(tree_node != NULL);
    Py_INCREF(tree_node);
    FAIL_UNLESS(require_sequence(tree_node, "a node handle") == 0);
    kind = item_at(tree_node, 0, "node handle");
    FAIL_UNLESS(kind != NULL);
    /* children() of anything but an internal handle is empty. */
    child = leaf = NO_POINTER;
    depth = 0;
    if (PyUnicode_Check(kind) && PyUnicode_CompareWithASCIIString(kind, "I") == 0) {
        FAIL_UNLESS(int_at(tree_node, 1, "node handle", &node) == 0);
        if (node < 0 || node >= node_count) {
            out_of_range("a node index past the internal records");
            goto error;
        }
        depth = internal[4 * node] & VALUE_MASK;
        child = internal[4 * node + 2];
        leaf = internal[4 * node + 3];
    }

    kept = PyList_New(0);
    FAIL_UNLESS(kept != NULL);
    while (child != NO_POINTER) {
        i64 child_depth;

        if (child >= node_count) {
            out_of_range("a child pointer past the internal records");
            goto error;
        }
        word = internal[4 * child];
        child_depth = word & VALUE_MASK;
        arc_start = internal[4 * child + 1];
        length = child_depth - depth;
        if (length < 0 || arc_start + length > symbol_count) {
            out_of_range("an arc past the symbol array");
            goto error;
        }
        FAIL_UNLESS(walk_arc(&e, symbols + arc_start, (Py_ssize_t)length, &end) == 0);
        columns += end.depth - e.parent_depth;
        fate = fate_of(&e, &end, 0, 0);
        if (fate == DROPPED) {
            dropped++;
        }
        else {
            handle = node_handle(state->internal_kind, child, arc_start, length, child_depth);
            FAIL_UNLESS(handle != NULL);
            status = append_entry(kept, child_entry(&e, &end, fate, (Py_ssize_t)length, handle));
            Py_DECREF(handle);
            FAIL_UNLESS(status == 0);
        }
        child = word & LAST_SIBLING_BIT ? NO_POINTER : child + 1;
    }
    while (leaf != NO_POINTER) {
        if (leaf >= leaf_count) {
            out_of_range("a leaf index past the leaf records");
            goto error;
        }
        word = leaves[leaf];
        start = word & VALUE_MASK;
        /* bisect_right(sequence_ends, start): suffix ``start`` ends at the
         * first end above it. */
        low = 0;
        high = end_count;
        while (low < high) {
            middle = low + (high - low) / 2;
            if (start < (i64)ends[middle])
                high = middle;
            else
                low = middle + 1;
        }
        if (low == end_count) {
            out_of_range("a suffix past the last sequence end");
            goto error;
        }
        length = (i64)ends[low] - start;
        arc_start = start + depth;
        if (length < depth || (i64)ends[low] > symbol_count) {
            out_of_range("an arc past the symbol array");
            goto error;
        }
        FAIL_UNLESS(walk_arc(&e, symbols + arc_start, (Py_ssize_t)(length - depth), &end) == 0);
        columns += end.depth - e.parent_depth;
        fate = fate_of(&e, &end, 1, 0);
        if (fate == DROPPED) {
            dropped++;
        }
        else {
            handle = node_handle(state->leaf_kind, start, arc_start, length - depth, length);
            FAIL_UNLESS(handle != NULL);
            status = append_entry(kept, child_entry(&e, &end, fate, (Py_ssize_t)(length - depth),
                                                    handle));
            Py_DECREF(handle);
            FAIL_UNLESS(status == 0);
        }
        leaf = word & LAST_SIBLING_BIT ? NO_POINTER : leaf + 1;
    }
    FAIL_UNLESS(commit(state, context, &e, columns, dropped, 0) == 0);
    close_expansion(&e);
    Py_DECREF(tree_node);
    PyBuffer_Release(&internal_view);
    PyBuffer_Release(&leaf_view);
    PyBuffer_Release(&ends_view);
    return kept;

error:
    close_expansion(&e);
    Py_XDECREF(tree_node);
    Py_XDECREF(kept);
    PyBuffer_Release(&internal_view);
    PyBuffer_Release(&leaf_view);
    PyBuffer_Release(&ends_view);
    return NULL;
}

static PyMethodDef step_methods[] = {
    {"expand", (PyCFunction)(void (*)(void))expand, METH_FASTCALL,
     "expand(parent, siblings, context, arc_bests=None) -> list of frontier entries\n\n"
     "The live-cell column step over one sibling list (kernels._expand_live)."},
    {"expand_node", (PyCFunction)(void (*)(void))expand_node, METH_FASTCALL,
     "expand_node(parent, records, context) -> list of frontier entries\n\n"
     "expand(parent, tree.siblings(parent[3]), context), the children decoded\n"
     "from tree.node_records and their arcs read in place."},
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
