/* The live-cell column step of repro.core.kernels, compiled.
 *
 * expand(parent, siblings, context[, arc_bests]) is kernels._expand_live,
 * walk for walk: the same survivors, the same frontier entries numbered
 * from context.nodes_enqueued, the same nodes_enqueued / nodes_dropped /
 * columns_expanded updates, and with arc_bests (a list) the expand_arc
 * view that returns every child and appends its b.  kernels.py documents
 * the walk and why it is exact; the comments here cover only what C adds.
 *
 * The seed column, the siblings and the output entries are read and built
 * as Python objects directly.  The heuristic and the substitution profile
 * come packed, as the context's immutable int64 bytes (packed_heuristic,
 * packed_profile), and limit[row] is computed from them as limit_for
 * builds it: max(0, cutoff - h[row]), and the stop sentinel in row m + 1.
 * Only the columns inside one arc live in C arrays, scratch to one call
 * (one PyMem allocation, freed before it returns): an allocation can run a
 * finaliser that switches threads, and another call sharing the kernel
 * must never see them.  No pointer into a list is held across anything
 * that can run Python code.
 *
 * Integers: ints read from Python must lie within +-2**62, and a sum that
 * leaves that range raises OverflowError where Python ints would grow.  A
 * symbol or row out of range raises IndexError, as list indexing does in
 * the Python walk.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef long long i64;

/* The PRUNED sentinel of repro.core.search_node, and the limit of row
 * m + 1 (expand._NO_SCORE_ABOVE). */
#define PRUNED (-1000000000000000LL)
#define NO_SCORE_ABOVE (-PRUNED)
#define SCORE_BOUND (1LL << 62)
#define VIABLE_AFTER 1
#define ACCEPTED_FIRST 0

typedef struct {
    PyObject *gap_penalty;
    PyObject *min_score;
    PyObject *packed_heuristic;
    PyObject *packed_profile;
    PyObject *nodes_enqueued;
    PyObject *nodes_dropped;
    PyObject *columns_expanded;
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
    const char *profile;   /* S(q_row, symbol) at symbol * m + row */
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
    PyErr_SetString(PyExc_IndexError, "limit index out of range");
    return -1;
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
        if (rows[k] < 0) {
            PyErr_SetString(PyExc_IndexError, "a column row is negative");
            return -1;
        }
        if (k > 0 && rows[k] <= rows[k - 1]) {
            PyErr_SetString(PyExc_ValueError, "a column's rows must ascend");
            return -1;
        }
    }
    return 0;
}

#define FAIL_UNLESS(condition) \
    do {                       \
        if (!(condition))      \
            goto error;        \
    } while (0)

/* limit[row] under the cutoff in force, into ``out``. */
#define LIMIT(row, out) FAIL_UNLESS(limit_at(&query, cutoff, (row), &(out)) == 0)

#define KEEP(row, score)                                                  \
    do {                                                                  \
        if (kept_count == capacity) {                                     \
            PyErr_SetString(PyExc_IndexError, "limit index out of range"); \
            goto error;                                                   \
        }                                                                 \
        out_rows[kept_count] = (row);                                     \
        out_scores[kept_count] = (score);                                 \
        kept_count++;                                                     \
    } while (0)

static PyObject *
expand(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    step_state *state = PyModule_GetState(module);
    PyObject *parent, *siblings, *context, *arc_bests = NULL;
    PyObject *seed, *heuristic = NULL, *profile = NULL, *kept = NULL;
    PyObject *sibling = NULL, *tree_node = NULL, *arc = NULL;
    PyObject *column, *entry, *best_object;
    query_view query;
    Py_ssize_t heuristic_count, profile_count;
    i64 gap, min_score, parent_max, parent_depth, parent_cutoff, counter;
    i64 dropped = 0, columns = 0, floor, limit_value;
    i64 *scratch = NULL, *seed_rows, *seed_scores, *rows_a, *scores_a, *rows_b, *scores_b;
    i64 *in_rows, *in_scores, *out_rows, *out_scores;
    Py_ssize_t seed_count, capacity, in_count, kept_count, index, k, j, symbols;
    int view, is_leaf, status;

    if (nargs != 3 && nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "expand(parent, siblings, context[, arc_bests]) takes 3 or 4 arguments");
        return NULL;
    }
    parent = args[0];
    siblings = args[1];
    context = args[2];
    if (nargs == 4 && args[3] != Py_None)
        arc_bests = args[3];
    view = arc_bests != NULL;
    if (view && !PyList_Check(arc_bests)) {
        PyErr_SetString(PyExc_TypeError, "arc_bests must be a list");
        return NULL;
    }
    if (require_sequence(parent, "a frontier entry") < 0
        || require_sequence(siblings, "the siblings") < 0)
        return NULL;
    seed = item_at(parent, 4, "frontier entry");
    if (seed == NULL)
        return NULL;
    if (seed == Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "cannot expand below a node whose column was discarded");
        return NULL;
    }
    if (require_sequence(seed, "a column") < 0)
        return NULL;
    Py_INCREF(seed);
    FAIL_UNLESS(int_at(parent, 5, "frontier entry", &parent_max) == 0
                && int_at(parent, 6, "frontier entry", &parent_depth) == 0
                && attribute_score(context, state->gap_penalty, &gap) == 0
                && attribute_score(context, state->min_score, &min_score) == 0
                && attribute_score(context, state->nodes_enqueued, &counter) == 0);
    heuristic = packed(context, state->packed_heuristic, &query.heuristic, &heuristic_count);
    FAIL_UNLESS(heuristic != NULL);
    profile = packed(context, state->packed_profile, &query.profile, &profile_count);
    FAIL_UNLESS(profile != NULL);
    query.m = heuristic_count - 1;
    query.alphabet = query.m > 0 ? profile_count / query.m : 0;
    if (query.m < 0 || query.alphabet * query.m != profile_count) {
        PyErr_SetString(PyExc_ValueError,
                        "the packed profile is not one row of m scores per symbol");
        goto error;
    }
    parent_cutoff = parent_max >= min_score ? parent_max : min_score - 1;

    /* Scratch: the seed, then two columns of at most one cell per limit row
     * (rows 0 to m + 1). */
    seed_count = Py_SIZE(seed);
    capacity = (Py_ssize_t)query.m + 2;
    scratch = PyMem_New(i64, 2 * seed_count + 4 * capacity);
    if (scratch == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    seed_rows = scratch;
    seed_scores = seed_rows + seed_count;
    rows_a = seed_scores + seed_count;
    scores_a = rows_a + capacity;
    rows_b = scores_a + capacity;
    scores_b = rows_b + capacity;
    FAIL_UNLESS(read_seed(seed, seed_rows, seed_scores, seed_count) == 0);

    floor = PRUNED;
    if (view) {
        if (seed_count == 0) {
            PyErr_SetString(PyExc_ValueError, "max() arg is an empty sequence");
            goto error;
        }
        floor = seed_scores[0];
        for (k = 1; k < seed_count; k++)
            if (seed_scores[k] > floor)
                floor = seed_scores[k];
        FAIL_UNLESS(add(floor, gap, &floor) == 0);
    }

    kept = PyList_New(0);
    FAIL_UNLESS(kept != NULL);
    for (index = 0; index < Py_SIZE(siblings); index++) {
        i64 max_score = parent_max, best = floor, depth = parent_depth, cutoff = parent_cutoff;
        const unsigned char *arc_codes;

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

        in_rows = seed_rows;
        in_scores = seed_scores;
        in_count = seed_count;
        out_rows = seed_rows;
        out_scores = seed_scores;
        kept_count = seed_count;
        arc_codes = (const unsigned char *)PyBytes_AS_STRING(arc);
        symbols = PyBytes_GET_SIZE(arc);
        for (j = 0; j < symbols; j++) {
            i64 pending_row = -1, pending = 0, chain_row = -1, chain = 0;
            i64 symbol = arc_codes[j];

            depth++;
            if (symbol >= query.alphabet) {
                PyErr_SetString(PyExc_IndexError, "profile index out of range");
                goto error;
            }
            out_rows = in_rows == rows_a ? rows_b : rows_a;
            out_scores = in_rows == rows_a ? scores_b : scores_a;
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
                if (row >= query.m) {
                    PyErr_SetString(PyExc_IndexError, "profile row index out of range");
                    goto error;
                }
                FAIL_UNLESS(add(score, load(query.profile, symbol * query.m + row), &pending) == 0);
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
                if (best >= min_score) {
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
        columns += depth - parent_depth;

        /* Asked only of a child with live cells, as the Python walk does. */
        is_leaf = 1;
        if (kept_count > 0) {
            is_leaf = PyObject_IsTrue(item_at(sibling, 2, "sibling"));
            FAIL_UNLESS(is_leaf >= 0);
        }
        entry = NULL;
        if (!is_leaf) {
            /* The arc is spelled out and cells are still alive. */
            i64 bound = PRUNED, candidate;

            for (k = 0; k < kept_count; k++) {
                if (out_rows[k] > query.m) {
                    PyErr_SetString(PyExc_IndexError, "heuristic index out of range");
                    goto error;
                }
                FAIL_UNLESS(add(out_scores[k], load(query.heuristic, out_rows[k]), &candidate) == 0);
                if (k == 0 || candidate > bound)
                    bound = candidate;
            }
            if (symbols == 0) {
                Py_INCREF(seed);
                column = seed;
            }
            else {
                column = column_list(out_rows, out_scores, kept_count);
                FAIL_UNLESS(column != NULL);
            }
            counter++;
            entry = frontier_entry(bound, VIABLE_AFTER, counter, tree_node, column, max_score, depth);
            FAIL_UNLESS(entry != NULL);
        }
        else if (max_score >= min_score) {
            counter++;
            Py_INCREF(Py_None);
            entry = frontier_entry(max_score, ACCEPTED_FIRST, counter, tree_node, Py_None,
                                   max_score, depth);
            FAIL_UNLESS(entry != NULL);
        }
        else if (view) {
            /* UNVIABLE: never enqueued, so its number and flag mean nothing. */
            Py_INCREF(Py_None);
            entry = frontier_entry(max_score, VIABLE_AFTER, counter, tree_node, Py_None,
                                   max_score, depth);
            FAIL_UNLESS(entry != NULL);
        }
        else {
            dropped++;
        }
        if (entry != NULL) {
            status = PyList_Append(kept, entry);
            Py_DECREF(entry);
            FAIL_UNLESS(status == 0);
        }
        if (view) {
            best_object = PyLong_FromLongLong(best);
            FAIL_UNLESS(best_object != NULL);
            status = PyList_Append(arc_bests, best_object);
            Py_DECREF(best_object);
            FAIL_UNLESS(status == 0);
        }
        Py_CLEAR(arc);
        Py_CLEAR(tree_node);
        Py_CLEAR(sibling);
    }

    FAIL_UNLESS(add_to_attribute(context, state->columns_expanded, columns) == 0);
    if (!view) {
        FAIL_UNLESS(set_attribute(context, state->nodes_enqueued, counter) == 0);
        FAIL_UNLESS(add_to_attribute(context, state->nodes_dropped, dropped) == 0);
    }
    PyMem_Free(scratch);
    Py_DECREF(seed);
    Py_DECREF(heuristic);
    Py_DECREF(profile);
    return kept;

error:
    PyMem_Free(scratch);
    Py_DECREF(seed);
    Py_XDECREF(heuristic);
    Py_XDECREF(profile);
    Py_XDECREF(kept);
    Py_XDECREF(sibling);
    Py_XDECREF(tree_node);
    Py_XDECREF(arc);
    return NULL;
}

static PyMethodDef step_methods[] = {
    {"expand", (PyCFunction)(void (*)(void))expand, METH_FASTCALL,
     "expand(parent, siblings, context, arc_bests=None) -> list of frontier entries\n\n"
     "The live-cell column step over one sibling list (kernels._expand_live)."},
    {NULL, NULL, 0, NULL},
};

static int
step_exec(PyObject *module)
{
    step_state *state = PyModule_GetState(module);

#define INTERN(field)                                       \
    state->field = PyUnicode_InternFromString(#field);      \
    if (state->field == NULL)                               \
        return -1;
    INTERN(gap_penalty)
    INTERN(min_score)
    INTERN(packed_heuristic)
    INTERN(packed_profile)
    INTERN(nodes_enqueued)
    INTERN(nodes_dropped)
    INTERN(columns_expanded)
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
