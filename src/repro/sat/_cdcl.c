/*
 * Compiled CDCL core behind repro.sat.solver.Solver.
 *
 * A line-for-line port of the Python core (repro.sat.solver.PythonCore):
 * same data layout, same operation order, so decisions, watch-list
 * order, heap order, learnt clauses, models, cores and counters are
 * identical (see the design notes in solver.py for the exactness list).
 * Literals are DIMACS ints; literal l is watched in list WATCH(l) and
 * clauses watching the literal falsified by p live in list WIDX(p).
 *
 * The interpreter is consulted exactly where the Python core consults
 * it: rng.random(), rng.choice(free), polarity_weights.get(v, 0.5) and
 * deadline.expired().  Signals are checked (and the GIL offered to other
 * threads) at every point where the Python core could check a deadline.
 *
 * Allocation failure deep inside the search sets `nomem`; the public
 * method that was running then raises MemoryError and the core refuses
 * further calls.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <limits.h>
#include <math.h>
#include <string.h>

#define RESCALE_LIMIT 1e100
#define RESCALE_FACTOR 1e-100
#define MAX_VAR (INT_MAX / 2 - 2)

#define WIDX(l) ((l) > 0 ? 2 * (Py_ssize_t)(l) : 1 - 2 * (Py_ssize_t)(l))
#define WATCH(l) ((l) > 0 ? 2 * (Py_ssize_t)(l) + 1 : -2 * (Py_ssize_t)(l))
#define VAR(l) ((l) > 0 ? (l) : -(l))

typedef struct {
    double activity;
    int size;
    char learnt;
    char deleted;
    char removed;          /* scratch mark for reduce_db */
    int lits[];
} Clause;

typedef struct { Clause **data; Py_ssize_t len, cap; } ClauseVec;
typedef struct { int *data; Py_ssize_t len, cap; } IntVec;
typedef struct { double key; int var; } HeapEntry;  /* (-activity, var) */

enum { MODE_SAVED, MODE_RANDOM, MODE_WEIGHTED, MODE_TRUE, MODE_FALSE };
enum { S_ERROR = -1, S_RESTART, S_SAT, S_UNSAT, S_UNKNOWN };

typedef struct {
    PyObject_HEAD
    /* heuristic knobs, read at the points the Python core reads them */
    PyObject *rng, *polarity_mode, *polarity_weights, *default_phase;
    double random_var_freq;
    /* results and counters */
    PyObject *model, *core;
    long long conflicts, decisions, propagations, restarts;
    char ok, nomem;
    /* per-variable state, 1-based (index 0 unused) */
    Py_ssize_t num_vars, cap;
    signed char *assigns;          /* 0 unassigned, 1 true, -1 false */
    int *level;
    Clause **reason;
    double *activity;
    char *phase, *in_heap, *seen;
    signed char *mark;             /* add_clause duplicate/tautology marks */
    int *var_group;                /* selector var -> group id, else -1 */
    ClauseVec *watches;            /* 2 * (cap + 1) lists */
    int *trail;
    Py_ssize_t trail_len, qhead;
    IntVec trail_lim;
    ClauseVec clauses, learnts;    /* clauses keeps released ones until compaction */
    Py_ssize_t dead_clauses;
    double var_inc, var_decay, cla_inc, cla_decay;
    HeapEntry *heap;
    Py_ssize_t heap_len, heap_cap;
    /* clause groups: ids 0..ngroups-1 */
    int *group_selector;
    char *group_released;
    ClauseVec *group_clauses;
    Py_ssize_t ngroups, groups_cap;
    /* scratch */
    IntVec learnt, lits, assumps, core_buf;
    int mode;
} Core;

static PyObject *ReproError;
static PyObject *str_SAT, *str_UNSAT, *str_UNKNOWN;
static PyObject *str_random, *str_choice, *str_get, *str_expired;
static PyObject *half;   /* 0.5 */

/* ------------------------------------------------------------------ */
/* growable arrays                                                      */
/* ------------------------------------------------------------------ */
static int
grow(void **data, Py_ssize_t *cap, Py_ssize_t need, size_t elem)
{
    Py_ssize_t n;
    void *p;
    if (need <= *cap)
        return 0;
    n = *cap ? *cap : 4;
    while (n < need)
        n *= 2;
    p = PyMem_Realloc(*data, (size_t)n * elem);
    if (p == NULL)
        return -1;
    *data = p;
    *cap = n;
    return 0;
}

static inline void
cvec_push(Core *s, ClauseVec *v, Clause *c)
{
    if (v->len == v->cap
            && grow((void **)&v->data, &v->cap, v->len + 1, sizeof(Clause *)) < 0) {
        s->nomem = 1;
        return;
    }
    v->data[v->len++] = c;
}

static inline void
ivec_push(Core *s, IntVec *v, int x)
{
    if (v->len == v->cap
            && grow((void **)&v->data, &v->cap, v->len + 1, sizeof(int)) < 0) {
        s->nomem = 1;
        return;
    }
    v->data[v->len++] = x;
}

static inline int
lit_val(const signed char *assigns, int l)
{
    return l > 0 ? assigns[l] : -assigns[-l];
}

/* ------------------------------------------------------------------ */
/* heapq over (-activity, var), replicating CPython's _heapq           */
/* ------------------------------------------------------------------ */
static inline int
heap_lt(HeapEntry a, HeapEntry b)
{
    /* tuple comparison: first differing element decides */
    if (a.key != b.key)
        return a.key < b.key;
    return a.var < b.var;
}

static inline void
heap_siftdown(HeapEntry *h, Py_ssize_t startpos, Py_ssize_t pos)
{
    HeapEntry newitem = h[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        if (!heap_lt(newitem, h[parentpos]))
            break;
        h[pos] = h[parentpos];
        pos = parentpos;
    }
    h[pos] = newitem;
}

static inline void
heap_siftup(HeapEntry *h, Py_ssize_t endpos, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos, limit = endpos >> 1;
    HeapEntry newitem = h[pos];
    while (pos < limit) {
        Py_ssize_t childpos = 2 * pos + 1;
        if (childpos + 1 < endpos && !heap_lt(h[childpos], h[childpos + 1]))
            childpos += 1;
        h[pos] = h[childpos];
        pos = childpos;
    }
    h[pos] = newitem;
    heap_siftdown(h, startpos, pos);
}

static inline void
heap_push(Core *s, double key, int var)
{
    if (s->heap_len == s->heap_cap
            && grow((void **)&s->heap, &s->heap_cap, s->heap_len + 1,
                    sizeof(HeapEntry)) < 0) {
        s->nomem = 1;
        return;
    }
    s->heap[s->heap_len].key = key;
    s->heap[s->heap_len].var = var;
    heap_siftdown(s->heap, 0, s->heap_len++);
}

static inline HeapEntry
heap_pop(Core *s)
{
    HeapEntry last = s->heap[--s->heap_len], top;
    if (s->heap_len == 0)
        return last;
    top = s->heap[0];
    s->heap[0] = last;
    heap_siftup(s->heap, s->heap_len, 0);
    return top;
}

/* ------------------------------------------------------------------ */
/* variables and clauses                                                */
/* ------------------------------------------------------------------ */
static int
reserve_capacity(Core *s, Py_ssize_t n)
{
    Py_ssize_t cap = s->cap ? s->cap : 16, old = s->cap, i;
    if (n <= s->cap)
        return 0;
    while (cap < n)
        cap *= 2;
#define REALLOC(field, type, count)                                         \
    do {                                                                    \
        void *p = PyMem_Realloc(s->field, (size_t)(count) * sizeof(type));  \
        if (p == NULL) { PyErr_NoMemory(); return -1; }                     \
        s->field = p;                                                       \
    } while (0)
    REALLOC(assigns, signed char, cap + 1);
    REALLOC(level, int, cap + 1);
    REALLOC(reason, Clause *, cap + 1);
    REALLOC(activity, double, cap + 1);
    REALLOC(phase, char, cap + 1);
    REALLOC(in_heap, char, cap + 1);
    REALLOC(seen, char, cap + 1);
    REALLOC(mark, signed char, cap + 1);
    REALLOC(var_group, int, cap + 1);
    REALLOC(trail, int, cap + 1);
    REALLOC(watches, ClauseVec, 2 * (cap + 1));
#undef REALLOC
    for (i = old ? 2 * (old + 1) : 0; i < 2 * (cap + 1); i++) {
        s->watches[i].data = NULL;
        s->watches[i].len = s->watches[i].cap = 0;
    }
    s->cap = cap;
    return 0;
}

static int
ensure_vars(Core *s, Py_ssize_t n)
{
    int ph;
    if (n <= s->num_vars)
        return 0;
    if (n > MAX_VAR) {
        PyErr_SetString(PyExc_OverflowError, "too many variables");
        return -1;
    }
    if (reserve_capacity(s, n) < 0)
        return -1;
    ph = PyObject_IsTrue(s->default_phase ? s->default_phase : Py_False);
    if (ph < 0)
        return -1;
    while (s->num_vars < n) {
        int v = (int)++s->num_vars;
        s->assigns[v] = 0;
        s->level[v] = 0;
        s->reason[v] = NULL;
        s->activity[v] = 0.0;
        s->phase[v] = (char)ph;
        s->seen[v] = 0;
        s->mark[v] = 0;
        s->var_group[v] = -1;
        s->in_heap[v] = 1;
        heap_push(s, 0.0, v);
    }
    if (s->nomem) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static Clause *
clause_new(Core *s, const int *lits, Py_ssize_t n, int learnt)
{
    Clause *c = PyMem_Malloc(sizeof(Clause) + (size_t)n * sizeof(int));
    if (c == NULL) {
        s->nomem = 1;
        return NULL;
    }
    c->activity = 0.0;
    c->size = (int)n;
    c->learnt = (char)learnt;
    c->deleted = 0;
    c->removed = 0;
    memcpy(c->lits, lits, (size_t)n * sizeof(int));
    return c;
}

static inline void
watch_clause(Core *s, Clause *c)
{
    cvec_push(s, &s->watches[WATCH(c->lits[0])], c);
    cvec_push(s, &s->watches[WATCH(c->lits[1])], c);
}

static inline int
enqueue(Core *s, int lit, Clause *reason)
{
    int v = VAR(lit);
    signed char value = s->assigns[v];
    if (value)
        return value == (lit > 0 ? 1 : -1);
    s->assigns[v] = lit > 0 ? 1 : -1;
    s->level[v] = (int)s->trail_lim.len;
    s->reason[v] = reason;
    s->trail[s->trail_len++] = lit;
    return 1;
}

static void
cancel_until(Core *s, Py_ssize_t target)
{
    Py_ssize_t bound, i;
    if (s->trail_lim.len <= target)
        return;
    bound = s->trail_lim.data[target];
    for (i = s->trail_len - 1; i >= bound; i--) {
        int v = VAR(s->trail[i]);
        s->phase[v] = s->assigns[v] > 0;
        s->assigns[v] = 0;
        s->reason[v] = NULL;
        if (!s->in_heap[v]) {
            s->in_heap[v] = 1;
            heap_push(s, -s->activity[v], v);
        }
    }
    s->trail_len = bound;
    s->trail_lim.len = target;
    s->qhead = bound;
}

/* ------------------------------------------------------------------ */
/* propagation                                                          */
/* ------------------------------------------------------------------ */
static Clause *
propagate(Core *s)
{
    signed char *assigns = s->assigns;
    int *trail = s->trail;
    int decision_level = (int)s->trail_lim.len;
    Py_ssize_t qhead = s->qhead, start = qhead;

    while (qhead < s->trail_len) {
        int p = trail[qhead++];
        int false_lit = -p;
        ClauseVec *ws = &s->watches[WIDX(p)];
        Clause **data = ws->data;
        Py_ssize_t n = ws->len, i, j = 0;
        for (i = 0; i < n; i++) {
            Clause *c = data[i];
            int *lits = c->lits;
            int first, first_value, k;
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            first = lits[0];
            first_value = lit_val(assigns, first);
            if (first_value == 1) {
                data[j++] = c;
                continue;
            }
            for (k = 2; k < c->size; k++) {
                int l = lits[k];
                if (lit_val(assigns, l) != -1) {
                    lits[k] = lits[1];
                    lits[1] = l;
                    cvec_push(s, &s->watches[WATCH(l)], c);
                    break;
                }
            }
            if (k < c->size)
                continue;
            data[j++] = c;
            if (first_value != 0) {
                /* conflict: keep the remaining watchers */
                for (i++; i < n; i++)
                    data[j++] = data[i];
                ws->len = j;
                s->propagations += qhead - start;
                s->qhead = s->trail_len;
                return c;
            }
            {
                int v = VAR(first);
                assigns[v] = first > 0 ? 1 : -1;
                s->level[v] = decision_level;
                s->reason[v] = c;
                trail[s->trail_len++] = first;
            }
        }
        ws->len = j;
    }
    s->propagations += qhead - start;
    s->qhead = qhead;
    return NULL;
}

/* ------------------------------------------------------------------ */
/* heuristics                                                           */
/* ------------------------------------------------------------------ */
static inline void
bump_var(Core *s, int v)
{
    s->activity[v] += s->var_inc;
    if (s->activity[v] > RESCALE_LIMIT) {
        Py_ssize_t i;
        for (i = 1; i <= s->num_vars; i++)
            s->activity[i] *= RESCALE_FACTOR;
        s->var_inc *= RESCALE_FACTOR;
    }
    heap_push(s, -s->activity[v], v);
    s->in_heap[v] = 1;
}

static inline void
bump_clause(Core *s, Clause *c)
{
    c->activity += s->cla_inc;
    if (c->activity > RESCALE_LIMIT) {
        Py_ssize_t i;
        for (i = 0; i < s->learnts.len; i++)
            s->learnts.data[i]->activity *= RESCALE_FACTOR;
        s->cla_inc *= RESCALE_FACTOR;
    }
}

static PyObject *
call_random(Core *s)
{
    return PyObject_CallMethodNoArgs(s->rng ? s->rng : Py_None, str_random);
}

/* `r < bound` with Python semantics; -1 on error. */
static int
less_than(PyObject *r, PyObject *bound)
{
    if (PyFloat_CheckExact(r) && PyFloat_CheckExact(bound))
        return PyFloat_AS_DOUBLE(r) < PyFloat_AS_DOUBLE(bound);
    return PyObject_RichCompareBool(r, bound, Py_LT);
}

/* Writes the branch variable (0 when every variable is assigned). */
static int
pick_branch_var(Core *s, int *out)
{
    signed char *assigns = s->assigns;
    Py_ssize_t v;
    if (s->random_var_freq > 0) {
        PyObject *r = call_random(s);
        double value;
        if (r == NULL)
            return -1;
        value = PyFloat_AsDouble(r);
        Py_DECREF(r);
        if (value == -1.0 && PyErr_Occurred())
            return -1;
        if (value < s->random_var_freq) {
            PyObject *free = PyList_New(0), *choice;
            long picked;
            if (free == NULL)
                return -1;
            for (v = 1; v <= s->num_vars; v++) {
                if (!assigns[v]) {
                    PyObject *item = PyLong_FromSsize_t(v);
                    if (item == NULL || PyList_Append(free, item) < 0) {
                        Py_XDECREF(item);
                        Py_DECREF(free);
                        return -1;
                    }
                    Py_DECREF(item);
                }
            }
            if (PyList_GET_SIZE(free) > 0) {
                choice = PyObject_CallMethodOneArg(s->rng, str_choice, free);
                Py_DECREF(free);
                if (choice == NULL)
                    return -1;
                picked = PyLong_AsLong(choice);
                Py_DECREF(choice);
                if (picked == -1 && PyErr_Occurred())
                    return -1;
                *out = (int)picked;
                return 0;
            }
            Py_DECREF(free);
        }
    }
    while (s->heap_len) {
        HeapEntry e = heap_pop(s);
        int var = e.var;
        s->in_heap[var] = 0;
        if (assigns[var])
            continue;
        if (-e.key != s->activity[var]) {
            /* stale entry: reinsert with the fresh activity and retry */
            heap_push(s, -s->activity[var], var);
            s->in_heap[var] = 1;
            continue;
        }
        *out = var;
        return 0;
    }
    for (v = 1; v <= s->num_vars; v++) {
        if (!assigns[v]) {
            *out = (int)v;
            return 0;
        }
    }
    *out = 0;
    return 0;
}

/* 1 for the positive literal, 0 for the negative, -1 on error. */
static int
pick_polarity(Core *s, int v)
{
    PyObject *r, *w, *key;
    int result;
    switch (s->mode) {
    case MODE_TRUE:
        return 1;
    case MODE_FALSE:
        return 0;
    case MODE_RANDOM:
        r = call_random(s);
        if (r == NULL)
            return -1;
        result = less_than(r, half);
        Py_DECREF(r);
        return result;
    case MODE_WEIGHTED:
        r = call_random(s);
        if (r == NULL)
            return -1;
        key = PyLong_FromLong(v);
        if (key == NULL) {
            Py_DECREF(r);
            return -1;
        }
        if (s->polarity_weights && PyDict_CheckExact(s->polarity_weights)) {
            w = PyDict_GetItemWithError(s->polarity_weights, key);
            if (w == NULL && PyErr_Occurred()) {
                Py_DECREF(key);
                Py_DECREF(r);
                return -1;
            }
            w = w ? w : half;
            Py_INCREF(w);
        }
        else {
            w = PyObject_CallMethodObjArgs(
                s->polarity_weights ? s->polarity_weights : Py_None,
                str_get, key, half, NULL);
        }
        Py_DECREF(key);
        if (w == NULL) {
            Py_DECREF(r);
            return -1;
        }
        result = less_than(r, w);
        Py_DECREF(r);
        Py_DECREF(w);
        return result;
    default:
        return s->phase[v] != 0;
    }
}

static int
parse_mode(PyObject *mode)
{
    static const char *names[] = {"random", "weighted", "true", "false"};
    static const int modes[] = {MODE_RANDOM, MODE_WEIGHTED, MODE_TRUE, MODE_FALSE};
    int i;
    if (mode == NULL || !PyUnicode_Check(mode))
        return MODE_SAVED;
    for (i = 0; i < 4; i++)
        if (PyUnicode_CompareWithASCIIString(mode, names[i]) == 0)
            return modes[i];
    return MODE_SAVED;
}

/* ------------------------------------------------------------------ */
/* conflict analysis                                                    */
/* ------------------------------------------------------------------ */
static int
analyze(Core *s, Clause *conflict, Py_ssize_t *bt_level)
{
    IntVec *learnt = &s->learnt;
    int *level = s->level, *trail = s->trail;
    char *seen = s->seen;
    int decision_level = (int)s->trail_lim.len;
    int counter = 0, p = 0, v, *reason_lits = conflict->lits;
    int reason_size = conflict->size;
    Py_ssize_t index = s->trail_len, i, j, original;

    learnt->len = 0;
    ivec_push(s, learnt, 0);
    for (;;) {
        for (i = 0; i < reason_size; i++) {
            int q = reason_lits[i];
            if (q == p)
                continue;
            v = VAR(q);
            if (!seen[v] && level[v] > 0) {
                seen[v] = 1;
                bump_var(s, v);
                if (level[v] >= decision_level)
                    counter++;
                else
                    ivec_push(s, learnt, q);
            }
        }
        /* walk the trail back to the next marked literal */
        do {
            if (index == 0) {
                PyErr_SetString(PyExc_SystemError,
                                "conflict analysis ran off the trail");
                return -1;
            }
            p = trail[--index];
            v = VAR(p);
        } while (!seen[v]);
        counter--;
        seen[v] = 0;
        if (counter == 0) {
            learnt->data[0] = -p;
            break;
        }
        {
            Clause *reason = s->reason[v];
            if (reason != NULL) {
                reason_lits = reason->lits;
                reason_size = reason->size;
                if (reason->learnt)
                    bump_clause(s, reason);
            }
            else {
                reason_size = 0;
            }
        }
    }
    if (s->nomem)
        return -1;

    /* minimize: drop literals whose reason is subsumed by the clause;
       `seen` marks exactly the variables of learnt[1:] here */
    original = learnt->len;
    for (i = 1, j = 1; i < original; i++) {
        int l = learnt->data[i];
        Clause *reason = s->reason[VAR(l)];
        int keep = reason == NULL;
        if (!keep) {
            int k;
            for (k = 0; k < reason->size; k++) {
                int q = reason->lits[k];
                if (q != -l && !seen[VAR(q)] && level[VAR(q)] != 0) {
                    keep = 1;
                    break;
                }
            }
        }
        if (keep) {
            /* swap, so the dropped literals stay past the new end */
            learnt->data[i] = learnt->data[j];
            learnt->data[j++] = l;
        }
    }
    for (i = 1; i < original; i++)
        seen[VAR(learnt->data[i])] = 0;
    learnt->len = j;
    if (j == 1) {
        *bt_level = 0;
    }
    else {
        Py_ssize_t max_i = 1;
        int tmp;
        for (i = 2; i < j; i++)
            if (level[VAR(learnt->data[i])] > level[VAR(learnt->data[max_i])])
                max_i = i;
        tmp = learnt->data[1];
        learnt->data[1] = learnt->data[max_i];
        learnt->data[max_i] = tmp;
        *bt_level = level[VAR(learnt->data[1])];
    }
    return 0;
}

static void
analyze_final(Core *s, int p)
{
    IntVec *core = &s->core_buf;
    Py_ssize_t i;
    core->len = 0;
    ivec_push(s, core, p);
    if (s->trail_lim.len == 0)
        return;
    s->seen[VAR(p)] = 1;
    for (i = s->trail_len - 1; i >= s->trail_lim.data[0]; i--) {
        int lit = s->trail[i], v = VAR(lit);
        Clause *reason;
        if (!s->seen[v])
            continue;
        reason = s->reason[v];
        if (reason == NULL) {
            ivec_push(s, core, lit);
        }
        else {
            int k;
            for (k = 0; k < reason->size; k++) {
                int q = VAR(reason->lits[k]);
                if (s->level[q] > 0)
                    s->seen[q] = 1;
            }
        }
        s->seen[v] = 0;
    }
    s->seen[VAR(p)] = 0;
}

/* ------------------------------------------------------------------ */
/* learnt DB management                                                 */
/* ------------------------------------------------------------------ */
static void
sort_by_activity(Clause **a, Clause **tmp, Py_ssize_t n)
{
    /* bottom-up merge sort: stable, like list.sort */
    Py_ssize_t width, i;
    Clause **src = a, **dst = tmp, **swap;
    for (width = 1; width < n; width *= 2) {
        for (i = 0; i < n; i += 2 * width) {
            Py_ssize_t lo = i, mid = i + width, hi = i + 2 * width, l, r, k;
            if (mid > n) mid = n;
            if (hi > n) hi = n;
            l = lo; r = mid; k = lo;
            while (l < mid && r < hi) {
                if (src[r]->activity < src[l]->activity)
                    dst[k++] = src[r++];
                else
                    dst[k++] = src[l++];
            }
            while (l < mid) dst[k++] = src[l++];
            while (r < hi) dst[k++] = src[r++];
        }
        swap = src; src = dst; dst = swap;
    }
    if (src != a)
        memcpy(a, src, (size_t)n * sizeof(Clause *));
}

static void
filter_removed(ClauseVec *ws)
{
    Py_ssize_t i, j = 0;
    for (i = 0; i < ws->len; i++)
        if (!ws->data[i]->removed)
            ws->data[j++] = ws->data[i];
    ws->len = j;
}

static void
reduce_db(Core *s)
{
    ClauseVec *learnts = &s->learnts;
    Py_ssize_t n = learnts->len, keep_from = n / 2, i, j = 0, nremoved = 0;
    Clause **tmp = PyMem_Malloc((size_t)(n ? n : 1) * sizeof(Clause *));
    if (tmp == NULL) {
        s->nomem = 1;
        return;
    }
    sort_by_activity(learnts->data, tmp, n);
    for (i = 0; i < n; i++) {
        Clause *c = learnts->data[i];
        int locked = s->reason[VAR(c->lits[0])] == c;
        if (i < keep_from && c->size > 2 && !locked) {
            c->removed = 1;
            tmp[nremoved++] = c;
        }
        else {
            learnts->data[j++] = c;
        }
    }
    learnts->len = j;
    /* watches stay in lits[0]/lits[1], so only these lists hold them */
    for (i = 0; i < nremoved; i++) {
        filter_removed(&s->watches[WATCH(tmp[i]->lits[0])]);
        filter_removed(&s->watches[WATCH(tmp[i]->lits[1])]);
    }
    for (i = 0; i < nremoved; i++)
        PyMem_Free(tmp[i]);
    PyMem_Free(tmp);
}

/* ------------------------------------------------------------------ */
/* search                                                               */
/* ------------------------------------------------------------------ */

/* Run pending signal handlers and let other threads take the GIL. */
static int
poll_interpreter(void)
{
    if (PyErr_CheckSignals() < 0)
        return -1;
    Py_BEGIN_ALLOW_THREADS
    Py_END_ALLOW_THREADS
    return 0;
}

static int
deadline_expired(PyObject *deadline)
{
    PyObject *r = PyObject_CallMethodNoArgs(deadline, str_expired);
    int truth;
    if (r == NULL)
        return -1;
    truth = PyObject_IsTrue(r);
    Py_DECREF(r);
    return truth;
}

static PyObject *
build_model(Core *s)
{
    PyObject *model = PyDict_New();
    Py_ssize_t v;
    if (model == NULL)
        return NULL;
    for (v = 1; v <= s->num_vars; v++) {
        PyObject *key;
        int rc;
        if (s->ngroups && s->var_group[v] >= 0)
            continue;  /* selectors never escape */
        key = PyLong_FromSsize_t(v);
        if (key == NULL) {
            Py_DECREF(model);
            return NULL;
        }
        rc = PyDict_SetItem(model, key, s->assigns[v] > 0 ? Py_True : Py_False);
        Py_DECREF(key);
        if (rc < 0) {
            Py_DECREF(model);
            return NULL;
        }
    }
    return model;
}

static int
search(Core *s, long long restart_budget, long long start_conflicts,
       int has_budget, double conflict_budget, PyObject *deadline,
       Py_ssize_t max_learnts)
{
    long long conflicts_here = 0;
    const int *assumptions = s->assumps.data;
    Py_ssize_t nassumptions = s->assumps.len;
    for (;;) {
        Clause *conflict = propagate(s);
        int next_lit = 0;
        if (s->nomem)
            return S_ERROR;
        if (conflict != NULL) {
            Py_ssize_t bt_level;
            s->conflicts++;
            conflicts_here++;
            if (s->trail_lim.len == 0) {
                s->ok = 0;
                s->core_buf.len = 0;
                return S_UNSAT;
            }
            if (analyze(s, conflict, &bt_level) < 0)
                return S_ERROR;
            cancel_until(s, bt_level);
            if (s->learnt.len == 1) {
                enqueue(s, s->learnt.data[0], NULL);
            }
            else {
                Clause *c = clause_new(s, s->learnt.data, s->learnt.len, 1);
                if (c == NULL)
                    return S_ERROR;
                cvec_push(s, &s->learnts, c);
                watch_clause(s, c);
                bump_clause(s, c);
                enqueue(s, s->learnt.data[0], c);
            }
            if (s->nomem)
                return S_ERROR;
            s->var_inc /= s->var_decay;
            s->cla_inc /= s->cla_decay;
            if ((s->conflicts & 255) == 0) {
                if (poll_interpreter() < 0)
                    return S_ERROR;
                if (deadline != Py_None) {
                    int expired = deadline_expired(deadline);
                    if (expired < 0)
                        return S_ERROR;
                    if (expired)
                        return S_UNKNOWN;
                }
            }
            if (has_budget
                    && (double)(s->conflicts - start_conflicts) >= conflict_budget)
                return S_UNKNOWN;
            if (conflicts_here >= restart_budget) {
                cancel_until(s, 0);
                return S_RESTART;
            }
            continue;
        }

        if (s->learnts.len > max_learnts + s->trail_len) {
            reduce_db(s);
            if (s->nomem)
                return S_ERROR;
        }

        /* replay assumptions as the first decisions */
        while (s->trail_lim.len < nassumptions) {
            int p = assumptions[s->trail_lim.len];
            int value = lit_val(s->assigns, p);
            if (value == 1) {
                ivec_push(s, &s->trail_lim, (int)s->trail_len);  /* dummy level */
                if (s->nomem)
                    return S_ERROR;
            }
            else if (value == -1) {
                analyze_final(s, p);
                return s->nomem ? S_ERROR : S_UNSAT;
            }
            else {
                next_lit = p;
                break;
            }
        }
        if (next_lit == 0) {
            int v, polarity;
            if (pick_branch_var(s, &v) < 0)
                return S_ERROR;
            if (v == 0) {
                s->model = build_model(s);
                return s->model == NULL ? S_ERROR : S_SAT;
            }
            polarity = pick_polarity(s, v);
            if (polarity < 0)
                return S_ERROR;
            next_lit = polarity ? v : -v;
        }
        s->decisions++;
        ivec_push(s, &s->trail_lim, (int)s->trail_len);
        if (s->nomem)
            return S_ERROR;
        enqueue(s, next_lit, NULL);
    }
}

static double
luby(double y, long long x)
{
    long long size = 1, seq = 0;
    while (size < x + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x = x % size;
    }
    return pow(y, (double)seq);
}

/* ------------------------------------------------------------------ */
/* Python surface                                                       */
/* ------------------------------------------------------------------ */
static int
check_usable(Core *s)
{
    if (s->nomem) {
        PyErr_SetString(PyExc_MemoryError,
                        "the compiled CDCL core ran out of memory earlier");
        return -1;
    }
    return 0;
}

static PyObject *
fail_nomem(Core *s)
{
    s->nomem = 1;
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    return NULL;
}

static int
to_lit(PyObject *obj, int *out)
{
    long x;
    if (PyLong_CheckExact(obj)) {
        x = PyLong_AsLong(obj);
    }
    else {
        PyObject *n = PyNumber_Long(obj);
        if (n == NULL)
            return -1;
        x = PyLong_AsLong(n);
        Py_DECREF(n);
    }
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (x > MAX_VAR || x < -MAX_VAR) {
        PyErr_SetString(PyExc_OverflowError, "literal out of range");
        return -1;
    }
    *out = (int)x;
    return 0;
}

/* Append int(l) for every l in `iterable` to `vec`. */
static int
collect_lits(Core *s, PyObject *iterable, IntVec *vec)
{
    PyObject *seq = PySequence_Fast(iterable, "literals must be iterable");
    Py_ssize_t i, n;
    if (seq == NULL)
        return -1;
    n = PySequence_Fast_GET_SIZE(seq);
    for (i = 0; i < n; i++) {
        int lit;
        if (to_lit(PySequence_Fast_GET_ITEM(seq, i), &lit) < 0) {
            Py_DECREF(seq);
            return -1;
        }
        ivec_push(s, vec, lit);
    }
    Py_DECREF(seq);
    if (s->nomem) {
        fail_nomem(s);
        return -1;
    }
    return 0;
}

/* The index of a live-or-released group id, or -1 (with ReproError). */
static Py_ssize_t
group_index(Core *s, PyObject *group)
{
    Py_ssize_t g = -1;
    PyObject *index = PyNumber_Index(group);
    if (index != NULL) {
        g = PyLong_AsSsize_t(index);
        Py_DECREF(index);
    }
    PyErr_Clear();
    if (g < 0 || g >= s->ngroups) {
        PyErr_Format(ReproError, "unknown clause group %R", group);
        return -1;
    }
    return g;
}

static int
Core_init(Core *s, PyObject *args, PyObject *kwds)
{
    PyObject *rng, *mode, *default_phase, *weights;
    double freq;
    if (!PyArg_ParseTuple(args, "OOdOO:Core", &rng, &mode, &freq,
                          &default_phase, &weights))
        return -1;
    if (s->cap) {
        PyErr_SetString(PyExc_TypeError, "Core cannot be re-initialised");
        return -1;
    }
    Py_XSETREF(s->rng, Py_NewRef(rng));
    Py_XSETREF(s->polarity_mode, Py_NewRef(mode));
    Py_XSETREF(s->default_phase, Py_NewRef(default_phase));
    Py_XSETREF(s->polarity_weights, Py_NewRef(weights));
    s->random_var_freq = freq;
    s->ok = 1;
    s->var_inc = 1.0;
    s->var_decay = 0.95;
    s->cla_inc = 1.0;
    s->cla_decay = 0.999;
    if (reserve_capacity(s, 16) < 0)
        return -1;
    /* index 0 exists (unused), like the Python core's placeholder row */
    s->assigns[0] = 0;
    s->level[0] = 0;
    s->reason[0] = NULL;
    s->activity[0] = 0.0;
    s->phase[0] = 0;
    s->in_heap[0] = 0;
    s->seen[0] = 0;
    s->mark[0] = 0;
    s->var_group[0] = -1;
    return 0;
}

static void
Core_dealloc(Core *s)
{
    Py_ssize_t i;
    for (i = 0; i < s->clauses.len; i++)
        PyMem_Free(s->clauses.data[i]);
    for (i = 0; i < s->learnts.len; i++)
        PyMem_Free(s->learnts.data[i]);
    for (i = 0; i < 2 * (s->cap + 1) && s->watches; i++)
        PyMem_Free(s->watches[i].data);
    for (i = 0; i < s->ngroups; i++)
        PyMem_Free(s->group_clauses[i].data);
    PyMem_Free(s->clauses.data);
    PyMem_Free(s->learnts.data);
    PyMem_Free(s->watches);
    PyMem_Free(s->assigns);
    PyMem_Free(s->level);
    PyMem_Free(s->reason);
    PyMem_Free(s->activity);
    PyMem_Free(s->phase);
    PyMem_Free(s->in_heap);
    PyMem_Free(s->seen);
    PyMem_Free(s->mark);
    PyMem_Free(s->var_group);
    PyMem_Free(s->trail);
    PyMem_Free(s->trail_lim.data);
    PyMem_Free(s->heap);
    PyMem_Free(s->group_selector);
    PyMem_Free(s->group_released);
    PyMem_Free(s->group_clauses);
    PyMem_Free(s->learnt.data);
    PyMem_Free(s->lits.data);
    PyMem_Free(s->assumps.data);
    PyMem_Free(s->core_buf.data);
    Py_XDECREF(s->rng);
    Py_XDECREF(s->polarity_mode);
    Py_XDECREF(s->polarity_weights);
    Py_XDECREF(s->default_phase);
    Py_XDECREF(s->model);
    Py_XDECREF(s->core);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyObject *
Core_ensure_vars(Core *s, PyObject *arg)
{
    Py_ssize_t n;
    if (check_usable(s) < 0)
        return NULL;
    n = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (ensure_vars(s, n) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Core_reserve_var(Core *s, PyObject *unused)
{
    if (check_usable(s) < 0 || ensure_vars(s, s->num_vars + 1) < 0)
        return NULL;
    return PyLong_FromSsize_t(s->num_vars);
}

static PyObject *
Core_new_group(Core *s, PyObject *unused)
{
    Py_ssize_t g = s->ngroups;
    if (check_usable(s) < 0 || ensure_vars(s, s->num_vars + 1) < 0)
        return NULL;
    if (g == s->groups_cap) {
        Py_ssize_t cap = s->groups_cap;
        if (grow((void **)&s->group_selector, &cap, g + 1, sizeof(int)) < 0)
            return fail_nomem(s);
        cap = s->groups_cap;
        if (grow((void **)&s->group_released, &cap, g + 1, sizeof(char)) < 0)
            return fail_nomem(s);
        cap = s->groups_cap;
        if (grow((void **)&s->group_clauses, &cap, g + 1, sizeof(ClauseVec)) < 0)
            return fail_nomem(s);
        s->groups_cap = cap;
    }
    s->group_selector[g] = (int)s->num_vars;
    s->group_released[g] = 0;
    s->group_clauses[g].data = NULL;
    s->group_clauses[g].len = s->group_clauses[g].cap = 0;
    s->var_group[s->num_vars] = (int)g;
    s->ngroups = g + 1;
    return PyLong_FromSsize_t(g);
}

static PyObject *
Core_release_group(Core *s, PyObject *group)
{
    Py_ssize_t g, i, k;
    ClauseVec *clauses;
    int selector;
    if (check_usable(s) < 0)
        return NULL;
    g = group_index(s, group);
    if (g < 0)
        return NULL;
    if (s->group_released[g])
        Py_RETURN_NONE;
    s->group_released[g] = 1;
    selector = s->group_selector[g];
    clauses = &s->group_clauses[g];
    if (clauses->len) {
        for (i = 0; i < clauses->len; i++) {
            Clause *c = clauses->data[i];
            c->deleted = 1;
            for (k = 0; k < 2; k++) {
                ClauseVec *ws = &s->watches[WATCH(c->lits[k])];
                Py_ssize_t at;
                for (at = 0; at < ws->len && ws->data[at] != c; at++)
                    ;
                if (at < ws->len) {  /* remove the first occurrence */
                    memmove(ws->data + at, ws->data + at + 1,
                            (size_t)(ws->len - at - 1) * sizeof(Clause *));
                    ws->len--;
                }
            }
            /* a root-level reason may still name it; the Python core
               never reads reasons of root variables, so drop the link
               before the clause can be freed */
            if (s->reason[VAR(c->lits[0])] == c)
                s->reason[VAR(c->lits[0])] = NULL;
        }
        s->dead_clauses += clauses->len;
        if (s->dead_clauses > 64 && s->dead_clauses * 4 >= s->clauses.len) {
            Py_ssize_t j = 0;
            for (i = 0; i < s->clauses.len; i++) {
                Clause *c = s->clauses.data[i];
                if (c->deleted)
                    PyMem_Free(c);
                else
                    s->clauses.data[j++] = c;
            }
            s->clauses.len = j;
            s->dead_clauses = 0;
        }
    }
    PyMem_Free(clauses->data);
    clauses->data = NULL;
    clauses->len = clauses->cap = 0;
    if (s->ok && lit_val(s->assigns, -selector) != 1) {
        if (!enqueue(s, -selector, NULL))
            s->ok = 0;
        else
            s->ok = propagate(s) == NULL;
        if (s->nomem)
            return fail_nomem(s);
    }
    Py_RETURN_NONE;
}

static PyObject *
Core_add_clause(Core *s, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *group;
    IntVec *lits = &s->lits;
    Py_ssize_t i, n, g = -1, nout;
    int max_var = 0, root_true = 0, result;
    int *out;
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "add_clause(lits, group=None)");
        return NULL;
    }
    group = nargs == 2 ? args[1] : Py_None;
    if (check_usable(s) < 0)
        return NULL;
    if (!s->ok)
        Py_RETURN_FALSE;
    lits->len = 0;
    if (collect_lits(s, args[0], lits) < 0)
        return NULL;
    n = lits->len;
    if (s->ngroups) {
        for (i = 0; i < n; i++) {
            int v = VAR(lits->data[i]);
            if (v <= s->num_vars && s->var_group[v] >= 0) {
                PyErr_Format(ReproError,
                             "literal %d references a group selector; reserve "
                             "problem variables before opening groups",
                             lits->data[i]);
                return NULL;
            }
        }
    }
    if (group != Py_None) {
        g = group_index(s, group);
        if (g < 0)
            return NULL;
        if (s->group_released[g]) {
            PyErr_Format(ReproError, "clause group %R is released", group);
            return NULL;
        }
        ivec_push(s, lits, -s->group_selector[g]);
        if (s->nomem)
            return fail_nomem(s);
        n++;
    }
    for (i = 0; i < n; i++)
        if (VAR(lits->data[i]) > max_var)
            max_var = VAR(lits->data[i]);
    if (ensure_vars(s, max_var) < 0)
        return NULL;

    /* root-level simplification: drop falsified lits, detect tautology;
       `mark` holds the sign of each literal kept so far */
    out = lits->data;
    nout = 0;
    for (i = 0; i < n; i++) {
        int l = lits->data[i], v = VAR(l), sign = l > 0 ? 1 : -1;
        if (s->mark[v] == -sign) {
            root_true = 1;  /* tautology: trivially satisfied */
            break;
        }
        if (s->mark[v] == sign)
            continue;
        if (s->assigns[v] && s->level[v] == 0) {
            if (s->assigns[v] == sign) {
                root_true = 1;
                break;
            }
            continue;
        }
        s->mark[v] = (signed char)sign;
        out[nout++] = l;
    }
    for (i = 0; i < nout; i++)
        s->mark[VAR(out[i])] = 0;
    if (root_true)
        Py_RETURN_TRUE;
    if (nout == 0) {
        s->ok = 0;
        Py_RETURN_FALSE;
    }
    if (nout == 1) {
        if (!enqueue(s, out[0], NULL)) {
            s->ok = 0;
            Py_RETURN_FALSE;
        }
        s->ok = propagate(s) == NULL;
        if (s->nomem)
            return fail_nomem(s);
        result = s->ok;
        return PyBool_FromLong(result);
    }
    {
        Clause *c = clause_new(s, out, nout, 0);
        if (c == NULL)
            return fail_nomem(s);
        cvec_push(s, &s->clauses, c);
        watch_clause(s, c);
        if (g >= 0)
            cvec_push(s, &s->group_clauses[g], c);
        if (s->nomem)
            return fail_nomem(s);
    }
    Py_RETURN_TRUE;
}

static PyObject *
core_list(Core *s)
{
    PyObject *list = PyList_New(0);
    Py_ssize_t i;
    if (list == NULL)
        return NULL;
    for (i = 0; i < s->core_buf.len; i++) {
        int lit = s->core_buf.data[i];
        PyObject *item;
        if (s->ngroups && s->var_group[VAR(lit)] >= 0)
            continue;  /* selectors never escape */
        item = PyLong_FromLong(lit);
        if (item == NULL || PyList_Append(list, item) < 0) {
            Py_XDECREF(item);
            Py_DECREF(list);
            return NULL;
        }
        Py_DECREF(item);
    }
    return list;
}

static PyObject *
Core_solve(Core *s, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *deadline, *budget_obj;
    IntVec *assumps = &s->assumps, *lits = &s->lits;
    Py_ssize_t g, i, max_learnts;
    long long start_conflicts, restart_round = 0;
    double conflict_budget = 0.0;
    int has_budget, max_var = 0, status;

    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "solve(assumptions, conflict_budget, deadline)");
        return NULL;
    }
    budget_obj = args[1];
    deadline = args[2];
    if (check_usable(s) < 0)
        return NULL;
    Py_CLEAR(s->model);
    Py_CLEAR(s->core);
    lits->len = 0;
    if (collect_lits(s, args[0], lits) < 0)
        return NULL;
    /* live group selectors first, in group order */
    assumps->len = 0;
    for (g = 0; g < s->ngroups; g++)
        if (!s->group_released[g])
            ivec_push(s, assumps, s->group_selector[g]);
    for (i = 0; i < lits->len; i++)
        ivec_push(s, assumps, lits->data[i]);
    if (s->nomem)
        return fail_nomem(s);
    for (i = 0; i < assumps->len; i++)
        if (VAR(assumps->data[i]) > max_var)
            max_var = VAR(assumps->data[i]);
    if (ensure_vars(s, max_var) < 0)
        return NULL;
    if (!s->ok) {
        s->core = PyList_New(0);
        if (s->core == NULL)
            return NULL;
        Py_INCREF(str_UNSAT);
        return str_UNSAT;
    }
    has_budget = budget_obj != Py_None;
    if (has_budget) {
        conflict_budget = PyFloat_AsDouble(budget_obj);
        if (conflict_budget == -1.0 && PyErr_Occurred())
            return NULL;
    }
    s->mode = parse_mode(s->polarity_mode);
    start_conflicts = s->conflicts;
    max_learnts = s->clauses.len / 3;
    if (max_learnts < 1000)
        max_learnts = 1000;

    for (;;) {
        long long budget = (long long)(100 * luby(2.0, restart_round));
        restart_round++;
        status = search(s, budget, start_conflicts, has_budget,
                        conflict_budget, deadline, max_learnts);
        if (status == S_ERROR)
            return s->nomem ? fail_nomem(s) : NULL;
        if (status != S_RESTART) {
            cancel_until(s, 0);
            if (status == S_UNSAT) {
                s->core = core_list(s);
                if (s->core == NULL)
                    return NULL;
            }
            if (s->nomem)
                return fail_nomem(s);
            if (status == S_SAT) {
                Py_INCREF(str_SAT);
                return str_SAT;
            }
            if (status == S_UNSAT) {
                Py_INCREF(str_UNSAT);
                return str_UNSAT;
            }
            Py_INCREF(str_UNKNOWN);
            return str_UNKNOWN;
        }
        s->restarts++;
        if (has_budget
                && (double)(s->conflicts - start_conflicts) >= conflict_budget) {
            cancel_until(s, 0);
            Py_INCREF(str_UNKNOWN);
            return str_UNKNOWN;
        }
        if (poll_interpreter() < 0)
            return NULL;
        if (deadline != Py_None) {
            int expired = deadline_expired(deadline);
            if (expired < 0)
                return NULL;
            if (expired) {
                cancel_until(s, 0);
                Py_INCREF(str_UNKNOWN);
                return str_UNKNOWN;
            }
        }
    }
}

static PyObject *
Core_stats(Core *s, PyObject *unused)
{
    return Py_BuildValue("{sLsLsLsL}", "conflicts", s->conflicts,
                         "decisions", s->decisions,
                         "propagations", s->propagations,
                         "restarts", s->restarts);
}

static PyObject *
Core_clause_counts(Core *s, PyObject *unused)
{
    return Py_BuildValue("{snsnsn}", "clauses", s->clauses.len,
                         "live_clauses", s->clauses.len - s->dead_clauses,
                         "learnts", s->learnts.len);
}

static PyMethodDef Core_methods[] = {
    {"ensure_vars", (PyCFunction)Core_ensure_vars, METH_O, NULL},
    {"reserve_var", (PyCFunction)Core_reserve_var, METH_NOARGS, NULL},
    {"new_group", (PyCFunction)Core_new_group, METH_NOARGS, NULL},
    {"release_group", (PyCFunction)Core_release_group, METH_O, NULL},
    {"add_clause", (PyCFunction)(void (*)(void))Core_add_clause,
     METH_FASTCALL, NULL},
    {"solve", (PyCFunction)(void (*)(void))Core_solve, METH_FASTCALL, NULL},
    {"stats", (PyCFunction)Core_stats, METH_NOARGS, NULL},
    {"clause_counts", (PyCFunction)Core_clause_counts, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef Core_members[] = {
    {"rng", T_OBJECT, offsetof(Core, rng), 0, NULL},
    {"polarity_mode", T_OBJECT, offsetof(Core, polarity_mode), 0, NULL},
    {"polarity_weights", T_OBJECT, offsetof(Core, polarity_weights), 0, NULL},
    {"default_phase", T_OBJECT, offsetof(Core, default_phase), 0, NULL},
    {"random_var_freq", T_DOUBLE, offsetof(Core, random_var_freq), 0, NULL},
    {"model", T_OBJECT, offsetof(Core, model), READONLY, NULL},
    {"core", T_OBJECT, offsetof(Core, core), READONLY, NULL},
    {"num_vars", T_PYSSIZET, offsetof(Core, num_vars), READONLY, NULL},
    {"ok", T_BOOL, offsetof(Core, ok), READONLY, NULL},
    {"conflicts", T_LONGLONG, offsetof(Core, conflicts), READONLY, NULL},
    {"decisions", T_LONGLONG, offsetof(Core, decisions), READONLY, NULL},
    {"propagations", T_LONGLONG, offsetof(Core, propagations), READONLY, NULL},
    {"restarts", T_LONGLONG, offsetof(Core, restarts), READONLY, NULL},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sat._cdcl.Core",
    .tp_doc = "Compiled CDCL core: Core(rng, polarity_mode, "
              "random_var_freq, default_phase, polarity_weights).",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Core_init,
    .tp_dealloc = (destructor)Core_dealloc,
    .tp_methods = Core_methods,
    .tp_members = Core_members,
};

static struct PyModuleDef cdcl_module = {
    PyModuleDef_HEAD_INIT, "_cdcl",
    "Compiled CDCL core for repro.sat.solver.", -1, NULL,
};

PyMODINIT_FUNC
PyInit__cdcl(void)
{
    PyObject *module, *errors;
    errors = PyImport_ImportModule("repro.utils.errors");
    if (errors == NULL)
        return NULL;
    ReproError = PyObject_GetAttrString(errors, "ReproError");
    Py_DECREF(errors);
    if (ReproError == NULL)
        return NULL;
    str_SAT = PyUnicode_InternFromString("SAT");
    str_UNSAT = PyUnicode_InternFromString("UNSAT");
    str_UNKNOWN = PyUnicode_InternFromString("UNKNOWN");
    str_random = PyUnicode_InternFromString("random");
    str_choice = PyUnicode_InternFromString("choice");
    str_get = PyUnicode_InternFromString("get");
    str_expired = PyUnicode_InternFromString("expired");
    half = PyFloat_FromDouble(0.5);
    if (!str_SAT || !str_UNSAT || !str_UNKNOWN || !str_random || !str_choice
            || !str_get || !str_expired || !half)
        return NULL;
    if (PyType_Ready(&CoreType) < 0)
        return NULL;
    module = PyModule_Create(&cdcl_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
