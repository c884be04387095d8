/* Incremental CDCL SAT kernel, compiled edition.

   Same algorithm as qexpand._cdcl_py: identical decisions, models,
   counters, proof traces and cores, which every kernel records.  Keep
   the two in lock step; any behaviour change must land in both files.
   _cdcl_py.py is the reference and documents the algorithm.

   The order contract: each pick is the maximum of (activity, -index)
   over the unassigned variables.  Here a binary heap keeps it
   (_cdcl_py keeps a heapq list).  A rescale can round two activities
   to equal ones and leave the larger index above the smaller, so the
   heap is rebuilt after it.

   A solve takes no assumptions.  A SAT answer keeps its trail and the
   next solve goes on from it; every other exit, an error included,
   cancels to level 0.  A clause added with one literal free on the
   kept trail is lazy, listed in lazy and re-checked at every backtrack
   (recheck_lazy), and every clause records what it rests on, so that
   get_core can name the exact core; _cdcl_py documents both.

   Plain C against the CPython API, so any C compiler builds it and the
   module loads no C++ runtime.  Every function here runs with the
   interpreter lock held.  Literals use the encoding of _cdcl_py: 2*v
   for v, 2*v+1 for -v. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#include <limits.h>
#include <string.h>

#define SAT 1
#define UNSAT (-1)
#define UNKNOWN 0

#define RESCALE_LIMIT 1e100
#define RESCALE 1e-100
#define ACT_BUMP_DECAY (1.0 / 0.95)

/* Largest variable index: the literal 2*v+1 must fit in an int. */
#define MAX_VAR ((INT_MAX >> 1) - 1)

/* Returned by propagate when a watch list could not grow. */
#define PROPAGATE_ERROR (-2)

typedef struct {
    int *data;
    int size;
    int cap;
} ivec;

/* tag: the add_clause ordinal, or ~trace position for a learned clause.
   deps.data[dep..dep + ndep): the clauses it rests on and, as -v, the
   level-0 variables; see _cdcl_py. */
typedef struct {
    int size;
    int tag;
    int dep;
    int ndep;
    int lits[];
} Clause;

typedef struct {
    PyObject_HEAD
    int nvars;
    char ok;
    long long conflicts;
    long long decisions;
    long long propagations;
    long long restarts;
    long long num_clauses;
    PyObject *model;   /* list: None, then one bool per variable */
    int last_status;
    PyObject *trace;   /* list of learned-clause tuples */

    int cap;             /* per-variable slots allocated, index 0 unused */
    signed char *assigns; /* 0 undef, 1 true, 2 false */
    int *level;
    int *reason;         /* clause index, -1 for decisions */
    double *act;
    char *seen;
    int *hpos;           /* heap position, -1 when not in the heap */
    int *heap;
    int heap_size;
    int *trail;
    int trail_size;
    int *learnt;         /* analyze output, cap + 1 slots */
    int nlearnt;
    int *to_clear;
    ivec *watches;       /* per literal: indices of clauses watching it */
    Clause **clauses;
    int nclauses;
    int clauses_cap;
    ivec trail_lim;
    ivec deps;           /* every clause's dependencies, back to back */
    ivec lazy;           /* indices of lazy clauses */
    int added;           /* add_clause calls so far, the next ordinal */
    int final_confl;     /* the clause of the conflict at level 0 */
    ivec buf;            /* add_clause input */
    int qhead;
    double var_inc;
} Kernel;

static int
ivec_reserve(ivec *v, Py_ssize_t extra)
{
    if (v->size + extra <= v->cap)
        return 0;
    Py_ssize_t cap = v->cap ? v->cap : 4;
    while (cap < v->size + extra)
        cap *= 2;
    if (cap > INT_MAX) {
        PyErr_NoMemory();
        return -1;
    }
    int *d = PyMem_Realloc(v->data, (size_t)cap * sizeof(int));
    if (d == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    v->data = d;
    v->cap = (int)cap;
    return 0;
}

static int
ivec_push(ivec *v, int x)
{
    if (ivec_reserve(v, 1) < 0)
        return -1;
    v->data[v->size++] = x;
    return 0;
}

static inline int
intern_lit(int l)
{
    return l > 0 ? (l << 1) : (((-l) << 1) | 1);
}

static inline int
extern_lit(int p)
{
    return (p & 1) ? -(p >> 1) : (p >> 1);
}

/* A literal from Python: a nonzero int no larger than MAX_VAR in size.
   Sets an exception and returns 0 otherwise: ValueError for a zero or
   non-int literal, OverflowError for one out of range. */
static int
lit_from_object(PyObject *o)
{
    long l = PyLong_Check(o) ? PyLong_AsLong(o) : 0;
    if (l == -1 && PyErr_Occurred())
        return 0;
    if (l == 0) {
        PyErr_SetString(PyExc_ValueError, "literals must be nonzero ints");
        return 0;
    }
    if (l > MAX_VAR || l < -MAX_VAR) {
        PyErr_SetString(PyExc_OverflowError, "variable index too large");
        return 0;
    }
    return (int)l;
}

/* -- variables ------------------------------------------------------- */

#define GROW(ptr, n)                                                   \
    do {                                                               \
        void *q_ = PyMem_Realloc((ptr), (size_t)(n) * sizeof *(ptr)); \
        if (q_ == NULL) {                                              \
            PyErr_NoMemory();                                          \
            return -1;                                                 \
        }                                                              \
        (ptr) = q_;                                                    \
    } while (0)

/* Make room for variables 0..n; n <= MAX_VAR. */
static int
reserve_vars(Kernel *k, int n)
{
    if (n < k->cap)
        return 0;
    Py_ssize_t cap = (Py_ssize_t)k->cap * 2;
    if (cap < (Py_ssize_t)n + 1)
        cap = (Py_ssize_t)n + 1;
    if (cap < 16)
        cap = 16;
    if (cap > MAX_VAR + 1)
        cap = MAX_VAR + 1;
    GROW(k->assigns, cap);
    GROW(k->level, cap);
    GROW(k->reason, cap);
    GROW(k->act, cap);
    GROW(k->seen, cap);
    GROW(k->hpos, cap);
    GROW(k->heap, cap);
    GROW(k->trail, cap);
    GROW(k->learnt, cap + 1);
    GROW(k->to_clear, cap);
    GROW(k->watches, 2 * cap);
    memset(k->watches + 2 * (Py_ssize_t)k->cap, 0,
           (size_t)(2 * (cap - k->cap)) * sizeof(ivec));
    k->cap = (int)cap;
    return 0;
}

static inline int
value(const Kernel *k, int p)
{
    int va = k->assigns[p >> 1];
    if (va == 0)
        return 0;
    return (p & 1) ? 3 - va : va;
}

/* -- branching heap (max-activity, ties to the smaller index) --------- */

static inline int
hbetter(const Kernel *k, int u, int v)
{
    double au = k->act[u];
    double av = k->act[v];
    return au > av || (au == av && u < v);
}

static void
hup(Kernel *k, int i)
{
    int *heap = k->heap;
    int v = heap[i];
    while (i > 0) {
        int pi = (i - 1) >> 1;
        int pv = heap[pi];
        if (!hbetter(k, v, pv))
            break;
        heap[i] = pv;
        k->hpos[pv] = i;
        i = pi;
    }
    heap[i] = v;
    k->hpos[v] = i;
}

static void
hdown(Kernel *k, int i)
{
    int *heap = k->heap;
    int v = heap[i];
    int n = k->heap_size;
    for (;;) {
        int l = 2 * i + 1;
        if (l >= n)
            break;
        int r = l + 1;
        int c = (r < n && hbetter(k, heap[r], heap[l])) ? r : l;
        int cv = heap[c];
        if (!hbetter(k, cv, v))
            break;
        heap[i] = cv;
        k->hpos[cv] = i;
        i = c;
    }
    heap[i] = v;
    k->hpos[v] = i;
}

/* The heap holds at most nvars entries, and cap > nvars. */
static void
hinsert(Kernel *k, int v)
{
    if (k->hpos[v] != -1)
        return;
    k->heap[k->heap_size] = v;
    k->hpos[v] = k->heap_size;
    k->heap_size++;
    hup(k, k->heap_size - 1);
}

static int
hpop(Kernel *k)
{
    int *heap = k->heap;
    int v = heap[0];
    k->hpos[v] = -1;
    int last = heap[--k->heap_size];
    if (k->heap_size > 0) {
        heap[0] = last;
        k->hpos[last] = 0;
        hdown(k, 0);
    }
    return v;
}

static void
bump(Kernel *k, int v)
{
    double *act = k->act;
    act[v] += k->var_inc;
    if (act[v] > RESCALE_LIMIT) {
        for (int i = 1; i <= k->nvars; i++)
            act[i] *= RESCALE;
        k->var_inc *= RESCALE;
        for (int i = k->heap_size / 2 - 1; i >= 0; i--)
            hdown(k, i);
    }
    else if (k->hpos[v] != -1)
        hup(k, k->hpos[v]);
}

/* Make variables 1..n exist; n <= MAX_VAR. */
static int
ensure_vars(Kernel *k, int n)
{
    if (n <= k->nvars)
        return 0;
    if (reserve_vars(k, n) < 0)
        return -1;
    while (k->nvars < n) {
        int v = ++k->nvars;
        k->assigns[v] = 0;
        k->level[v] = 0;
        k->reason[v] = -1;
        k->act[v] = 0.0;
        k->seen[v] = 0;
        k->hpos[v] = -1;
        hinsert(k, v);
    }
    return 0;
}

/* -- clauses ---------------------------------------------------------- */

/* Store lits[0..n) as a new clause with the given tag and the
   dependencies from deps.data[dep] to the top; with n >= 2 it is watched
   by its first two literals.  Either everything is stored or nothing
   is.  Returns the clause index, or -1 with an exception set. */
static int
store_clause(Kernel *k, const int *lits, int n, int tag, int dep)
{
    if (k->nclauses == k->clauses_cap) {
        Py_ssize_t cap = k->clauses_cap ? 2 * (Py_ssize_t)k->clauses_cap : 64;
        if (cap > INT_MAX) {
            PyErr_NoMemory();
            return -1;
        }
        GROW(k->clauses, cap);
        k->clauses_cap = (int)cap;
    }
    if (n >= 2
        && (ivec_reserve(&k->watches[lits[0]], 1) < 0
            || ivec_reserve(&k->watches[lits[1]], 1) < 0))
        return -1;
    Clause *c = PyMem_Malloc(sizeof(Clause) + (size_t)n * sizeof(int));
    if (c == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    c->size = n;
    c->tag = tag;
    c->dep = dep;
    c->ndep = k->deps.size - dep;
    if (n)
        memcpy(c->lits, lits, (size_t)n * sizeof(int));
    int ci = k->nclauses++;
    k->clauses[ci] = c;
    if (n >= 2) {
        ivec *w0 = &k->watches[lits[0]];
        ivec *w1 = &k->watches[lits[1]];
        w0->data[w0->size++] = ci;
        w1->data[w1->size++] = ci;
    }
    return ci;
}

static int
append_trace(Kernel *k, const int *lits, int n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return -1;
    for (int i = 0; i < n; i++) {
        PyObject *x = PyLong_FromLong(extern_lit(lits[i]));
        if (x == NULL) {
            Py_DECREF(t);
            return -1;
        }
        PyTuple_SET_ITEM(t, i, x);
    }
    int r = PyList_Append(k->trace, t);
    Py_DECREF(t);
    return r;
}

/* -- trail ------------------------------------------------------------ */

/* The trail holds each variable at most once, and cap > nvars. */
static inline void
enqueue(Kernel *k, int p, int reason)
{
    int v = p >> 1;
    k->assigns[v] = (p & 1) ? 2 : 1;
    k->level[v] = k->trail_lim.size;
    k->reason[v] = reason;
    k->trail[k->trail_size++] = p;
}

/* Right after a backtrack, before anything else is assigned: a lazy
   clause whose false watch was undone is an ordinary one again, any
   other implies its literal again at the new level.  All are sorted
   first: a literal implied again could set an undone watch false. */
static void
recheck_lazy(Kernel *k)
{
    int j = 0;
    for (int i = 0; i < k->lazy.size; i++) {
        int ci = k->lazy.data[i];
        if (k->assigns[k->clauses[ci]->lits[1] >> 1])
            k->lazy.data[j++] = ci;
    }
    k->lazy.size = j;
    for (int i = 0; i < j; i++) {
        int ci = k->lazy.data[i];
        int p = k->clauses[ci]->lits[0];
        if (!k->assigns[p >> 1])
            enqueue(k, p, ci);
    }
}

static void
cancel_until(Kernel *k, int lvl)
{
    if (k->trail_lim.size <= lvl)
        return;
    int limit = k->trail_lim.data[lvl];
    for (int i = k->trail_size - 1; i >= limit; i--) {
        int v = k->trail[i] >> 1;
        k->assigns[v] = 0;
        if (k->hpos[v] == -1)
            hinsert(k, v);
    }
    k->trail_size = limit;
    k->trail_lim.size = lvl;
    k->qhead = limit;
    if (k->lazy.size)
        recheck_lazy(k);
}

/* Returns the index of a conflicting clause, -1 when none, or
   PROPAGATE_ERROR with an exception set. */
static int
propagate(Kernel *k)
{
    while (k->qhead < k->trail_size) {
        int pt = k->trail[k->qhead++];
        k->propagations++;
        int fp = pt ^ 1; /* literal that just became false */
        ivec *ws = &k->watches[fp];
        int *w = ws->data;
        int i = 0, j = 0, n = ws->size;
        while (i < n) {
            int ci = w[i++];
            int *c = k->clauses[ci]->lits;
            int size = k->clauses[ci]->size;
            if (c[0] == fp) {
                c[0] = c[1];
                c[1] = fp;
            }
            int first = c[0];
            int fv = value(k, first);
            if (fv == 1) {
                w[j++] = ci;
                continue;
            }
            int found = 0;
            for (int m = 2; m < size; m++) {
                int q = c[m];
                if (value(k, q) != 2) {
                    ivec *wq = &k->watches[q];
                    if (ivec_reserve(wq, 1) < 0) {
                        /* keep the watch and leave pt to propagate again */
                        w[j++] = ci;
                        while (i < n)
                            w[j++] = w[i++];
                        ws->size = j;
                        k->qhead--;
                        k->propagations--;
                        return PROPAGATE_ERROR;
                    }
                    c[1] = q;
                    c[m] = fp;
                    wq->data[wq->size++] = ci;
                    found = 1;
                    break;
                }
            }
            if (found)
                continue;
            w[j++] = ci;
            if (fv == 2) {
                while (i < n)
                    w[j++] = w[i++];
                ws->size = j;
                k->qhead = k->trail_size;
                return ci;
            }
            enqueue(k, first, ci);
        }
        ws->size = j;
    }
    return -1;
}

/* -- learning --------------------------------------------------------- */

/* First-UIP clause into learnt[0..nlearnt), its dependencies pushed on
   deps; returns the backtrack level, or -1 with an exception set. */
static int
analyze(Kernel *k, int confl)
{
    int *learnt = k->learnt;
    int *trail = k->trail;
    int *level = k->level;
    char *seen = k->seen;
    int nl = 1, nclear = 0;
    int cur = k->trail_lim.size;
    int pathc = 0;
    int p = -1;
    int idx = k->trail_size - 1;
    for (;;) {
        Clause *c = k->clauses[confl];
        if (ivec_reserve(&k->deps, 1 + c->size) < 0) {
            for (int i = 0; i < nclear; i++)
                seen[k->to_clear[i]] = 0;
            return -1;
        }
        k->deps.data[k->deps.size++] = confl;
        for (int m = (p == -1) ? 0 : 1; m < c->size; m++) {
            int q = c->lits[m];
            int v = q >> 1;
            if (!seen[v]) {
                seen[v] = 1;
                k->to_clear[nclear++] = v;
                if (level[v] == 0) {
                    k->deps.data[k->deps.size++] = -v;
                    continue;
                }
                bump(k, v);
                if (level[v] >= cur)
                    pathc++;
                else
                    learnt[nl++] = q;
            }
        }
        while (!seen[trail[idx] >> 1])
            idx--;
        p = trail[idx];
        int v = p >> 1;
        seen[v] = 0;
        pathc--;
        idx--;
        if (pathc <= 0)
            break;
        confl = k->reason[v];
    }
    learnt[0] = p ^ 1;
    int bt = 0;
    if (nl > 1) {
        int mi = 1;
        for (int i = 2; i < nl; i++)
            if (level[learnt[i] >> 1] > level[learnt[mi] >> 1])
                mi = i;
        int tmp = learnt[1];
        learnt[1] = learnt[mi];
        learnt[mi] = tmp;
        bt = level[learnt[1] >> 1];
    }
    for (int i = 0; i < nclear; i++)
        seen[k->to_clear[i]] = 0;
    k->nlearnt = nl;
    return bt;
}

/* Learn from confl and backjump; returns 0, or -1 with an exception
   set.  *next is the learned clause when a lazy clause implied its
   asserting literal false again, else -1. */
static int
handle_conflict(Kernel *k, int confl, int *next)
{
    int dep = k->deps.size;
    int bt = analyze(k, confl);
    if (bt < 0)
        return -1;
    cancel_until(k, bt);
    int *learnt = k->learnt;
    int nl = k->nlearnt;
    int tag = ~(int)PyList_GET_SIZE(k->trace);
    if (append_trace(k, learnt, nl) < 0)
        return -1;
    int ci = store_clause(k, learnt, nl, tag, dep);
    if (ci < 0)
        return -1;
    k->var_inc *= ACT_BUMP_DECAY;
    if (value(k, learnt[0]) == 2) {
        *next = ci;
        return 0;
    }
    *next = -1;
    enqueue(k, learnt[0], ci);
    return 0;
}

/* -- branching -------------------------------------------------------- */

static int
pick_branch(Kernel *k)
{
    while (k->heap_size > 0) {
        int v = hpop(k);
        if (k->assigns[v] == 0)
            return v;
    }
    return 0;
}

/* -- Python interface ------------------------------------------------- */

static PyObject *time_module;

/* 1 when time.monotonic() is past deadline, 0 when not, -1 on error. */
static int
past_deadline(double deadline)
{
    PyObject *now = PyObject_CallMethod(time_module, "monotonic", NULL);
    if (now == NULL)
        return -1;
    double t = PyFloat_AsDouble(now);
    Py_DECREF(now);
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    return t > deadline;
}

static int
replace_list(PyObject **slot, PyObject *list)
{
    if (list == NULL)
        return -1;
    PyObject *old = *slot;
    *slot = list;
    Py_XDECREF(old);
    return 0;
}

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":Kernel", kwlist))
        return NULL;
    Kernel *k = (Kernel *)type->tp_alloc(type, 0);
    if (k == NULL)
        return NULL;
    k->ok = 1;
    k->last_status = UNKNOWN;
    k->final_confl = -1;
    k->var_inc = 1.0;
    k->model = PyList_New(0);
    k->trace = PyList_New(0);
    if (k->model == NULL || k->trace == NULL || reserve_vars(k, 0) < 0) {
        Py_DECREF(k);
        return NULL;
    }
    k->assigns[0] = 0;
    k->level[0] = 0;
    k->reason[0] = -1;
    k->act[0] = 0.0;
    k->seen[0] = 0;
    k->hpos[0] = -1;
    return (PyObject *)k;
}

static void
Kernel_dealloc(Kernel *k)
{
    for (int i = 0; i < k->nclauses; i++)
        PyMem_Free(k->clauses[i]);
    PyMem_Free(k->clauses);
    if (k->watches != NULL)
        for (Py_ssize_t i = 0; i < 2 * (Py_ssize_t)k->cap; i++)
            PyMem_Free(k->watches[i].data);
    PyMem_Free(k->watches);
    PyMem_Free(k->assigns);
    PyMem_Free(k->level);
    PyMem_Free(k->reason);
    PyMem_Free(k->act);
    PyMem_Free(k->seen);
    PyMem_Free(k->hpos);
    PyMem_Free(k->heap);
    PyMem_Free(k->trail);
    PyMem_Free(k->learnt);
    PyMem_Free(k->to_clear);
    PyMem_Free(k->trail_lim.data);
    PyMem_Free(k->deps.data);
    PyMem_Free(k->lazy.data);
    PyMem_Free(k->buf.data);
    Py_XDECREF(k->model);
    Py_XDECREF(k->trace);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyObject *
Kernel_ensure_vars(Kernel *k, PyObject *arg)
{
    long n = PyLong_AsLong(arg);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (n > MAX_VAR) {
        PyErr_SetString(PyExc_OverflowError, "variable index too large");
        return NULL;
    }
    if (n > 0 && ensure_vars(k, (int)n) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Read a clause's literals into v, interned; return the largest
   variable, or -1 with an exception set.  Touches nothing but v, so
   add_clause checks every literal before it changes any state. */
static int
read_literals(PyObject *obj, ivec *v)
{
    PyObject *seq = PySequence_Fast(obj, "clause must be iterable");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    v->size = 0;
    if (ivec_reserve(v, n) < 0) {
        Py_DECREF(seq);
        return -1;
    }
    int mx = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        int l = lit_from_object(PySequence_Fast_GET_ITEM(seq, i));
        if (l == 0) {
            Py_DECREF(seq);
            return -1;
        }
        v->data[v->size++] = intern_lit(l);
        int a = l > 0 ? l : -l;
        if (a > mx)
            mx = a;
    }
    Py_DECREF(seq);
    return mx;
}

static PyObject *
Kernel_add_clause(Kernel *k, PyObject *arg)
{
    int mx = read_literals(arg, &k->buf);
    if (mx < 0)
        return NULL;
    int ordinal = k->added++;
    if (!k->ok)
        Py_RETURN_NONE;
    if (ensure_vars(k, mx) < 0)
        return NULL;
    int *lits = k->buf.data;
    int n = k->buf.size;
    int dep = k->deps.size;
    if (ivec_reserve(&k->deps, n) < 0)
        return NULL;
    /* Filter in place, pushing each level-0 variable that drops a false
       literal on deps.  seen[v] marks v (bit 1) and -v (bit 2) as kept. */
    int m = 0, keep = 1;
    for (int i = 0; i < n; i++) {
        int p = lits[i];
        int v = k->level[p >> 1] == 0 ? value(k, p) : 0;
        if (v == 1) {
            keep = 0; /* satisfied at top level */
            break;
        }
        if (v == 2) {
            k->deps.data[k->deps.size++] = -(p >> 1);
            continue;
        }
        int bit = (p & 1) ? 2 : 1;
        char s = k->seen[p >> 1];
        if (s & (3 ^ bit)) {
            keep = 0; /* tautology */
            break;
        }
        if (!(s & bit)) {
            k->seen[p >> 1] = (char)(s | bit);
            lits[m++] = p;
        }
    }
    for (int i = 0; i < m; i++)
        k->seen[lits[i] >> 1] = 0;
    if (!keep) {
        k->deps.size = dep;
        Py_RETURN_NONE;
    }
    int lazy = 0;
    if (k->trail_lim.size > 0) {
        /* watch two literals the kept trail leaves non-false, if any */
        int j = 0;
        for (int i = 0; i < m && j < 2; i++) {
            if (value(k, lits[i]) != 2) {
                int tmp = lits[j];
                lits[j++] = lits[i];
                lits[i] = tmp;
            }
        }
        if (j == 1 && m > 1) {
            /* lazy: watch lits[0] with the false literal of the highest
               level, and imply it here */
            lazy = 1;
            int hi = 1;
            for (int i = 2; i < m; i++)
                if (k->level[lits[i] >> 1] > k->level[lits[hi] >> 1])
                    hi = i;
            int tmp = lits[1];
            lits[1] = lits[hi];
            lits[hi] = tmp;
        }
        else if (j < 2)
            cancel_until(k, 0);
    }
    if (lazy && ivec_reserve(&k->lazy, 1) < 0) {
        k->deps.size = dep;
        return NULL;
    }
    int ci = store_clause(k, lits, m, ordinal, dep);
    if (ci < 0) {
        k->deps.size = dep;
        return NULL;
    }
    k->num_clauses++;
    if (lazy) {
        int v = lits[0] >> 1;
        if (!k->assigns[v]) {
            k->lazy.data[k->lazy.size++] = ci;
            enqueue(k, lits[0], ci);
        }
        else if (k->level[v] > k->level[lits[1] >> 1])
            k->lazy.data[k->lazy.size++] = ci; /* true, but above the false watch */
    }
    else if (m == 0) {
        k->ok = 0;
        k->final_confl = ci;
        if (append_trace(k, NULL, 0) < 0)
            return NULL;
    }
    else if (m == 1)
        enqueue(k, lits[0], ci);
    Py_RETURN_NONE;
}

static PyObject *
model_list(const Kernel *k)
{
    PyObject *out = PyList_New((Py_ssize_t)k->nvars + 1);
    if (out == NULL)
        return NULL;
    Py_INCREF(Py_None);
    PyList_SET_ITEM(out, 0, Py_None);
    for (int v = 1; v <= k->nvars; v++) {
        PyObject *b = k->assigns[v] == 1 ? Py_True : Py_False;
        Py_INCREF(b);
        PyList_SET_ITEM(out, v, b);
    }
    return out;
}

static PyObject *
finish(Kernel *k, int status)
{
    k->last_status = status;
    return PyLong_FromLong(status);
}

static PyObject *
Kernel_solve(Kernel *k, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"deadline", NULL};
    double deadline = -1.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|d:solve", kwlist, &deadline))
        return NULL;
    if (replace_list(&k->model, PyList_New(0)) < 0)
        return NULL;
    if (!k->ok)
        return finish(k, UNSAT);
    long long restart_limit = 100;
    long long since_restart = 0;
    long long conflicts_here = 0;
    int confl = -1;
    for (;;) {
        if (confl < 0)
            confl = propagate(k);
        if (confl == PROPAGATE_ERROR)
            goto error;
        if (confl >= 0) {
            k->conflicts++;
            conflicts_here++;
            since_restart++;
            if (k->trail_lim.size == 0) {
                k->ok = 0;
                k->final_confl = confl;
                if (append_trace(k, NULL, 0) < 0)
                    goto error;
                return finish(k, UNSAT);
            }
            if (handle_conflict(k, confl, &confl) < 0)
                goto error;
            if (deadline > 0.0 && (conflicts_here & 63) == 0) {
                int late = past_deadline(deadline);
                if (late < 0)
                    goto error;
                if (late) {
                    cancel_until(k, 0);
                    return finish(k, UNKNOWN);
                }
            }
            continue;
        }
        if (since_restart >= restart_limit) {
            restart_limit = restart_limit * 3 / 2;
            since_restart = 0;
            k->restarts++;
            cancel_until(k, 0);
            continue;
        }
        int v = pick_branch(k);
        if (v == 0) {
            if (replace_list(&k->model, model_list(k)) < 0)
                goto error;
            return finish(k, SAT);
        }
        k->decisions++;
        if (ivec_push(&k->trail_lim, k->trail_size) < 0)
            goto error;
        enqueue(k, (v << 1) | 1, -1); /* default phase: False */
    }
error:
    cancel_until(k, 0);
    k->last_status = UNKNOWN;
    return NULL;
}

/* Push x on v, or go to done with an exception set. */
#define PUSH(v, x)                          \
    do {                                    \
        if (ivec_push((v), (x)) < 0)        \
            goto done;                      \
    } while (0)

static PyObject *
Kernel_get_core(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    if (k->ok || k->final_confl < 0) {
        PyErr_SetString(PyExc_RuntimeError, "no conflict at level 0");
        return NULL;
    }
    PyObject *out = NULL, *ordinals = NULL, *positions = NULL;
    ivec stack = {NULL, 0, 0};
    char *mark = PyMem_Calloc((size_t)k->nclauses, 1);
    if (mark == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    /* x >= 0 is a clause index, x < 0 the level-0 variable -x; seen[]
       marks variables, every one on the level-0 trail */
    Clause *f = k->clauses[k->final_confl];
    PUSH(&stack, k->final_confl);
    for (int m = 0; m < f->size; m++)
        PUSH(&stack, -(f->lits[m] >> 1));
    while (stack.size > 0) {
        int x = stack.data[--stack.size];
        if (x >= 0) {
            if (mark[x])
                continue;
            mark[x] = 1;
            Clause *c = k->clauses[x];
            if (ivec_reserve(&stack, c->ndep) < 0)
                goto done;
            if (c->ndep)
                memcpy(stack.data + stack.size, k->deps.data + c->dep,
                       (size_t)c->ndep * sizeof(int));
            stack.size += c->ndep;
        }
        else {
            if (k->seen[-x])
                continue;
            k->seen[-x] = 1;
            int r = k->reason[-x];
            if (r < 0) {
                PyErr_SetString(PyExc_RuntimeError, "level-0 literal without a reason");
                goto done;
            }
            Clause *c = k->clauses[r];
            PUSH(&stack, r);
            for (int m = 0; m < c->size; m++)
                PUSH(&stack, -(c->lits[m] >> 1));
        }
    }
    ordinals = PyList_New(0);
    positions = PyList_New(0);
    if (ordinals != NULL && positions != NULL) {
        int i;
        for (i = 0; i < k->nclauses; i++) {
            if (!mark[i])
                continue;
            int t = k->clauses[i]->tag;
            PyObject *x = PyLong_FromLong(t >= 0 ? t : ~t);
            if (x == NULL
                || PyList_Append(t >= 0 ? ordinals : positions, x) < 0) {
                Py_XDECREF(x);
                break;
            }
            Py_DECREF(x);
        }
        if (i == k->nclauses)
            out = PyTuple_Pack(2, ordinals, positions);
    }
done:
    Py_XDECREF(ordinals);
    Py_XDECREF(positions);
    for (int i = 0; i < k->trail_size; i++)
        k->seen[k->trail[i] >> 1] = 0;
    PyMem_Free(stack.data);
    PyMem_Free(mark);
    return out;
}

#undef PUSH

static PyObject *
Kernel_get_trace(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PySequence_List(k->trace);
}

static PyMethodDef Kernel_methods[] = {
    {"ensure_vars", (PyCFunction)Kernel_ensure_vars, METH_O,
     "ensure_vars(n): make variables 1..n exist."},
    {"add_clause", (PyCFunction)Kernel_add_clause, METH_O,
     "add_clause(lits): add a clause of nonzero int literals."},
    {"solve", (PyCFunction)(void (*)(void))Kernel_solve,
     METH_VARARGS | METH_KEYWORDS,
     "solve(deadline=-1.0) -> 1, -1 or 0\n\n"
     "SAT, UNSAT or UNKNOWN.  deadline: absolute time.monotonic(), checked\n"
     "every 64 conflicts, negative for none; no conflict budget."},
    {"get_trace", (PyCFunction)Kernel_get_trace, METH_NOARGS,
     "get_trace() -> list of learned-clause tuples in derivation order."},
    {"get_core", (PyCFunction)Kernel_get_core, METH_NOARGS,
     "get_core() -> (ordinals, positions) after a conflict at level 0;\n"
     "see _cdcl_py."},
    {NULL}
};

static PyMemberDef Kernel_members[] = {
    {"nvars", T_INT, offsetof(Kernel, nvars), READONLY, NULL},
    {"ok", T_BOOL, offsetof(Kernel, ok), READONLY, NULL},
    {"conflicts", T_LONGLONG, offsetof(Kernel, conflicts), READONLY, NULL},
    {"decisions", T_LONGLONG, offsetof(Kernel, decisions), READONLY, NULL},
    {"propagations", T_LONGLONG, offsetof(Kernel, propagations), READONLY, NULL},
    {"restarts", T_LONGLONG, offsetof(Kernel, restarts), READONLY, NULL},
    {"num_clauses", T_LONGLONG, offsetof(Kernel, num_clauses), READONLY, NULL},
    {"model", T_OBJECT_EX, offsetof(Kernel, model), READONLY, NULL},
    {"last_status", T_INT, offsetof(Kernel, last_status), READONLY, NULL},
    {NULL}
};

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "qexpand._cdcl.Kernel",
    .tp_basicsize = sizeof(Kernel),
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Kernel(): incremental CDCL SAT solver.",
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
    .tp_new = Kernel_new,
};

static struct PyModuleDef cdcl_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "qexpand._cdcl",
    .m_doc = "Incremental CDCL SAT kernel, compiled twin of qexpand._cdcl_py.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__cdcl(void)
{
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&cdcl_module);
    if (m == NULL)
        return NULL;
    if (time_module == NULL) {
        time_module = PyImport_ImportModule("time");
        if (time_module == NULL)
            goto fail;
    }
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        goto fail;
    }
    return m;
fail:
    Py_DECREF(m);
    return NULL;
}
