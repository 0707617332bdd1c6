/*
 * Compiled per-node kernels of the branch-and-reduce search.
 *
 * Three entry points, each called once per search-tree node phase:
 *
 *   vc_cascade      -- the reduction cascade (degree-one,
 *                      degree-two-triangle, high-degree) run to its
 *                      fixpoint on one degree array;
 *   vc_expand       -- the two-child branch step on a pivot vertex;
 *   vc_lower_bound  -- the non-default bound policies' lower bounds
 *                      (greedy ceil(|E'|/D'), degree prefix, maximal
 *                      matching), a whole member list in one call.
 *
 * The first two mirror the pure-Python scalar paths in
 * repro/core/kernels.py (_apply_reductions_scalar and its exhausts) and
 * repro/core/branching.py (_expand_children_scalar) loop for loop:
 * ascending candidate order per sweep, per-candidate revalidation,
 * binary-search triangle test and snapshot-first high-degree sweeps.  The
 * fixpoint, the reduction counters and the sweep count are therefore
 * bit-identical to the scalar backend, which stays the oracle
 * (tests/test_kernel_backends.py).  vc_lower_bound returns exactly what
 * KernelBackend.lower_bound in repro/core/kernel_backends.py returns, cap
 * truncation included (tests/test_bounds.py).
 *
 * Graph arrays and scratch arrive as raw pointers (cached per workspace);
 * degree arrays and hints arrive as NumPy array objects and are read
 * through the NumPy accessor macros, which touch no interpreter state, so
 * the caller may release the interpreter lock around every call.
 *
 * Build (done by repro/core/native/__init__.py):
 *   cc -O2 -shared -fPIC -I<python include> -I<numpy include>
 */
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <Python.h>
#include <numpy/ndarraytypes.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define REMOVED (-1)

/* Error codes returned to the loader (>= 0 is success). */
#define VC_ERR_DEG (-1)     /* deg: not a writeable C-contiguous int32[n] */
#define VC_ERR_HINT (-2)    /* hint is not a C-contiguous int64 array */
#define VC_ERR_BOUND (-3)   /* bound deg: not int32[n], or a degree above n */

/* vc_lower_bound member codes, packed two bits each, first member in the
 * lowest bits; a zero digit ends the list. */
#define VC_LB_GREEDY 1
#define VC_LB_DEGREE 2
#define VC_LB_MATCHING 3

/* The data pointer of `obj` if it is a C-contiguous 1-D array of `type`
 * and length `n` (any length and read-only allowed when n < 0), else
 * NULL. */
static void *array_data(PyObject *obj, int type, int64_t n)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    if (PyArray_TYPE(a) != type || PyArray_NDIM(a) != 1 ||
        !PyArray_IS_C_CONTIGUOUS(a))
        return NULL;
    if (n >= 0 && (PyArray_DIM(a, 0) != n || !PyArray_ISWRITEABLE(a)))
        return NULL;
    return PyArray_DATA(a);
}

typedef struct {
    const int64_t *indptr;
    const int32_t *indices;
    int32_t *deg;
    int64_t *p1, *p2; /* pending degree-one / degree-two candidates */
    int64_t c1, c2;
    int64_t *cand; /* one sweep's sorted candidate snapshot */
} cascade_t;

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

static void sort_i64(int64_t *v, int64_t len)
{
    if (len > 24) {
        qsort(v, (size_t)len, sizeof(int64_t), cmp_i64);
        return;
    }
    for (int64_t i = 1; i < len; i++) {
        int64_t x = v[i], j = i - 1;
        while (j >= 0 && v[j] > x) {
            v[j + 1] = v[j];
            j--;
        }
        v[j + 1] = x;
    }
}

/* Remove u into the cover; enqueue neighbours arriving at degree 1 or 2.
 * Returns the number of edges deleted (scalar_remove). */
static int64_t remove_vertex(cascade_t *c, int64_t u)
{
    int32_t *deg = c->deg;
    int64_t deleted = 0;
    deg[u] = REMOVED;
    for (int64_t i = c->indptr[u]; i < c->indptr[u + 1]; i++) {
        int32_t x = c->indices[i];
        int32_t dx = deg[x];
        if (dx >= 0) {
            deleted++;
            dx--;
            deg[x] = dx;
            if (dx == 1)
                c->p1[c->c1++] = x;
            else if (dx == 2)
                c->p2[c->c2++] = x;
        }
    }
    return deleted;
}

/* scalar_degree_one_exhaust: returns fires, adds to *deleted. */
static int64_t degree_one_exhaust(cascade_t *c, int64_t *deleted)
{
    int64_t fires = 0;
    while (c->c1 > 0) {
        int64_t m = c->c1;
        memcpy(c->cand, c->p1, (size_t)m * sizeof(int64_t));
        c->c1 = 0;
        sort_i64(c->cand, m);
        for (int64_t j = 0; j < m; j++) {
            int64_t v = c->cand[j], u = -1;
            if (c->deg[v] != 1)
                continue;
            for (int64_t i = c->indptr[v]; i < c->indptr[v + 1]; i++) {
                if (c->deg[c->indices[i]] >= 0) {
                    u = c->indices[i];
                    break;
                }
            }
            *deleted += remove_vertex(c, u);
            fires++;
        }
    }
    return fires;
}

/* Whether w is in u's (sorted) adjacency row. */
static int adjacent(const cascade_t *c, int64_t u, int64_t w)
{
    int64_t lo = c->indptr[u], hi = c->indptr[u + 1];
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        int64_t x = c->indices[mid];
        if (x < w)
            lo = mid + 1;
        else if (x > w)
            hi = mid;
        else
            return 1;
    }
    return 0;
}

/* scalar_degree_two_exhaust: returns rule applications (two cover
 * vertices each), adds to *deleted. */
static int64_t degree_two_exhaust(cascade_t *c, int64_t *deleted)
{
    int64_t fires = 0;
    while (c->c2 > 0) {
        int64_t m = c->c2;
        memcpy(c->cand, c->p2, (size_t)m * sizeof(int64_t));
        c->c2 = 0;
        sort_i64(c->cand, m);
        for (int64_t j = 0; j < m; j++) {
            int64_t v = c->cand[j], u = -1, w = -1;
            if (c->deg[v] != 2)
                continue;
            for (int64_t i = c->indptr[v]; i < c->indptr[v + 1]; i++) {
                int64_t x = c->indices[i];
                if (c->deg[x] >= 0) {
                    if (u < 0) {
                        u = x;
                    } else {
                        w = x;
                        break;
                    }
                }
            }
            if (!adjacent(c, u, w))
                continue;
            *deleted += remove_vertex(c, u);
            *deleted += remove_vertex(c, w);
            fires++;
        }
    }
    return fires;
}

static int64_t max_degree(const int32_t *deg, int64_t n)
{
    int64_t mx = 0;
    if (n > 0)
        mx = deg[0];
    for (int64_t v = 1; v < n; v++)
        if (deg[v] > mx)
            mx = deg[v];
    return mx;
}

/*
 * The reduction cascade to its fixpoint (_apply_reductions_scalar).
 *
 * hint:      the branch step's touched vertices (int64 array) or None for
 *            a full scan; duplicates are allowed.  A hint longer than n
 *            costs more to walk than the scan it replaces, and a full scan
 *            reaches the same fixpoint, so it is scanned instead.  That
 *            bounds every pending list: at most n seeds plus n arrivals
 *            (degrees only fall, so a vertex reaches 1 -- or 2 -- once).
 * max_deg:   the ancestor's stale-high maximum-degree bound, or -1.
 * budget0:   formulation.budget(cover_size) at entry.  Every formulation's
 *            budget is (constant - cover_size), so the budget after f
 *            fires is budget0 - f.
 * scratch:   7 * n int64 slots: p1, p2 and cand (2n each), targets (n).
 * out:       c1, c2, ch, sweeps, edges deleted, new max_deg_hint.
 *
 * Returns 0, or a negative VC_ERR_* code before touching deg.
 */
int64_t vc_cascade(const int64_t *indptr, const int32_t *indices,
                   PyObject *deg_obj, int64_t n, PyObject *hint_obj,
                   int64_t max_deg, int64_t budget0, int64_t *scratch,
                   int64_t *out)
{
    int32_t *deg = (int32_t *)array_data(deg_obj, NPY_INT32, n);
    const int64_t *hint = NULL;
    int64_t hint_len = 0;
    if (deg == NULL)
        return VC_ERR_DEG;
    if (hint_obj != Py_None) {
        hint = (const int64_t *)array_data(hint_obj, NPY_INT64, -1);
        if (hint == NULL)
            return VC_ERR_HINT;
        hint_len = PyArray_DIM((PyArrayObject *)hint_obj, 0);
        if (hint_len > n)
            hint = NULL;
    }

    cascade_t c = {indptr, indices, deg, scratch, scratch + 2 * n, 0, 0,
                   scratch + 4 * n};
    int64_t *targets = scratch + 6 * n;
    if (hint == NULL) {
        for (int64_t v = 0; v < n; v++) {
            if (deg[v] == 1)
                c.p1[c.c1++] = v;
            else if (deg[v] == 2)
                c.p2[c.c2++] = v;
        }
        max_deg = max_degree(deg, n);
    } else {
        for (int64_t i = 0; i < hint_len; i++) {
            int64_t v = hint[i];
            if (v < 0 || v >= n)
                continue;
            if (deg[v] == 2)
                c.p2[c.c2++] = v;
            else if (deg[v] == 1)
                c.p1[c.c1++] = v;
        }
        if (max_deg < 0)
            max_deg = max_degree(deg, n);
    }

    int64_t c1 = 0, c2 = 0, ch = 0, sweeps = 0, deleted = 0;
    if (c.c1 == 0 && c.c2 == 0 && (budget0 < 0 || max_deg <= budget0)) {
        /* No rule can fire: the reference cascade does one empty round. */
        sweeps = 1;
    } else {
        for (;;) {
            int64_t f1 = degree_one_exhaust(&c, &deleted);
            int64_t f2 = degree_two_exhaust(&c, &deleted);
            int64_t fh = 0;
            c1 += f1;
            c2 += 2 * f2;
            for (;;) { /* scalar_high_degree_exhaust */
                int64_t budget = budget0 - (c1 + c2 + ch + fh);
                int64_t tcount = 0;
                if (budget < 0 || max_deg <= budget)
                    break;
                /* Snapshot first: a removal may push a later target below
                 * the budget; the serial rule still removes it. */
                for (int64_t v = 0; v < n; v++)
                    if (deg[v] > budget)
                        targets[tcount++] = v;
                if (tcount == 0) {
                    max_deg = max_degree(deg, n); /* exact again */
                    break;
                }
                for (int64_t j = 0; j < tcount; j++)
                    deleted += remove_vertex(&c, targets[j]);
                fh += tcount;
            }
            ch += fh;
            sweeps++;
            if (!(f1 || f2 || fh))
                break;
        }
    }
    out[0] = c1;
    out[1] = c2;
    out[2] = ch;
    out[3] = sweeps;
    out[4] = deleted;
    out[5] = max_deg;
    return 0;
}

/*
 * The branch step on pivot vmax (_expand_children_scalar).
 *
 * The deferred child (all alive neighbours of vmax into the cover) is
 * built in def_obj from a copy of the parent; the continued child (vmax
 * alone into the cover) is the parent, updated in place.  Each child's
 * touched vertices -- those decremented into reduction-candidate range
 * (deg <= 2), duplicates allowed -- go to touched_def (capacity 3n: a
 * vertex enters at most at degrees 2, 1 and 0) and touched_cont
 * (capacity n).
 *
 * out: alive neighbours of vmax, deferred edges deleted, touched_def
 * length, touched_cont length.  Returns 0 or VC_ERR_DEG.
 */
int64_t vc_expand(const int64_t *indptr, const int32_t *indices,
                  PyObject *deg_obj, PyObject *def_obj, int64_t n,
                  int64_t vmax, int64_t *touched_def, int64_t *touched_cont,
                  int64_t *out)
{
    int32_t *deg = (int32_t *)array_data(deg_obj, NPY_INT32, n);
    int32_t *def = (int32_t *)array_data(def_obj, NPY_INT32, n);
    int64_t live = 0, deleted = 0, td = 0, tc = 0;
    if (deg == NULL || def == NULL || deg == def || vmax < 0 || vmax >= n)
        return VC_ERR_DEG;
    memcpy(def, deg, (size_t)n * sizeof(int32_t));

    /* Deferred child: removing the fixed set N_alive(vmax) one member at
     * a time equals the batch removal (a member stays alive -- merely
     * decremented -- until its own turn). */
    for (int64_t i = indptr[vmax]; i < indptr[vmax + 1]; i++) {
        int32_t u = indices[i];
        if (deg[u] < 0)
            continue;
        live++;
        def[u] = REMOVED;
        for (int64_t k = indptr[u]; k < indptr[u + 1]; k++) {
            int32_t x = indices[k];
            int32_t dx = def[x];
            if (dx >= 0) {
                deleted++;
                dx--;
                def[x] = dx;
                if (dx <= 2)
                    touched_def[td++] = x;
            }
        }
    }
    /* Continued child, in place: vmax alone. */
    for (int64_t i = indptr[vmax]; i < indptr[vmax + 1]; i++) {
        int32_t u = indices[i];
        int32_t du = deg[u];
        if (du < 0)
            continue;
        deg[u] = --du;
        if (du <= 2)
            touched_cont[tc++] = u;
    }
    deg[vmax] = REMOVED;
    out[0] = live;
    out[1] = deleted;
    out[2] = td;
    out[3] = tc;
    return 0;
}

/* ceil(|E'| / D') with the carried stale-high hint (a too-large D' only
 * loosens the bound); a hint <= 0 falls back to the exact maximum. */
static int64_t greedy_lb(const int32_t *deg, int64_t n, int64_t edges,
                         int64_t max_deg)
{
    if (edges <= 0)
        return 0;
    if (max_deg <= 0) {
        max_deg = max_degree(deg, n);
        if (max_deg <= 0)
            max_deg = 1;
    }
    return (edges + max_deg - 1) / max_deg;
}

/* The smallest t whose t largest alive degrees sum to at least |E'|, by
 * counting over degrees: O(n + D), no sort.  counts holds n + 1 zeros on
 * entry and on return.  One more than the alive count when the degrees
 * never reach |E'| (the sorted prefix search's past-the-end answer).
 * VC_ERR_BOUND for a degree above n, which no state of an n-vertex graph
 * holds. */
static int64_t degree_lb(const int32_t *deg, int64_t n, int64_t edges,
                         int64_t *counts)
{
    int64_t top = 0, t = 0, acc = 0, d;
    int bad = 0;
    if (edges <= 0)
        return 0;
    for (int64_t v = 0; v < n; v++) {
        int32_t dv = deg[v];
        if (dv > n) {
            bad = 1;
        } else if (dv > 0) {
            counts[dv]++;
            if (dv > top)
                top = dv;
        }
    }
    if (bad) {
        memset(counts, 0, (size_t)(top + 1) * sizeof(int64_t));
        return VC_ERR_BOUND;
    }
    if (top == 0)
        return 0; /* no alive degree (the sorted path's empty case) */
    for (d = top; d > 0; d--) {
        int64_t c = counts[d];
        if (c == 0)
            continue;
        if (acc + c * d >= edges) {
            t += (edges - acc + d - 1) / d;
            break;
        }
        acc += c * d;
        t += c;
    }
    if (d == 0)
        t++;
    memset(counts, 0, (size_t)(top + 1) * sizeof(int64_t));
    return t;
}

/* Greedy maximal matching of the alive subgraph: alive vertices in id
 * order, each matched to its first alive unmatched neighbour; stops once
 * the size exceeds cap.  Every prefix is a matching, so a truncated size
 * is still a lower bound. */
static int64_t matching_lb(const int64_t *indptr, const int32_t *indices,
                           const int32_t *deg, int64_t n, int64_t edges,
                           int64_t cap, uint8_t *matched)
{
    int64_t size = 0;
    if (edges <= 0)
        return 0;
    memset(matched, 0, (size_t)n);
    for (int64_t v = 0; v < n; v++) {
        if (deg[v] <= 0 || matched[v])
            continue;
        for (int64_t i = indptr[v]; i < indptr[v + 1]; i++) {
            int32_t x = indices[i];
            if (deg[x] >= 0 && !matched[x]) {
                matched[v] = matched[x] = 1;
                if (++size > cap)
                    return size;
                break;
            }
        }
    }
    return size;
}

/*
 * The max of a bound member list (KernelBackend.lower_bound), evaluated in
 * list order and stopping as soon as the running max exceeds cap.
 *
 * edge_count: the state's |E'|.
 * max_deg:    the state's stale-high maximum-degree hint (<= 0: unknown).
 * cap:        "does this prune?" threshold; INT64_MAX for no cap.
 * members:    VC_LB_* codes packed two bits each, first member lowest.
 * scratch:    n + 1 zeroed int64 counts, then an n-byte matched mask; the
 *             counts are zero again on return.
 *
 * Returns the bound (>= 0), or VC_ERR_BOUND for a degree array that is
 * not a contiguous int32[n] (read-only allowed) or holds a degree above n.
 */
int64_t vc_lower_bound(const int64_t *indptr, const int32_t *indices,
                       PyObject *deg_obj, int64_t n, int64_t edge_count,
                       int64_t max_deg, int64_t cap, int64_t members,
                       int64_t *scratch)
{
    const int32_t *deg = (const int32_t *)array_data(deg_obj, NPY_INT32, -1);
    int64_t best = 0;
    if (deg == NULL || PyArray_DIM((PyArrayObject *)deg_obj, 0) != n)
        return VC_ERR_BOUND;
    for (; members != 0; members >>= 2) {
        int64_t lb = 0;
        switch (members & 3) {
        case VC_LB_GREEDY:
            lb = greedy_lb(deg, n, edge_count, max_deg);
            break;
        case VC_LB_DEGREE:
            lb = degree_lb(deg, n, edge_count, scratch);
            if (lb < 0)
                return lb;
            break;
        case VC_LB_MATCHING:
            lb = matching_lb(indptr, indices, deg, n, edge_count, cap,
                             (uint8_t *)(scratch + n + 1));
            break;
        }
        if (lb > best)
            best = lb;
        if (best > cap)
            break;
    }
    return best;
}

/* Load-time probe: the data pointer the accessor macros see. */
int64_t vc_probe(PyObject *obj, int64_t n)
{
    return (int64_t)(intptr_t)array_data(obj, NPY_INT32, n);
}
