/* Compiled implementations of the performance-critical kernels.
 *
 * A port of ``_pure`` to C against the CPython API, function by function,
 * with the same two entry points: ``canon_key`` gives the same key bytes,
 * written from the rows of the same best leaf, and ``free_tree_layouts``
 * the same tree layouts in the same order.  ``_pure`` is the reference, and
 * the cross-implementation tests compare the two on thousands of inputs.
 * Every argument is required, as in ``_pure``: ``canon_key(n, rows,
 * colors)`` and ``free_tree_layouts(n, dmax, max_height)``.
 * Everything here assumes n <= 64 and keeps adjacency as one 64-bit mask
 * per vertex; the entry points check n, the lengths of ``rows`` and
 * ``colors`` and the range of every value before the search reads any of
 * them.
 *
 * Build with ``python3 setup.py build_ext --inplace``.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef unsigned char u8;

#define MAXN 64
#define BIT(v) ((u64)1 << (v))

/* ------------------------------------------------------------------------
 * canonical labeling
 * ------------------------------------------------------------------------ */

typedef struct {
    u64 fixed;     /* bitmask of the fixed points */
    u8 a[MAXN];    /* the automorphism: v -> a[v] */
} Auto;

typedef struct {
    int n;
    u64 adj[MAXN];
    /* the best leaf so far: its chunk path, written as the search descends
     * (see rec), its rows relabeled into its order, whose code is
     * best_rows[k] & (BIT(k) - 1), and its order */
    u8 best_len[MAXN];
    u8 best_chunks[MAXN][MAXN];
    u64 best_rows[MAXN];
    u8 best_order[MAXN];
    /* every automorphism found, without a cap */
    Auto *autos;
    int nautos, autos_cap;
} CanonCtx;

/* Equitable refinement of the ordered partition cell[0..ncells-1], in
 * place; returns the new cell count.  A cell is the bitmask of its
 * vertices.  Every cell is split by the count of neighbours inside the
 * splitter, pieces by ascending count, and the scan restarts at the first
 * cell after every split.
 *
 * st[ci] marks a cell against which every cell is already uniform.  In
 * ``_pure`` this is a set of cells; a flag per cell is the same set, since
 * the set holds only cells of this partition or of coarser ones, and a
 * piece cut from a cell is neither.  A stable splitter is skipped, and a
 * splitter becomes stable once applied; on return every cell is stable,
 * unless the partition is discrete: the scan stops at n cells, and a leaf
 * never reads st. */
static int refine(const u64 *adj, int n, u64 *cell, u8 *st, int ncells)
{
    u64 ncell[MAXN];
    u8 nst[MAXN], cnt[MAXN];
    int si = 0;
    while (si < ncells && ncells < n) {
        if (st[si]) {
            si++;
            continue;
        }
        st[si] = 1;
        u64 smask = cell[si];
        int nn = 0, split = 0;
        for (int ci = 0; ci < ncells; ci++) {
            u64 c = cell[ci];
            int lo = MAXN + 1, hi = -1;
            if (c & (c - 1)) {
                for (u64 r = c; r; r &= r - 1) {
                    int v = __builtin_ctzll(r), k = __builtin_popcountll(adj[v] & smask);
                    cnt[v] = (u8)k;
                    if (k < lo)
                        lo = k;
                    if (k > hi)
                        hi = k;
                }
            }
            if (lo >= hi) {
                ncell[nn] = c;
                nst[nn++] = st[ci];
                continue;
            }
            split = 1;
            for (int k = lo; c; k++) {
                u64 piece = 0;
                for (u64 r = c; r; r &= r - 1)
                    if (cnt[__builtin_ctzll(r)] == k)
                        piece |= r & -r;
                if (piece) {
                    ncell[nn] = piece;
                    nst[nn++] = 0;
                    c ^= piece;
                }
            }
        }
        if (!split) {
            si++;
            continue;
        }
        memcpy(cell, ncell, nn * sizeof(u64));
        memcpy(st, nst, nn);
        ncells = nn;
        si = 0;
    }
    return ncells;
}

static int cmp_chunk(const u8 *a, int la, const u8 *b, int lb)
{
    int m = la < lb ? la : lb;
    for (int i = 0; i < m; i++)
        if (a[i] != b[i])
            return a[i] < b[i] ? -1 : 1;
    return la == lb ? 0 : (la < lb ? -1 : 1);
}

/* 1 if the vertices of cell c are twins: they have the same neighbours, so c
 * is a coclique, or the same closed neighbourhoods, so c is a clique.  Either
 * way every permutation of c is an automorphism; see ``_pure._twins``. */
static int twins(const u64 *adj, u64 c)
{
    int v = __builtin_ctzll(c), open = 1, closed = 1;
    for (u64 r = c & (c - 1); r; r &= r - 1) {
        int w = __builtin_ctzll(r);
        open &= adj[w] == adj[v];
        closed &= (adj[w] | BIT(w)) == (adj[v] | BIT(v));
    }
    return open || closed;
}

/* A fresh slot at the end of S->autos, or NULL when out of memory. */
static Auto *new_auto(CanonCtx *S)
{
    if (S->nautos == S->autos_cap) {
        int cap = S->autos_cap ? 2 * S->autos_cap : 16;
        Auto *grown = PyMem_Realloc(S->autos, cap * sizeof(Auto));
        if (!grown)
            return NULL;
        S->autos = grown;
        S->autos_cap = cap;
    }
    return &S->autos[S->nautos++];
}

/* The closure of orbit under the stored automorphisms that fix prefix
 * pointwise, grown from the vertices in frontier.  Only the automorphisms
 * found at leaves can need the prefix filter; a twin transposition would
 * prune exactly without it, by the argument at ``_pure._close``. */
static u64 close_orbit(const CanonCtx *S, u64 orbit, u64 frontier, u64 prefix)
{
    while (frontier) {
        int u = __builtin_ctzll(frontier);
        frontier &= frontier - 1;
        for (int k = 0; k < S->nautos; k++) {
            if (prefix & ~S->autos[k].fixed)
                continue;
            u64 w = BIT(S->autos[k].a[u]);
            if (!(orbit & w)) {
                orbit |= w;
                frontier |= w;
            }
        }
    }
    return orbit;
}

/* A leaf: every cell is a singleton, and the cells in order are the
 * candidate order.  An untied leaf sorts before the best, and rec has
 * written its chunk path already, so it is the new best; a tied leaf has
 * the best's chunk path, so its code decides, and an equal code makes it an
 * image of the best leaf.  The new best keeps its relabeled rows, which
 * canon_key writes out.  Returns 0, or -1 when out of memory. */
static int leaf(CanonCtx *S, const u64 *cell, int tied)
{
    int n = S->n;
    u8 order[MAXN], pos[MAXN];
    u64 rows[MAXN];
    for (int k = 0; k < n; k++) {
        order[k] = (u8)__builtin_ctzll(cell[k]);
        pos[order[k]] = (u8)k;
    }
    /* rows[k]: the neighbours of order[k] by canonical position; the code
     * of position k is those among positions < k */
    for (int k = 0; k < n; k++) {
        u64 row = S->adj[order[k]], c = 0;
        for (; row; row &= row - 1)
            c |= BIT(pos[__builtin_ctzll(row)]);
        rows[k] = c;
    }
    int k = 0;
    while (tied && k < n && (rows[k] & (BIT(k) - 1)) == (S->best_rows[k] & (BIT(k) - 1)))
        k++;
    if (!tied || (k < n && (rows[k] & (BIT(k) - 1)) < (S->best_rows[k] & (BIT(k) - 1)))) {
        memcpy(S->best_rows, rows, n * sizeof(u64));
        memcpy(S->best_order, order, n);
        return 0;
    }
    if (k < n)
        return 0;
    Auto *a = new_auto(S);
    if (!a)
        return -1;
    a->fixed = 0;
    for (k = 0; k < n; k++) {
        a->a[order[k]] = S->best_order[k];
        if (order[k] == S->best_order[k])
            a->fixed |= BIT(order[k]);
    }
    return 0;
}

/* One node of the individualization-refinement tree; see ``_pure.canon_key``.
 * The node's partition is cell[0..ncells-1] with stable flags st, refined
 * here in place: the caller builds them for this node alone.  prefix is the
 * bitmask of the vertices individualized on the way here.  Returns 0, or -1
 * when out of memory.
 *
 * The best chunk path is written as the search descends.  A tied node has
 * the best's chunks at every depth so far and only compares.  An untied
 * node sorts before the best, and so does every leaf below it; the first
 * such leaf becomes the new best, so the node writes its chunk at its depth,
 * and the path below follows.  So a node is tied once its first child
 * returns: the new best lies below an untied node, and a tied node stays
 * tied.  The root is untied, as there is no best yet.
 * A tied node is never below the best leaf: its parent, tied too, has the
 * chunk the best path has at that depth, which is not discrete, so the best
 * path goes deeper, and best_chunks[depth] is always there to compare.
 *
 * When the target cell's vertices are twins, every permutation of the cell
 * is an automorphism fixing the prefix, so every later child is an image of
 * the first: the node descends into the first child only, and stores the
 * transposition of the cell's two smallest vertices for the ancestors to
 * prune by.  This is exact, as in ``_pure``: a skipped subtree holds only
 * images of leaves of the first child's subtree and comes after it in
 * depth-first order, so none holds the first minimal leaf. */
static int rec(CanonCtx *S, u64 *cell, u8 *st, int ncells, int depth, int tied, u64 prefix)
{
    ncells = refine(S->adj, S->n, cell, st, ncells);
    u8 chunk[MAXN];
    int target = -1;
    for (int ci = 0; ci < ncells; ci++) {
        chunk[ci] = (u8)__builtin_popcountll(cell[ci]);
        if (target < 0 && chunk[ci] > 1)
            target = ci;
    }
    if (tied) {
        int cmp = cmp_chunk(chunk, ncells, S->best_chunks[depth], S->best_len[depth]);
        if (cmp > 0)
            return 0;
        tied = cmp == 0;
    }
    if (!tied) {
        S->best_len[depth] = (u8)ncells;
        memcpy(S->best_chunks[depth], chunk, ncells);
    }
    if (target < 0)
        return leaf(S, cell, tied);

    int twin = twins(S->adj, cell[target]);
    if (twin) {
        u64 c = cell[target];
        int v = __builtin_ctzll(c), w = __builtin_ctzll(c & (c - 1));
        Auto *a = new_auto(S);
        if (!a)
            return -1;
        for (int k = 0; k < S->n; k++)
            a->a[k] = (u8)k;
        a->a[v] = (u8)w;
        a->a[w] = (u8)v;
        a->fixed = ~(BIT(v) | BIT(w));
    }

    /* orbit: the closure of the children tried so far under the stored
     * automorphisms that fix the prefix pointwise; it grows from the last
     * child alone unless automorphisms were stored since the last closure */
    u64 cell2[MAXN];
    u8 st2[MAXN];
    int seen = S->nautos, after = ncells - target - 1;
    u64 orbit = 0;
    for (u64 left = cell[target]; left; left &= left - 1) {
        int v = __builtin_ctzll(left);
        if (orbit & BIT(v))
            continue;
        /* the child: {v} split off in front of the rest of its cell */
        memcpy(cell2, cell, target * sizeof(u64));
        cell2[target] = BIT(v);
        cell2[target + 1] = cell[target] ^ BIT(v);
        memcpy(cell2 + target + 2, cell + target + 1, after * sizeof(u64));
        memcpy(st2, st, target);
        /* every cell is uniform against the cell and, once {v} is applied,
         * against v: so against the rest, which cannot split */
        st2[target] = 0;
        st2[target + 1] = st[target];
        memcpy(st2 + target + 2, st + target + 1, after);
        int r = rec(S, cell2, st2, ncells + 1, depth + 1, tied, prefix | BIT(v));
        if (r < 0 || twin || !(left & (left - 1)))
            return r; /* later children: none, or images of this one */
        tied = 1;
        orbit |= BIT(v);
        orbit = close_orbit(S, orbit, S->nautos > seen ? orbit : BIT(v), prefix);
        seen = S->nautos;
    }
    return 0;
}

/* Layout: one byte n, the n colour values in ascending order, then the
 * adjacency rows relabeled into the canonical order, each packed big-endian
 * in (n + 7) / 8 bytes.  The search starts from the partition with one cell
 * per colour, in ascending colour order, and the rows are those of the best
 * leaf. */
static PyObject *canon_key(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "rows", "colors", NULL};
    PyObject *n_obj, *rows, *colors;
    CanonCtx S;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOO", kwlist, &n_obj, &rows, &colors))
        return NULL;
    long n = PyLong_AsLong(n_obj);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (n < 1 || n > MAXN) {
        PyErr_SetString(PyExc_ValueError, "the kernels support 1 <= n <= 64");
        return NULL;
    }
    S.n = (int)n;
    for (int i = 0; i < n; i++) {
        PyObject *item = PySequence_GetItem(rows, i);
        if (!item)
            return NULL;
        S.adj[i] = PyLong_AsUnsignedLongLong(item);
        Py_DECREF(item);
        if (S.adj[i] == (u64)-1 && PyErr_Occurred())
            return NULL;
        if (n < MAXN && S.adj[i] >> n) {
            PyErr_Format(PyExc_IndexError, "row %d names a vertex >= n", i);
            return NULL;
        }
    }
    u64 by[256] = {0}; /* by[c]: the vertices of colour c */
    for (int i = 0; i < n; i++) {
        PyObject *item = PySequence_GetItem(colors, i);
        if (!item)
            return NULL;
        long long c = PyLong_AsLongLong(item);
        Py_DECREF(item);
        if (c == -1 && PyErr_Occurred())
            return NULL;
        if (c < 0 || c > 255) {
            PyErr_SetString(PyExc_ValueError, "bytes must be in range(0, 256)");
            return NULL;
        }
        by[c] |= BIT(i);
    }
    u8 st[MAXN] = {0}, sorted_colors[MAXN];
    u64 cell[MAXN];
    int ncells = 0, k = 0;
    for (int c = 0; c < 256; c++) {
        if (by[c]) {
            int size = __builtin_popcountll(by[c]);
            memset(sorted_colors + k, c, size);
            k += size;
            cell[ncells++] = by[c];
        }
    }
    S.autos = NULL;
    S.nautos = S.autos_cap = 0;
    int r = rec(&S, cell, st, ncells, 0, 0, 0);
    PyMem_Free(S.autos);
    if (r < 0)
        return PyErr_NoMemory();
    int nb = (n + 7) / 8;
    PyObject *out = PyBytes_FromStringAndSize(NULL, 1 + n + n * nb);
    if (!out)
        return NULL;
    u8 *p = (u8 *)PyBytes_AS_STRING(out);
    *p++ = (u8)n;
    memcpy(p, sorted_colors, n);
    p += n;
    for (k = 0; k < n; k++)
        for (int j = nb - 1; j >= 0; j--)
            *p++ = (u8)(S.best_rows[k] >> (8 * j));
    return out;
}

/* ------------------------------------------------------------------------
 * free trees as level sequences; see the comment block in ``_pure``, which
 * this section follows function by function
 * ------------------------------------------------------------------------ */

/* Successor of a rooted-tree level sequence in place, from position p
 * (p < 0: the last vertex not at depth 1); 0 at the last one. */
static int next_rooted_tree(int *lay, int n, int p)
{
    if (p < 0)
        for (p = n - 1; lay[p] == 1; p--)
            ;
    if (p == 0)
        return 0;
    int q = p - 1;
    while (lay[q] != lay[p] - 1)
        q--;
    for (int i = p; i < n; i++)
        lay[i] = lay[i - p + q];
    return 1;
}

/* Split at the second depth-1 vertex m (n when absent): the heights of the
 * first subtree and of the rest of the tree. */
static void split_layout(const int *lay, int n, int *m, int *left_height, int *rest_height)
{
    int s = 2; /* the first depth-1 vertex is vertex 1 */
    while (s < n && lay[s] != 1)
        s++;
    *m = s;
    *left_height = *rest_height = 0;
    for (int i = 1; i < *m; i++)
        if (lay[i] - 1 > *left_height)
            *left_height = lay[i] - 1;
    for (int i = *m; i < n; i++)
        if (lay[i] > *rest_height)
            *rest_height = lay[i];
}

static int is_free_canonical(const int *lay, int n)
{
    int m, lh, rh;
    split_layout(lay, n, &m, &lh, &rh);
    if (rh != lh)
        return rh > lh;
    int llen = m - 1, rlen = n - m + 1;
    if (llen != rlen)
        return llen < rlen;
    /* lexicographic: left = lay[1..m-1] - 1 against rest = (0, lay[m..n-1]) */
    for (int i = 0; i < llen; i++) {
        int l = lay[1 + i] - 1, r = i ? lay[m + i - 1] : 0;
        if (l != r)
            return l < r;
    }
    return 1;
}

/* The next candidate after one that is not free-canonical, in place; 0
 * when there is none.  The candidate it reaches may not be free-canonical. */
static int next_free_tree(int *lay, int n)
{
    int m, lh, rh;
    split_layout(lay, n, &m, &lh, &rh);
    int p = m - 1, old = lay[p];
    if (!next_rooted_tree(lay, n, p))
        return 0;
    if (old > 2) {
        split_layout(lay, n, &m, &lh, &rh);
        for (int t = 0; t <= lh; t++)
            lay[n - lh - 1 + t] = t + 1;
    }
    return 1;
}

/* First i deeper than max_height or whose arrival gives its parent more
 * than dmax neighbours, or -1. */
static int first_over_cap(const int *lay, int n, int dmax, int max_height)
{
    int last[MAXN], deg[MAXN];
    last[0] = 0;
    deg[0] = 0;
    for (int i = 1; i < n; i++) {
        int lev = lay[i];
        if (lev > max_height)
            return i;
        int parent = last[lev - 1];
        if (++deg[parent] > dmax)
            return i;
        deg[i] = 1;
        last[lev] = i;
    }
    return -1;
}

typedef struct {
    PyObject_HEAD
    int n, dmax, max_height, done;
    int lay[MAXN];
} TreeWalk;

static PyObject *tree_walk_next(TreeWalk *w)
{
    int n = w->n, *lay = w->lay;
    while (!w->done) {
        PyObject *out = NULL;
        int i = first_over_cap(lay, n, w->dmax, w->max_height);
        if (i < 0) {
            if (!(out = PyTuple_New(n)))
                return NULL;
            for (int k = 0; k < n; k++)
                PyTuple_SET_ITEM(out, k, PyLong_FromLong(lay[k]));
        } else {
            /* skip every sequence with the prefix lay[..i]; a root child
             * cannot be decremented, and the later sequences that share the
             * prefix up to the last deeper vertex also share it up to i */
            while (lay[i] == 1)
                i--;
        }
        int more = next_rooted_tree(lay, n, i);
        while (more && !is_free_canonical(lay, n))
            more = next_free_tree(lay, n);
        w->done = !more;
        if (out)
            return out;
    }
    return NULL;
}

static void tree_walk_dealloc(TreeWalk *w)
{
    PyObject_Free(w);
}

static PyTypeObject TreeWalkType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "algconn._kernels._speedups.TreeWalk",
    .tp_basicsize = sizeof(TreeWalk),
    .tp_dealloc = (destructor)tree_walk_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Iterator over the free-tree layouts of free_tree_layouts.",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = (iternextfunc)tree_walk_next,
};

static PyObject *free_tree_layouts(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"n", "dmax", "max_height", NULL};
    int n, dmax, max_height;
    (void)self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "iii", kwlist, &n, &dmax, &max_height))
        return NULL;
    if (n < 1 || n > MAXN) {
        PyErr_SetString(PyExc_ValueError, "the kernels support 1 <= n <= 64");
        return NULL;
    }
    TreeWalk *w = PyObject_New(TreeWalk, &TreeWalkType);
    if (!w)
        return NULL;
    w->n = n;
    w->dmax = dmax;
    w->max_height = max_height;
    w->done = 0;
    /* the path rooted at its centre, the first free-canonical sequence */
    for (int i = 0; i <= n / 2; i++)
        w->lay[i] = i;
    for (int i = 1; i < (n + 1) / 2; i++)
        w->lay[n / 2 + i] = i;
    return (PyObject *)w;
}

/* ------------------------------------------------------------------------
 * module
 * ------------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"canon_key", (PyCFunction)(void (*)(void))canon_key, METH_VARARGS | METH_KEYWORDS,
     "canon_key(n, rows, colors)\n--\n\nBytes identifying the colour-preserving isomorphism "
     "class; layout matches the reference."},
    {"free_tree_layouts", (PyCFunction)(void (*)(void))free_tree_layouts,
     METH_VARARGS | METH_KEYWORDS,
     "free_tree_layouts(n, dmax, max_height)\n--\n\nLevel sequences of all free trees "
     "on n vertices, max degree <= dmax, height <= max_height."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_speedups",
    .m_doc = "Compiled implementations of the performance-critical kernels.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__speedups(void)
{
    if (PyType_Ready(&TreeWalkType) < 0)
        return NULL;
    return PyModule_Create(&module);
}
