"""L2-regularized squared-hinge classifiers, trained by trust-region Newton
with conjugate-gradient inner solves.

The objective of one classifier is

    f(w) = w.w + C * sum_i max(0, 1 - s_i * w.x_i)^2

(no 1/2 factor on the regularizer).  The loss is once differentiable; its
generalized Hessian restricted to the active set {i : 1 - s_i m_i > 0} is

    H = 2 I + 2 C X_act^T X_act

which is positive definite, so conjugate gradients never meet negative
curvature.  The trust-region update schedule uses the classic constants
eta0=1e-4, eta1=0.25, eta2=0.75, sigma1=0.25, sigma2=0.5, sigma3=4.

All one-vs-rest classifiers of a tree node share the node's rows and differ
only in their signs, so they are solved together: each classifier is a
column of one dense matrix, and every Hessian product for all of them is
one product with the node's rows.  Each column keeps its own trust radius,
stopping test, iteration counts and CG state, and leaves the batch as soon
as it stops.

One trust-region loop runs in either of two coordinate systems.  In
feature coordinates a column is w itself, and a Hessian product is two
sparse products.  TRON starts from w = 0 and every step lies in the span
of the node's rows, so the same iterates can be carried as w = X^T b, one
coefficient per instance (Chapelle, Neural Computation 2007); in these
instance coordinates a Hessian product is one product with the dense n x n
Gram matrix K = X X^T.  A node is solved in instance coordinates when
n^2 <= 4 nnz (its bias feature counted): a K product then costs at most
about twice the two sparse products, vectors shrink from f + 1 entries to
n, and K takes at most 32 bytes per nonzero.  Nodes with many rows, such
as the roots, usually stay in feature coordinates.

``train_nodes`` solves many nodes over the rows of one matrix X, which is
how a tree's nodes are trained, in self-contained node groups
(``_groups``): each feature-coordinate node first, then the
instance-coordinate nodes in order of row count (then of position).  A
group is a list of batches, one ``_tron`` call each, and a batch a list
of entries (s, lo, hi), the columns lo:hi of the group's node s.  A
node's weights fall into chunks of at most ``CHUNK_BYTES // (8 *
_ARRAYS_PER_COLUMN * (n + f + 1))`` columns (at least one), f being its
nonzero feature count.  A feature-coordinate node, or an
instance-coordinate node with rows and several chunks, is a group alone.
In feature coordinates its batches are those chunks, [(0, lo, hi)] each.
In instance coordinates a column holds 2n coordinates and n margins in
the solve, so its batches are chunks of ``CHUNK_BYTES // (8 *
_ARRAYS_PER_COLUMN * 3n)`` columns, and each batch's weights are then
formed chunk by chunk.  The other nodes are packed whole into groups of
one batch: a node joins the open group while the group's columns, at 8 *
``_ARRAYS_PER_COLUMN`` * (N + f + 1) bytes each with N the group's
largest row count, plus 8 n^2 bytes for each of its nodes' Gram matrices
fit in ``CHUNK_BYTES``, and otherwise opens the next group.
``_solve_group`` builds a group's rows once, solves its batches in one
loop and drops the rows, so nothing passes from one group to the next.
A node alone takes each chunk of its weights from one dense product,
twice as fast on big chunks; a packed batch from one sparse product,
which meets each node's coefficients with its own rows only.  A batch's
columns all have N rows: rows past their own node's n are padding, with
sign +1 and a margin held at 1, so they are never active, add no loss and
keep a zero coefficient.  Every product and dot product a column takes is
the one it takes alone, up to those zero terms: each node's K products
are its own (see ``_Instances``), every dot product sums row by row over
C-ordered columns (``_coldot``, ``_cols``), and each column of a sparse
times dense product is summed on its own.  So a node's classifiers are
bit for bit those it gets alone, in batches of any width.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

ETA0, ETA1, ETA2 = 1e-4, 0.25, 0.75
SIGMA1, SIGMA2, SIGMA3 = 0.25, 0.5, 4.0
CG_TOL_FACTOR = 0.1
MAX_CG_ITERS = 1000
# Accepted Newton steps after which a column stops unconverged.
MAX_NEWTON_ITERS = 100

# Bound on the dense float64 working set of one batch of columns; a node
# with more classifiers than fit is solved in several batches.
CHUNK_BYTES = 4 << 20
# Dense arrays a column holds at once in the solve (weights, gradient,
# margins, signs, CG vectors and temporaries), each counted as long as its
# coordinates plus its margins: f + 1 + n in feature coordinates, 3n in
# instance coordinates.
_ARRAYS_PER_COLUMN = 10


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # numpy sums a lone column with SIMD partial sums and several columns
    # row by row; two copies of a lone column take the row-by-row sums too,
    # so a column's dot product has the same bits whatever shares its batch
    if a.shape[1] == 1:
        return np.einsum("ij,ij->j", np.repeat(a, 2, 1), np.repeat(b, 2, 1))[:1]
    return np.einsum("ij,ij->j", a, b)


def _cols(a: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The columns ``keep`` of ``a``, C-ordered: ``a[:, keep]`` comes out
    F-ordered, and numpy sums an F-ordered column in another order."""
    return a.compress(keep, axis=1)


def _norm(squares: np.ndarray) -> np.ndarray:
    # a squared K-norm of a vector near K's null space can round below 0
    return np.sqrt(np.maximum(squares, 0.0))


class _Features:
    """Feature coordinates: a column is a weight vector itself, and the
    Hessian product is two sparse products with the node's rows ``X`` and
    their transpose ``XT`` (CSR)."""

    def __init__(self, X, XT, C):
        self.X, self.XT, self.C = X, XT, C
        self.dim = X.shape[1]

    dot = staticmethod(_coldot)

    def origin(self, m):
        n = self.X.shape[0]
        return np.zeros((self.dim, m)), np.zeros((n, m)), np.full(m, self.C * n)

    def hess(self, act, D, cols):
        return 2.0 * D + 2.0 * self.C * (self.XT @ (act * (self.X @ D)))

    def gradient(self, W, sel, Z, cols):
        return 2.0 * (W if sel is None else _cols(W, sel)) - 2.0 * self.C * (self.XT @ Z)

    def margins(self, W):
        return self.X @ W


class _Instances:
    """Instance coordinates for the columns of one or more nodes, one slot
    each: a column stacks N coefficients b, standing for the weights X.T b,
    over their image K b under its slot's Gram matrix K = X X.T.  Sums and
    scalings keep the two halves consistent, the image half of the weights
    is the margins, and a dot product of weight vectors is b.(K b'), so a
    Hessian product costs one dense K product per slot.

    ``K[s]`` is slot s's n_s x n_s Gram matrix, and ``slot[j]`` is the slot
    of batch column j (nondecreasing in j).  N is the largest n_s; a column
    of a smaller node has padding rows, whose coefficients and image stay
    0 while its weights' image, its margins, stay 1 (``origin``).  Each
    slot's live columns are multiplied by their own K on their own n rows,
    so with one slot this is the single-node space and each K product is
    the one that node takes alone."""

    def __init__(self, K, n, slot, C):
        self.K, self.n, self.slot, self.C = K, n, slot, C
        self.N = int(n.max(initial=0))
        self.dim = 2 * self.N

    def dot(self, A, B):
        return _coldot(A[: self.N], B[self.N :])

    def origin(self, m):
        pad = np.arange(self.N)[:, None] >= self.n[self.slot]
        W = np.zeros((self.dim, m))
        W[self.N :] = pad
        return W, W[self.N :].copy(), self.C * self.n[self.slot]

    def _stack(self, top, cols):
        N = self.N
        out = np.empty((self.dim, top.shape[1]))
        out[:N] = top
        slots = self.slot[cols]
        cuts = np.flatnonzero(slots[1:] != slots[:-1]) + 1
        for a, b in zip([0, *cuts], [*cuts, len(slots)]):
            s = slots[a]
            n = self.n[s]
            np.matmul(self.K[s], top[:n, a:b], out=out[N : N + n, a:b])
            out[N + n :, a:b] = 0.0
        return out

    def hess(self, act, D, cols):
        return self._stack(2.0 * D[: self.N] + 2.0 * self.C * (act * D[self.N :]), cols)

    def gradient(self, W, sel, Z, cols):
        top = W[: self.N] if sel is None else _cols(W[: self.N], sel)
        return self._stack(2.0 * top - 2.0 * self.C * Z, cols)

    def margins(self, W):
        return W[self.N :]


def _trcg(space, act, G, delta, cg_tol, cols):
    """CG-Steihaug for every column: approximately minimize each column's
    quadratic model within its trust region.  ``act`` holds each column's
    active rows as 0/1, and ``cols`` its batch column ids.  Returns (steps,
    residuals, CG steps per column)."""
    steps = np.zeros_like(G)
    resids = np.empty_like(G)
    n_cg = np.zeros(G.shape[1], dtype=np.int64)
    live = np.arange(G.shape[1])
    d = -G
    r = -G
    s = np.zeros_like(G)
    rtr = space.dot(r, r)
    for _ in range(MAX_CG_ITERS):
        done = _norm(rtr) <= cg_tol
        if done.any():
            steps[:, live[done]] = s[:, done]
            resids[:, live[done]] = r[:, done]
            keep = ~done
            live, d, r, s, rtr = live[keep], _cols(d, keep), _cols(r, keep), _cols(s, keep), rtr[keep]
            act, cg_tol, delta = _cols(act, keep), cg_tol[keep], delta[keep]
        if not len(live):
            return steps, resids, n_cg
        n_cg[live] += 1
        hd = space.hess(act, d, cols[live])
        alpha = rtr / space.dot(d, hd)
        s = s + alpha * d
        out = _norm(space.dot(s, s)) > delta
        if out.any():
            # these columns hit the boundary: back off, then step to it
            so, do_, ao = _cols(s, out), _cols(d, out), alpha[out]
            so -= ao * do_
            std, sts, dtd = space.dot(so, do_), space.dot(so, so), space.dot(do_, do_)
            dsq = delta[out] * delta[out]
            rad = np.sqrt(std * std + dtd * (dsq - sts))
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = np.where(std >= 0, (dsq - sts) / (std + rad), (rad - std) / dtd)
            steps[:, live[out]] = so + tau * do_
            resids[:, live[out]] = _cols(r, out) - tau * _cols(hd, out)
            keep = ~out
            live, d, r, s, rtr = live[keep], _cols(d, keep), _cols(r, keep), _cols(s, keep), rtr[keep]
            act, cg_tol, delta = _cols(act, keep), cg_tol[keep], delta[keep]
            hd, alpha = _cols(hd, keep), alpha[keep]
            if not len(live):
                return steps, resids, n_cg
        r = r - alpha * hd
        rtr_new = space.dot(r, r)
        d = r + (rtr_new / rtr) * d
        rtr = rtr_new
    steps[:, live] = s
    resids[:, live] = r
    return steps, resids, n_cg


def _tron(space, Y, eps, max_newton_iters):
    """Trust-region Newton on every column of the sign matrix ``Y`` at once,
    in the coordinates of ``space`` (``_Features`` or ``_Instances``), from
    the space's ``origin``: w = 0, with its margins and objective.

    Each column stops once its gradient norm is at most ``eps`` times its
    norm at w = 0, at ``max_newton_iters`` accepted steps, or when its trust
    region can no longer improve it.  A column whose objective, gradient
    norm at w = 0 or reductions are not finite (C so large that they
    overflow) stops there and counts as not converged.  Returns (W,
    newton_iters, converged, cg_iters), W in ``space``'s coordinates.
    """
    m = Y.shape[1]
    C = space.C
    W_out = np.zeros((space.dim, m))
    iters_out = np.zeros(m, dtype=np.int64)
    cg_out = np.zeros(m, dtype=np.int64)
    conv_out = np.zeros(m, dtype=bool)

    cols = np.arange(m)
    Y = np.asarray(Y, dtype=np.float64)
    W, M, F = space.origin(m)  # W, its margins and its objective
    xi = 1.0 - Y * M
    G = space.gradient(W, None, np.where(xi > 0, Y * xi, 0.0), cols)
    del xi
    gnorm0 = _norm(space.dot(G, G))
    gnorm = gnorm0.copy()
    delta = gnorm0.copy()
    iters = np.zeros(m, dtype=np.int64)
    cg = np.zeros(m, dtype=np.int64)
    halted = np.zeros(m, dtype=bool)
    broken = ~np.isfinite(F) | ~np.isfinite(gnorm0)

    while True:
        conv = (gnorm <= eps * gnorm0) & ~broken
        done = halted | broken | (iters >= max_newton_iters) | conv
        if done.any():
            W_out[:, cols[done]] = W[:, done]
            iters_out[cols[done]] = iters[done]
            cg_out[cols[done]] = cg[done]
            conv_out[cols[done]] = conv[done]
            keep = ~done
            cols, Y, W, M, G = cols[keep], _cols(Y, keep), _cols(W, keep), _cols(M, keep), _cols(G, keep)
            F, gnorm0, gnorm, delta, iters = F[keep], gnorm0[keep], gnorm[keep], delta[keep], iters[keep]
            cg = cg[keep]
        if not len(cols):
            return W_out, iters_out, conv_out, cg_out

        xi = 1.0 - Y * M
        act = (xi > 0).astype(np.float64)
        del xi
        S, R, n_cg = _trcg(space, act, G, delta, CG_TOL_FACTOR * gnorm, cols)
        cg += n_cg
        snorm = _norm(space.dot(S, S))
        W_new = W + S
        M_new = space.margins(W_new)
        xi_new = 1.0 - Y * M_new
        loss = np.maximum(xi_new, 0.0)
        F_new = space.dot(W_new, W_new) + C * _coldot(loss, loss)
        actred = F - F_new
        gs = space.dot(G, S)
        # R = -G - H S, so this is -(gs + 0.5 S'HS)
        prered = -0.5 * (gs - space.dot(S, R))

        denom = F_new - F - gs
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(denom <= 0, SIGMA3, np.maximum(SIGMA1, -0.5 * (gs / denom)))
        delta = np.select(
            [actred < ETA0 * prered, actred < ETA1 * prered, actred < ETA2 * prered],
            [
                np.minimum(np.maximum(alpha, SIGMA1) * snorm, SIGMA2 * delta),
                np.maximum(SIGMA1 * delta, np.minimum(alpha * snorm, SIGMA2 * delta)),
                np.maximum(SIGMA1 * delta, np.minimum(alpha * snorm, SIGMA3 * delta)),
            ],
            np.maximum(delta, np.minimum(alpha * snorm, SIGMA3 * delta)),
        )

        acc = (snorm > 0) & (actred > ETA0 * prered)
        if acc.any():
            # the accepted margins give the new gradient directly
            Ya, xa = _cols(Y, acc), _cols(xi_new, acc)
            Z = np.where(xa > 0, Ya * xa, 0.0)
            W[:, acc] = W_new[:, acc]
            M[:, acc] = M_new[:, acc]
            F[acc] = F_new[acc]
            # the space takes W's accepted columns itself, so that copy dies before the product
            G[:, acc] = Ga = space.gradient(W, acc, Z, cols[acc])
            gnorm[acc] = _norm(space.dot(Ga, Ga))
            iters[acc] += 1
        halted = (snorm == 0) | (prered <= 0) | (delta <= 1e-300)
        broken = ~np.isfinite(actred) | ~np.isfinite(prered)


@dataclass(frozen=True)
class NodeSolve:
    """A node's classifiers as one float32 CSR row per sign column, plus
    each column's bias, accepted Newton steps, CG steps and whether it met
    the gradient test, the count of nonzero weights pruned at delta,
    whether the node was solved in instance coordinates, and each column's
    solve batch (its ``_tron`` call, numbered from 0 in one ``train_nodes``
    call)."""

    W: sp.csr_matrix
    bias: np.ndarray
    newton_iters: np.ndarray
    cg_iters: np.ndarray
    converged: np.ndarray
    n_pruned: int
    in_instances: bool
    batch: np.ndarray


class Problem(NamedTuple):
    """A node's classifiers to train: an n x m sign matrix ``Y``, one
    column per classifier, over the rows ``rows`` (sorted distinct ids) of
    the matrix that ``train_nodes`` is given."""

    Y: np.ndarray
    rows: np.ndarray


def train_nodes(X: sp.csr_matrix, problems, C: float = 1.0, eps: float = 0.1,
                delta: float = 0.01) -> list[NodeSolve]:
    """For each ``Problem`` (or tuple of its fields), train one classifier,
    with a bias term, per column of its sign matrix on its rows of the CSR
    matrix ``X``.

    Each node is solved on its nonzero feature columns plus a constant
    bias feature, each column stopping at ``MAX_NEWTON_ITERS`` accepted
    steps, in instance coordinates when n^2 <= 4 nnz, and in node groups
    whose batches of columns are bounded by ``CHUNK_BYTES`` (see the module
    docstring).  Row j of a returned ``W`` is column j's feature weights
    with entries |w| <= ``delta`` pruned and values cast to float32;
    ``bias[j]`` is its bias, which is never pruned.
    """
    if not C > 0 or not eps > 0 or delta < 0:
        raise ValueError("require C > 0, eps > 0, delta >= 0")
    if not isinstance(X, sp.csr_matrix):
        raise TypeError(f"need a scipy CSR matrix, got {type(X).__name__}")
    problems = [_checked(Problem(*p)) for p in problems]
    solves = {}
    numbers = itertools.count()  # numbers the _tron calls
    for in_instances, nodes, batches, step in _groups(X, problems):
        group = _solve_group(X, problems, in_instances, nodes, batches, step, C, eps, delta, numbers)
        solves.update(zip(nodes, group))
    return [solves[u] for u in range(len(problems))]


def _checked(p: Problem) -> Problem:
    """``p`` with its signs and its rows as arrays."""
    rows = np.asarray(p.rows)
    Y = np.asarray(p.Y)
    n = len(rows)
    if Y.ndim != 2 or Y.shape[0] != n or Y.shape[1] == 0:
        raise ValueError(f"need an {n} x m sign matrix, m >= 1, got shape {Y.shape}")
    if not np.all(np.abs(Y) == 1):
        raise ValueError("signs must be +1 or -1")
    return Problem(Y, rows)


def _in_instances(n: int, nnz: int) -> bool:
    """The coordinate rule: n^2 <= 4 nnz, the node's n bias entries counted."""
    return n * n <= 4 * (nnz + n)


def _joined(parts: list[NodeSolve]) -> NodeSolve:
    """One node's solve from those of its column chunks, in order."""
    if len(parts) == 1:
        return parts[0]
    return NodeSolve(
        sp.vstack([p.W for p in parts], format="csr"),
        *(np.concatenate([getattr(p, f) for p in parts])
          for f in ("bias", "newton_iters", "cg_iters", "converged")),
        sum(p.n_pruned for p in parts), parts[0].in_instances,
        np.concatenate([p.batch for p in parts]),
    )


def _pruned(W, feats, d, delta):
    """Dense weight columns ``W``, a row per feature id in ``feats`` and a
    last row of biases, as float32 CSR rows over d features with entries
    |w| <= ``delta`` pruned, and float32 biases; returns (W, bias, count
    of nonzero weights pruned)."""
    f, m = len(feats), W.shape[1]
    Wf = np.ascontiguousarray(W[:f].T)  # a row per column: flat ids run column by column
    at = np.flatnonzero(np.abs(Wf) > delta)
    kept = Wf.ravel()[at].astype(np.float32)
    nz = kept != 0  # a kept weight that rounds to a float32 zero is dropped too
    if not nz.all():
        at, kept = at[nz], kept[nz]
    indptr = np.searchsorted(at, np.arange(m + 1) * f)
    return (sp.csr_matrix((kept, feats[at % f], indptr), shape=(m, d)),
            W[f].astype(np.float32), int(np.count_nonzero(Wf)) - len(at))


def _groups(X, problems):
    """The node groups of ``train_nodes``, in order: whether a group is in
    instance coordinates, its nodes, its batches, one ``_tron`` call each,
    and the width of the dense chunks its weights are formed in, or 0 for
    a packed group, whose batch takes ``_back_projected``.  A batch is a
    list of entries (s, lo, hi), the columns lo:hi of the group's node s.
    See the module docstring."""
    per_byte = 8 * _ARRAYS_PER_COLUMN
    packed = []
    for u, p in enumerate(problems):
        if _in_instances(len(p.rows), int((X.indptr[p.rows + 1] - X.indptr[p.rows]).sum())):
            packed.append(u)
        else:
            step = _chunks(X, p)[1]
            yield False, [u], _batches(p.Y.shape[1], step), step
    nodes, batch = [], []
    cols = feats = grams = 0  # the open group's columns, sum of their f + 1, Gram bytes
    for u in sorted(packed, key=lambda u: len(problems[u].rows)):
        n, m = problems[u].Y.shape
        f, step = _chunks(X, problems[u])
        alone = n > 0 and m > step
        # nodes come in increasing row count, so this node's n is the group's N
        if nodes and (alone or per_byte * (n * (cols + m) + feats + m * (f + 1)) + grams
                      + 8 * n * n > CHUNK_BYTES):
            yield True, nodes, [batch], 0
            nodes, batch, cols, feats, grams = [], [], 0, 0, 0
        if alone:
            # in the solve a column holds 2n coordinates and n margins
            yield True, [u], _batches(m, max(1, CHUNK_BYTES // (per_byte * 3 * n))), step
        else:
            batch.append((len(nodes), 0, m))
            nodes.append(u)
            cols, feats, grams = cols + m, feats + m * (f + 1), grams + 8 * n * n
    if nodes:
        yield True, nodes, [batch], 0


def _chunks(X, p: Problem):
    """The count f of features that a node's rows of X use, and the width
    of its chunks of weight columns (module docstring)."""
    present = np.zeros(X.shape[1], dtype=bool)
    present[X.indices[_positions(X.indptr, p.rows)[0]]] = True
    f = int(np.count_nonzero(present))
    return f, max(1, CHUNK_BYTES // (8 * _ARRAYS_PER_COLUMN * (len(p.rows) + f + 1)))


def _batches(m, step):
    """A node's m columns as batches alone, one [(0, lo, hi)] per ``step``."""
    return [[(0, lo, min(m, lo + step))] for lo in range(0, m, step)]


def _solve_group(X, problems, in_instances, nodes, batches, step, C, eps, delta, numbers):
    """Solve one node group and return each of its nodes' ``NodeSolve``.
    The group's rows are built once: gathered, stacked with each node's
    columns shifted apart and its own bias column, compacted to the columns
    in use, given their Gram blocks in instance coordinates, transposed.
    Each batch then takes one ``_tron`` call, numbered by ``numbers``, on
    its padded signs.  A node alone (``step`` > 0) forms each batch's
    weights in dense chunks of ``step`` columns; a packed batch (``step``
    0) forms them at once and splits them into a part per entry."""
    n = np.array([len(problems[u].rows) for u in nodes], dtype=np.int64)
    N = int(n.max())
    d = X.shape[1]
    A = _stacked_rows(take_rows(X, np.concatenate([problems[u].rows for u in nodes])), n, d)
    # on the columns in use alone, in order, every product keeps its bits
    A, cols = compact_columns(A)
    K = _gram_blocks(A @ A.T, n) if in_instances else None
    AT = A.T.tocsr()
    # in instance coordinates the transpose alone serves the back-projection
    A = None if in_instances else A
    parts = [[] for _ in nodes]
    for batch in batches:
        slots, widths = np.array([(s, hi - lo) for s, lo, hi in batch]).T
        ends = np.cumsum(widths)
        starts = ends - widths
        Y = np.ones((N, ends[-1]))
        for (s, lo, hi), a, b in zip(batch, starts, ends):
            Y[: n[s], a:b] = problems[nodes[s]].Y[:, lo:hi]
        space = _Instances(K, n, np.repeat(slots, widths), C) if in_instances \
            else _Features(A, AT, C)
        # an overflowing C makes values inf or nan; _tron stops those columns
        with np.errstate(over="ignore", invalid="ignore"):
            B, iters, conv, cg = _tron(space, Y, eps, MAX_NEWTON_ITERS)
        number = next(numbers)
        if step:
            # a node alone takes a dense X^T B per chunk: over eurlex's 555
            # such chunks _pruned takes 0.13 s, where _back_projected took
            # 0.59 s on chunks of the same width
            for a in range(0, ends[-1], step):
                b = min(a + step, ends[-1])
                W, bias, k = _pruned(AT @ B[:N, a:b] if in_instances else B[:, a:b], cols[:-1], d, delta)
                parts[0].append(NodeSolve(W, bias, iters[a:b], cg[a:b], conv[a:b], k,
                                          in_instances, np.full(b - a, number)))
        else:
            # one sparse product meets each node's B with its own rows
            W, bias, pruned = _back_projected(B[:N], n, starts, ends, AT, cols % (d + 1), d, delta)
            for (s, _, _), a, b, k in zip(batch, starts, ends, pruned):
                i, j = W.indptr[a], W.indptr[b]
                Ws = sp.csr_matrix((W.data[i:j], W.indices[i:j], W.indptr[a : b + 1] - i), shape=(b - a, d))
                parts[s].append(NodeSolve(Ws, bias[a:b], iters[a:b], cg[a:b], conv[a:b], int(k),
                                          in_instances, np.full(b - a, number)))
        del B
    return [_joined(p) for p in parts]


def _stacked_rows(X, n, d) -> sp.csr_matrix:
    """The rows of X, the first n[0] a node's, the next n[1] the next
    node's, ..., as one float64 CSR matrix whose s-th block of d + 1
    columns holds node s's columns and, after its features in each of its
    rows, its bias feature of value 1."""
    lens = np.diff(X.indptr)
    shape = (len(lens), len(n) * (d + 1))
    # scipy's own index dtype for this shape and nnz, so csr_matrix keeps the arrays
    index = np.int32 if max(*shape, X.nnz + len(lens)) < 2**31 else np.int64
    base = np.repeat(np.arange(len(n), dtype=index) * (d + 1), n)
    indptr = np.zeros(len(lens) + 1, dtype=index)
    np.cumsum(lens + 1, out=indptr[1:])
    # a row's bias goes after its features
    feat = np.ones(indptr[-1], dtype=bool)
    feat[indptr[1:] - 1] = False
    data = np.ones(indptr[-1])
    data[feat] = X.data
    indices = np.repeat(base + d, lens + 1)
    indices[feat] = X.indices
    indices[feat] += np.repeat(base, lens)
    return sp.csr_matrix((data, indices, indptr), shape=shape)


def _gram_blocks(P, n) -> list[np.ndarray]:
    """The diagonal blocks of n[s] x n[s] entries of the block diagonal
    sparse product ``P``, as dense matrices."""
    if len(n) == 1:
        return [P.toarray()]
    off = np.concatenate(([0], np.cumsum(n * n)))
    row0 = np.concatenate(([0], np.cumsum(n)))[:-1]
    s = np.repeat(np.arange(len(n)), n)
    # row r of block s starts at off[s] + (r - row0[s]) n[s], and column c
    # sits c - row0[s] past that
    at = np.repeat(off[s] + (np.arange(len(s)) - row0[s]) * n[s] - row0[s], np.diff(P.indptr))
    at += P.indices
    flat = np.zeros(off[-1])
    flat[at] = P.data
    return [flat[a:b].reshape(k, k) for a, b, k in zip(off[:-1], off[1:], n)]


def _back_projected(B, n, starts, ends, AT, local, d, delta):
    """The weights X^T b of each batch column, from one sparse product:
    the columns ``starts[s]:ends[s]`` belong to node s, whose n[s] rows of
    the stacked A (``AT`` = A^T as CSR) follow those of nodes 0..s-1 and
    whose coefficients are ``B[:n[s]]``.  Column c of A is its node's feature
    ``local[c]``, or its bias if that is d.  An entry sums over the node's
    rows in order, as the dense product X^T B does.  Returns the pruned
    float32 feature weights (a CSR row per batch column over d features),
    the float32 biases and each node's count of pruned weights."""
    m = ends[-1]
    row0 = np.concatenate(([0], np.cumsum(n)))
    slot = np.repeat(np.arange(len(n)), n)
    width = (ends - starts)[slot]
    indptr = np.concatenate(([0], np.cumsum(width)))
    at = np.arange(indptr[-1]) - np.repeat(indptr[:-1] - starts[slot], width)
    rows = np.repeat(np.arange(len(slot)) - row0[slot], width)
    Bs = sp.csr_matrix((B[rows, at], at, indptr), shape=(len(slot), m))
    # Q^T of Q = A^T B comes out with each row's ids in order
    P = (AT @ Bs).T.tocsr()
    del Bs
    ids = local[P.indices]
    at = np.flatnonzero(ids == d)
    rows = np.searchsorted(P.indptr, at, side="right") - 1
    bias = np.zeros(m, dtype=np.float32)
    bias[rows] = P.data[at]
    keep = np.abs(P.data) > delta
    keep[at] = False
    keep[keep] = P.data[keep].astype(np.float32) != 0  # a float32 zero is dropped too
    at = np.flatnonzero(keep)
    del keep
    indptr = np.searchsorted(at, P.indptr)
    W = sp.csr_matrix((P.data[at].astype(np.float32), ids[at], indptr), shape=(m, d))
    # a column's pruned weights are its entries not kept, less its bias
    return W, bias, np.add.reduceat(np.diff(P.indptr - indptr) - np.bincount(rows, minlength=m), starts)


def _positions(indptr, rows):
    """The positions in a CSR matrix's arrays of its rows ``rows``, in
    order, and the indptr of those rows alone."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(counts, out=out[1:])
    return np.arange(out[-1], dtype=out.dtype) + np.repeat(starts - out[:-1], counts), out


def take_rows(A: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """``A[rows]`` for distinct nonnegative row ids, from slices of A's arrays;
    ``A`` itself, not a copy, when ``rows`` is every row in order (a root)."""
    if len(rows) == A.shape[0] and np.array_equal(rows, np.arange(len(rows))):
        return A
    at, indptr = _positions(A.indptr, rows)
    return sp.csr_matrix((A.data[at], A.indices[at], indptr), shape=(len(rows), A.shape[1]))


def compact_columns(A: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """``A`` on its nonzero columns, renumbered 0..f-1 in order, on A's own
    data and indptr; and the f kept column ids, in A's index dtype."""
    present = np.zeros(A.shape[1], dtype=bool)
    present[A.indices] = True
    cols = np.flatnonzero(present).astype(A.indices.dtype)
    if A.shape[1] <= A.nnz:
        at = (np.cumsum(present, dtype=A.indices.dtype) - 1)[A.indices]
    else:  # far more columns than entries: search the kept ones instead of counting all
        at = np.searchsorted(cols, A.indices).astype(A.indices.dtype)
    return sp.csr_matrix((A.data, at, A.indptr), shape=(A.shape[0], len(cols))), cols

