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
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Dense arrays of length (rows + features) a column holds at once in the
# solve: weights, gradient, margins, signs, CG vectors and temporaries.
_ARRAYS_PER_COLUMN = 10


def _coldot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", a, b)


def _norm(squares: np.ndarray) -> np.ndarray:
    # a squared K-norm of a vector near K's null space can round below 0
    return np.sqrt(np.maximum(squares, 0.0))


class _Features:
    """Feature coordinates: a column is a weight vector itself, and the
    Hessian product is two sparse products with the node's rows ``X``."""

    def __init__(self, X, C):
        self.X, self.XT, self.C = X, X.T.tocsr(), C
        self.dim = X.shape[1]

    dot = staticmethod(_coldot)

    def hess(self, act, D):
        return 2.0 * D + 2.0 * self.C * (self.XT @ (act * (self.X @ D)))

    def gradient(self, W, cols, Z):
        return 2.0 * W[:, cols] - 2.0 * self.C * (self.XT @ Z)

    def margins(self, W):
        return self.X @ W

    def weights(self, W):
        return W


class _Instances:
    """Instance coordinates: a column stacks n coefficients b, standing for
    the weights X.T b, over their image K b under the Gram matrix K = X X.T.
    Sums and scalings keep the two halves consistent, the image half of the
    weights is the margins, and a dot product of weight vectors is b.(K b'),
    so a Hessian product costs one dense K product."""

    def __init__(self, X, C):
        self.XT, self.C, self.n = X.T.tocsr(), C, X.shape[0]
        self.dim = 2 * self.n
        self.K = (X @ self.XT).toarray()

    def dot(self, A, B):
        return _coldot(A[: self.n], B[self.n :])

    def _stack(self, top):
        out = np.empty((self.dim, top.shape[1]))
        out[: self.n] = top
        np.matmul(self.K, top, out=out[self.n :])
        return out

    def hess(self, act, D):
        return self._stack(2.0 * D[: self.n] + 2.0 * self.C * (act * D[self.n :]))

    def gradient(self, W, cols, Z):
        return self._stack(2.0 * W[: self.n, cols] - 2.0 * self.C * Z)

    def margins(self, W):
        return W[self.n :]

    def weights(self, W):
        return self.XT @ W[: self.n]


def _trcg(space, act, G, delta, cg_tol):
    """CG-Steihaug for every column: approximately minimize each column's
    quadratic model within its trust region.  ``act`` holds each column's
    active rows as 0/1.  Returns (steps, residuals, CG steps per column)."""
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
            live, d, r, s, rtr = live[keep], d[:, keep], r[:, keep], s[:, keep], rtr[keep]
            act, cg_tol, delta = act[:, keep], cg_tol[keep], delta[keep]
        if not len(live):
            return steps, resids, n_cg
        n_cg[live] += 1
        hd = space.hess(act, d)
        alpha = rtr / space.dot(d, hd)
        s = s + alpha * d
        out = _norm(space.dot(s, s)) > delta
        if out.any():
            # these columns hit the boundary: back off, then step to it
            so, do_, ao = s[:, out], d[:, out], alpha[out]
            so -= ao * do_
            std, sts, dtd = space.dot(so, do_), space.dot(so, so), space.dot(do_, do_)
            dsq = delta[out] * delta[out]
            rad = np.sqrt(std * std + dtd * (dsq - sts))
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = np.where(std >= 0, (dsq - sts) / (std + rad), (rad - std) / dtd)
            steps[:, live[out]] = so + tau * do_
            resids[:, live[out]] = r[:, out] - tau * hd[:, out]
            keep = ~out
            live, d, r, s, rtr = live[keep], d[:, keep], r[:, keep], s[:, keep], rtr[keep]
            act, cg_tol, delta = act[:, keep], cg_tol[keep], delta[keep]
            hd, alpha = hd[:, keep], alpha[keep]
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
    in the coordinates of ``space`` (``_Features`` or ``_Instances``).

    Each column stops once its gradient norm is at most ``eps`` times its
    norm at w = 0, at ``max_newton_iters`` accepted steps, or when its trust
    region can no longer improve it.  A column whose objective, gradient
    norm at w = 0 or reductions are not finite (C so large that they
    overflow) stops there and counts as not converged.  Returns (W,
    newton_iters, converged, cg_iters), W in ``space``'s coordinates.
    """
    n, m = Y.shape
    C = space.C
    W_out = np.zeros((space.dim, m))
    iters_out = np.zeros(m, dtype=np.int64)
    cg_out = np.zeros(m, dtype=np.int64)
    conv_out = np.zeros(m, dtype=bool)

    cols = np.arange(m)
    Y = np.asarray(Y, dtype=np.float64)
    W = np.zeros((space.dim, m))
    M = np.zeros((n, m))  # margins of the current iterates
    F = np.full(m, C * n)  # every row is active at w = 0
    G = space.gradient(W, slice(None), Y)
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
            cols, Y, W, M, G = cols[keep], Y[:, keep], W[:, keep], M[:, keep], G[:, keep]
            F, gnorm0, gnorm, delta, iters = F[keep], gnorm0[keep], gnorm[keep], delta[keep], iters[keep]
            cg = cg[keep]
        if not len(cols):
            return W_out, iters_out, conv_out, cg_out

        xi = 1.0 - Y * M
        act = (xi > 0).astype(np.float64)
        S, R, n_cg = _trcg(space, act, G, delta, CG_TOL_FACTOR * gnorm)
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
            Ya, xa = Y[:, acc], xi_new[:, acc]
            Z = np.where(xa > 0, Ya * xa, 0.0)
            W[:, acc] = W_new[:, acc]
            M[:, acc] = M_new[:, acc]
            F[acc] = F_new[acc]
            # the space takes W[:, acc] itself, so that copy dies before the product
            G[:, acc] = space.gradient(W, acc, Z)
            gnorm[acc] = _norm(space.dot(G[:, acc], G[:, acc]))
            iters[acc] += 1
        halted = (snorm == 0) | (prered <= 0) | (delta <= 1e-300)
        broken = ~np.isfinite(actred) | ~np.isfinite(prered)


@dataclass(frozen=True)
class NodeSolve:
    """A node's classifiers as one float32 CSR row per sign column, plus
    each column's bias, accepted Newton steps, CG steps and whether it met
    the gradient test, the count of nonzero weights pruned at delta, and
    whether the node was solved in instance coordinates."""

    W: sp.csr_matrix
    bias: np.ndarray
    newton_iters: np.ndarray
    cg_iters: np.ndarray
    converged: np.ndarray
    n_pruned: int
    in_instances: bool


def train_node(
    X: sp.csr_matrix,
    Y: np.ndarray,
    C: float = 1.0,
    eps: float = 0.1,
    delta: float = 0.01,
) -> NodeSolve:
    """Train one classifier, with a bias term, per column of the n x m sign
    matrix ``Y`` on the rows of ``X``.

    The solve runs on the node's nonzero feature columns plus a constant
    bias feature, in batches of columns bounded by ``CHUNK_BYTES``, each
    column stopping at ``MAX_NEWTON_ITERS`` accepted steps, in instance
    coordinates when n^2 <= 4 nnz (see the module docstring).  Row j
    of the returned ``W`` is column j's feature weights with entries
    |w| <= ``delta`` pruned and values cast to float32; ``bias[j]`` is its
    bias, which is never pruned.
    """
    if not isinstance(X, sp.csr_matrix):
        raise TypeError(f"need a scipy CSR matrix, got {type(X).__name__}")
    X = X.astype(np.float64, copy=False)
    Y = np.asarray(Y)
    n, d = X.shape
    if Y.ndim != 2 or Y.shape[0] != n or Y.shape[1] == 0:
        raise ValueError(f"need an {n} x m sign matrix, m >= 1, got shape {Y.shape}")
    if not np.all(np.abs(Y) == 1):
        raise ValueError("signs must be +1 or -1")
    if not C > 0 or not eps > 0 or delta < 0:
        raise ValueError("require C > 0, eps > 0, delta >= 0")
    m = Y.shape[1]
    iters = np.zeros(m, dtype=np.int64)
    cg = np.zeros(m, dtype=np.int64)
    conv = np.ones(m, dtype=bool)
    bias = np.zeros(m, dtype=np.float32)
    Xc, feats = with_bias_feature(X)
    f = len(feats)
    in_instances = n * n <= 4 * Xc.nnz
    space = (_Instances if in_instances else _Features)(Xc, C)
    per_column = 8 * _ARRAYS_PER_COLUMN * (n + f + 1)
    step = max(1, CHUNK_BYTES // per_column)
    blocks, n_pruned = [], 0
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        # an overflowing C makes values inf or nan; _tron stops those columns
        with np.errstate(over="ignore", invalid="ignore"):
            W, iters[lo:hi], conv[lo:hi], cg[lo:hi] = _tron(space, Y[:, lo:hi], eps, MAX_NEWTON_ITERS)
        W = space.weights(W)
        bias[lo:hi] = W[f]
        Wf = W[:f].T
        P = np.where(np.abs(Wf) > delta, Wf, 0.0).astype(np.float32)
        r, c = np.nonzero(P)  # also drops a kept weight that rounds to a float32 zero
        n_pruned += int(np.count_nonzero(Wf)) - len(r)
        indptr = np.searchsorted(r, np.arange(hi - lo + 1))
        blocks.append(sp.csr_matrix((P[r, c], feats[c], indptr), shape=(hi - lo, d)))
        del P, r, c  # freed before the next batch's solve
    W = blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csr")
    return NodeSolve(W, bias, iters, cg, conv, n_pruned, in_instances)


def compact_columns(A: sp.csr_matrix) -> tuple[sp.csr_matrix, np.ndarray]:
    """``A`` on its nonzero columns, renumbered 0..f-1 in order, on A's own
    data and indptr; and the f kept column ids, in A's index dtype."""
    present = np.zeros(A.shape[1], dtype=bool)
    present[A.indices] = True
    cols = np.flatnonzero(present).astype(A.indices.dtype)
    at = (np.cumsum(present, dtype=A.indices.dtype) - 1)[A.indices]
    return sp.csr_matrix((A.data, at, A.indptr), shape=(A.shape[0], len(cols))), cols


def with_bias_feature(X: sp.csr_matrix):
    """``X`` on its nonzero feature columns (``compact_columns``), with every
    row ending in a bias feature f of value 1; and the f feature ids."""
    Xf, feats = compact_columns(X)
    n = X.shape[0]
    indptr = X.indptr + np.arange(n + 1)
    # row r's bias goes at X.indptr[r + 1] + r, after its features
    feat = np.ones(indptr[-1], dtype=bool)
    feat[indptr[1:] - 1] = False
    data = np.ones(indptr[-1], dtype=X.dtype)
    data[feat] = X.data
    indices = np.full(indptr[-1], len(feats), dtype=X.indices.dtype)
    indices[feat] = Xf.indices
    return sp.csr_matrix((data, indices, indptr), shape=(n, len(feats) + 1)), feats
