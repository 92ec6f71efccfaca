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
column of one dense weight matrix W, and every Hessian product for all of
them is one sparse-times-dense product.  Each column keeps its own trust
radius, stopping test, iteration count and CG state, and leaves the batch
as soon as it stops.
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


def _trcg(X, XT, act, C, G, delta, cg_tol):
    """CG-Steihaug for every column: approximately minimize each column's
    quadratic model within its trust region.  ``act`` holds each column's
    active rows as 0/1.  Returns (steps, residuals)."""
    steps = np.zeros_like(G)
    resids = np.empty_like(G)
    live = np.arange(G.shape[1])
    d = -G
    r = -G
    s = np.zeros_like(G)
    rtr = _coldot(r, r)
    for _ in range(MAX_CG_ITERS):
        done = np.sqrt(rtr) <= cg_tol
        if done.any():
            steps[:, live[done]] = s[:, done]
            resids[:, live[done]] = r[:, done]
            keep = ~done
            live, d, r, s, rtr = live[keep], d[:, keep], r[:, keep], s[:, keep], rtr[keep]
            act, cg_tol, delta = act[:, keep], cg_tol[keep], delta[keep]
        if not len(live):
            return steps, resids
        hd = 2.0 * d + 2.0 * C * (XT @ (act * (X @ d)))
        alpha = rtr / _coldot(d, hd)
        s = s + alpha * d
        out = np.sqrt(_coldot(s, s)) > delta
        if out.any():
            # these columns hit the boundary: back off, then step to it
            so, do_, ao = s[:, out], d[:, out], alpha[out]
            so -= ao * do_
            std, sts, dtd = _coldot(so, do_), _coldot(so, so), _coldot(do_, do_)
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
                return steps, resids
        r = r - alpha * hd
        rtr_new = _coldot(r, r)
        d = r + (rtr_new / rtr) * d
        rtr = rtr_new
    steps[:, live] = s
    resids[:, live] = r
    return steps, resids


def _tron(X, XT, Y, C, eps, max_newton_iters):
    """Trust-region Newton on every column of the sign matrix ``Y`` at once.

    ``XT`` is ``X.T`` as CSR.  Each column stops once its gradient norm is
    at most ``eps`` times its norm at w = 0, at ``max_newton_iters``
    accepted steps, or when its trust region can no longer improve it.  A
    column whose objective, gradient norm at w = 0 or reductions are not
    finite (C so large that they overflow) stops there and counts as not
    converged.  Returns (W, newton_iters, converged).
    """
    n, dim = X.shape
    m = Y.shape[1]
    W_out = np.zeros((dim, m))
    iters_out = np.zeros(m, dtype=np.int64)
    conv_out = np.zeros(m, dtype=bool)

    cols = np.arange(m)
    Y = np.asarray(Y, dtype=np.float64)
    W = np.zeros((dim, m))
    M = np.zeros((n, m))  # margins X @ W of the current iterates
    F = np.full(m, C * n)  # every row is active at w = 0
    G = 2.0 * W - 2.0 * C * (XT @ Y)
    gnorm0 = np.sqrt(_coldot(G, G))
    gnorm = gnorm0.copy()
    delta = gnorm0.copy()
    iters = np.zeros(m, dtype=np.int64)
    halted = np.zeros(m, dtype=bool)
    broken = ~np.isfinite(F) | ~np.isfinite(gnorm0)

    while True:
        conv = (gnorm <= eps * gnorm0) & ~broken
        done = halted | broken | (iters >= max_newton_iters) | conv
        if done.any():
            W_out[:, cols[done]] = W[:, done]
            iters_out[cols[done]] = iters[done]
            conv_out[cols[done]] = conv[done]
            keep = ~done
            cols, Y, W, M, G = cols[keep], Y[:, keep], W[:, keep], M[:, keep], G[:, keep]
            F, gnorm0, gnorm, delta, iters = F[keep], gnorm0[keep], gnorm[keep], delta[keep], iters[keep]
        if not len(cols):
            return W_out, iters_out, conv_out

        xi = 1.0 - Y * M
        act = (xi > 0).astype(np.float64)
        S, R = _trcg(X, XT, act, C, G, delta, CG_TOL_FACTOR * gnorm)
        snorm = np.sqrt(_coldot(S, S))
        W_new = W + S
        M_new = X @ W_new
        xi_new = 1.0 - Y * M_new
        loss = np.maximum(xi_new, 0.0)
        F_new = _coldot(W_new, W_new) + C * _coldot(loss, loss)
        actred = F - F_new
        gs = _coldot(G, S)
        # R = -G - H S, so this is -(gs + 0.5 S'HS)
        prered = -0.5 * (gs - _coldot(S, R))

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
            G[:, acc] = 2.0 * W[:, acc] - 2.0 * C * (XT @ Z)
            gnorm[acc] = np.sqrt(_coldot(G[:, acc], G[:, acc]))
            iters[acc] += 1
        halted = (snorm == 0) | (prered <= 0) | (delta <= 1e-300)
        broken = ~np.isfinite(actred) | ~np.isfinite(prered)


@dataclass(frozen=True)
class NodeSolve:
    """A node's classifiers as one float32 CSR row per sign column, plus
    each column's bias, accepted Newton steps and whether it met the
    gradient test, and the count of nonzero weights pruned at delta."""

    W: sp.csr_matrix
    bias: np.ndarray
    newton_iters: np.ndarray
    converged: np.ndarray
    n_pruned: int


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
    column stopping at ``MAX_NEWTON_ITERS`` accepted steps.  Row j
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
    conv = np.ones(m, dtype=bool)
    bias = np.zeros(m, dtype=np.float32)
    Xc, feats = with_bias_feature(X)
    f = len(feats)
    XT = Xc.T.tocsr()
    per_column = 8 * _ARRAYS_PER_COLUMN * (n + f + 1)
    step = max(1, CHUNK_BYTES // per_column)
    blocks, n_pruned = [], 0
    for lo in range(0, m, step):
        hi = min(m, lo + step)
        W, iters[lo:hi], conv[lo:hi] = _tron(Xc, XT, Y[:, lo:hi], C, eps, MAX_NEWTON_ITERS)
        bias[lo:hi] = W[f]
        Wf = W[:f].T
        P = np.where(np.abs(Wf) > delta, Wf, 0.0).astype(np.float32)
        r, c = np.nonzero(P)  # also drops a kept weight that rounds to a float32 zero
        n_pruned += int(np.count_nonzero(Wf)) - len(r)
        indptr = np.searchsorted(r, np.arange(hi - lo + 1))
        blocks.append(sp.csr_matrix((P[r, c], feats[c], indptr), shape=(hi - lo, d)))
        del P, r, c  # freed before the next batch's solve
    W = blocks[0] if len(blocks) == 1 else sp.vstack(blocks, format="csr")
    return NodeSolve(W, bias, iters, conv, n_pruned)


def with_bias_feature(X: sp.csr_matrix):
    """``X`` on its nonzero feature columns, renumbered 0..f-1 in order, with
    every row ending in a bias feature f of value 1; and the f feature ids."""
    n, d = X.shape
    present = np.zeros(d, dtype=bool)
    present[X.indices] = True
    feats = np.flatnonzero(present).astype(X.indices.dtype)
    indptr = X.indptr + np.arange(n + 1)
    # row r's bias goes at X.indptr[r + 1] + r, after its features
    feat = np.ones(indptr[-1], dtype=bool)
    feat[indptr[1:] - 1] = False
    data = np.ones(indptr[-1], dtype=X.dtype)
    data[feat] = X.data
    indices = np.full(indptr[-1], len(feats), dtype=X.indices.dtype)
    indices[feat] = (np.cumsum(present, dtype=X.indices.dtype) - 1)[X.indices]
    return sp.csr_matrix((data, indices, indptr), shape=(n, len(feats) + 1)), feats
