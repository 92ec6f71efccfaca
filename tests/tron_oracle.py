"""Single-classifier solvers kept as oracles for the batched one in
``labelforest.solver``.

``solve_dense`` is scalar trust-region Newton, one classifier at a time and
one CG vector at a time: the solver the batched one replaced; tests hold
every batched column to it, and counts its Hessian products as CG steps.
``train_binary`` is the batched solver's ``_tron`` called on one sign
column in feature coordinates; its ``SolveInfo`` trace is the objective of
the iterate after each accepted step, from w = 0, taken by solving again
with the step cap set to that step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from labelforest.solver import (
    CG_TOL_FACTOR,
    ETA0,
    ETA1,
    ETA2,
    MAX_CG_ITERS,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    _Features,
    _tron,
)

from helpers import SparseVec, Weights


@dataclass(frozen=True)
class BinaryProblem:
    """Feature rows with a sign per row and the loss trade-off C."""

    X: sp.csr_matrix
    signs: np.ndarray
    C: float = 1.0

    def __post_init__(self):
        if not isinstance(self.X, sp.csr_matrix):
            raise TypeError(f"need a scipy CSR matrix, got {type(self.X).__name__}")
        X = self.X.astype(np.float64, copy=False)
        signs = np.asarray(self.signs, dtype=np.float64).ravel()
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "signs", signs)
        if X.shape[0] != len(signs) or len(signs) < 1:
            raise ValueError("need one sign per row and at least one row")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        if not self.C > 0:
            raise ValueError("C must be positive")

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def objective(p: BinaryProblem, w: np.ndarray) -> float:
    xi = 1.0 - p.signs * (p.X @ w)
    act = xi > 0
    return float(w @ w + p.C * np.dot(xi[act], xi[act]))


def gradient(p: BinaryProblem, w: np.ndarray) -> np.ndarray:
    xi = 1.0 - p.signs * (p.X @ w)
    z = np.where(xi > 0, p.signs * xi, 0.0)
    return 2.0 * w - 2.0 * p.C * (p.X.T @ z)


@dataclass
class SolveInfo:
    n_newton_iters: int = 0
    objective_trace: list = field(default_factory=list)
    converged: bool = False


def train_binary(
    p: BinaryProblem,
    eps: float = 0.1,
    max_newton_iters: int = 100,
    info: SolveInfo | None = None,
) -> Weights:
    """Minimize f(w) with the batched solver until ||grad|| <= eps *
    ||grad at w=0|| or the iteration cap.  The objective has no bias term,
    so the returned weights carry bias 0."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    space = _Features(p.X, p.X.T.tocsr(), p.C)
    W, iters, conv, _ = _tron(space, p.signs[:, None], eps, max_newton_iters)
    if info is not None:
        info.n_newton_iters = int(iters[0])
        info.converged = bool(conv[0])
        info.objective_trace.extend(
            objective(p, _tron(space, p.signs[:, None], eps, t)[0][:, 0])
            for t in range(info.n_newton_iters + 1)
        )
    w = W[:, 0]
    idx = np.nonzero(w)[0].astype(np.int64)
    return Weights(SparseVec(idx, w[idx], p.dim), 0.0)


def prune_threshold(a: SparseVec, delta: float) -> SparseVec:
    """Drop entries with |value| <= delta; dim is unchanged."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if delta == 0:
        return a
    keep = np.abs(a.values) > delta
    if keep.all():
        return a
    return SparseVec(a.indices[keep], a.values[keep], a.dim)


@dataclass
class OracleInfo:
    n_newton_iters: int = 0
    n_cg_iters: int = 0  # Hessian products, one per CG step
    converged: bool = False
    boundary_steps: int = 0  # CG solves that stopped on the trust region
    n_pruned: int = 0  # nonzero feature weights at or below delta
    objective_trace: list = field(default_factory=list)


def trcg(delta, g, hess_vec, cg_tol):
    """CG-Steihaug: approximately minimize the quadratic model within the
    trust region.  Returns (step, residual, hit_boundary)."""
    d = -g
    r = -g.copy()
    s = np.zeros_like(g)
    rtr = float(r @ r)
    for _ in range(MAX_CG_ITERS):
        if np.sqrt(rtr) <= cg_tol:
            break
        hd = hess_vec(d)
        alpha = rtr / float(d @ hd)
        s += alpha * d
        if np.linalg.norm(s) > delta:
            s -= alpha * d
            std = float(s @ d)
            sts = float(s @ s)
            dtd = float(d @ d)
            dsq = delta * delta
            rad = np.sqrt(std * std + dtd * (dsq - sts))
            tau = (dsq - sts) / (std + rad) if std >= 0 else (rad - std) / dtd
            s += tau * d
            r -= tau * hd
            return s, r, True
        r -= alpha * hd
        rtr_new = float(r @ r)
        d = r + (rtr_new / rtr) * d
        rtr = rtr_new
    return s, r, False


def solve_dense(p: BinaryProblem, eps=0.1, max_newton_iters=100, info=None) -> np.ndarray:
    X, s, C = p.X, p.signs, p.C
    w = np.zeros(p.dim)
    fw = objective(p, w)
    g = gradient(p, w)
    gnorm0 = np.linalg.norm(g)
    if info is not None:
        info.objective_trace.append(fw)
    # at w = 0 the gradient is -2C X^T s; when its terms cancel, what is
    # left is rounding, at most n float64 epsilons of the terms' magnitude
    # sums, and w = 0 is the minimum
    sums = 2.0 * C * (abs(X).T @ np.ones(X.shape[0]))
    if gnorm0 <= X.shape[0] * np.finfo(np.float64).eps * np.linalg.norm(sums):
        if info is not None:
            info.converged = True
        return w

    delta = gnorm0
    gnorm = gnorm0
    iters = 0
    while iters < max_newton_iters and gnorm > eps * gnorm0:
        xi = 1.0 - s * (X @ w)
        act = np.nonzero(xi > 0)[0]
        X_act = X if len(act) == X.shape[0] else X[act]

        def hess_vec(v, X_act=X_act, C=C):
            if info is not None:
                info.n_cg_iters += 1
            return 2.0 * v + 2.0 * C * (X_act.T @ (X_act @ v))

        step, resid, hit = trcg(delta, g, hess_vec, CG_TOL_FACTOR * gnorm)
        if info is not None:
            info.boundary_steps += int(hit)
        snorm = np.linalg.norm(step)
        if snorm == 0:
            break
        w_new = w + step
        f_new = objective(p, w_new)
        actred = fw - f_new
        gs = float(g @ step)
        prered = -0.5 * (gs - float(step @ resid))

        denom = f_new - fw - gs
        alpha = SIGMA3 if denom <= 0 else max(SIGMA1, -0.5 * (gs / denom))

        if actred < ETA0 * prered:
            delta = min(max(alpha, SIGMA1) * snorm, SIGMA2 * delta)
        elif actred < ETA1 * prered:
            delta = max(SIGMA1 * delta, min(alpha * snorm, SIGMA2 * delta))
        elif actred < ETA2 * prered:
            delta = max(SIGMA1 * delta, min(alpha * snorm, SIGMA3 * delta))
        else:
            delta = max(delta, min(alpha * snorm, SIGMA3 * delta))

        if actred > ETA0 * prered:
            w, fw = w_new, f_new
            g = gradient(p, w)
            gnorm = np.linalg.norm(g)
            iters += 1
            if info is not None:
                info.objective_trace.append(fw)
        if prered <= 0:
            break
        if delta <= 1e-300:
            break
    if info is not None:
        info.n_newton_iters = iters
        info.converged = gnorm <= eps * gnorm0
    return w


def oracle_train_node(X, Y, C=1.0, eps=0.1, delta=0.01, max_newton_iters=100):
    """One scalar solve per sign column of ``Y`` over all of ``X``'s
    columns, the last of which must be the constant bias feature (see
    ``helpers.with_bias_column``).  Returns (weights, infos) with weights
    split, pruned and cast as ``labelforest.solver.train_nodes`` promises."""
    X = sp.csr_matrix(X, dtype=np.float64)
    d = X.shape[1] - 1
    weights, infos = [], []
    for j in range(Y.shape[1]):
        info = OracleInfo()
        if X.shape[0] == 0:
            w = np.zeros(d + 1)
            info.converged = True
        else:
            w = solve_dense(BinaryProblem(X, Y[:, j], C), eps, max_newton_iters, info)
        feats = w[:d]
        idx = np.nonzero(feats)[0]
        vec = prune_threshold(SparseVec(idx, feats[idx], d), delta)
        info.n_pruned = len(idx) - vec.nnz
        weights.append(
            Weights(SparseVec(vec.indices, vec.values.astype(np.float32), d), float(np.float32(w[d])))
        )
        infos.append(info)
    return weights, infos
