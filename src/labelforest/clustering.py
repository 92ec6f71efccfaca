"""Unconstrained K-way spherical k-means over label vectors.

Lloyd's algorithm under the cosine distance d(v, c) = 1 - v.c, with no
balancedness constraint: clusters may end up wildly different in size and
are deliberately left that way.  Empty (or zero-mean) clusters are reseeded
with the member vector currently fitting its own cluster worst, so exactly
K centers survive every update.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse import SparseRowMatrix, SparseVec

# Lloyd's stopping rule: at most MAX_ITERS assignment rounds, and stop once
# a round improves the objective by less than TOL.
MAX_ITERS = 50
TOL = 1e-4
# Stored entries scored per block when looking for worst-fit members.
_SCORE_BLOCK_NNZ = 1 << 16


@dataclass(frozen=True)
class Partition:
    """Result of one k-means run: per-label cluster ids plus the centers."""

    assignments: np.ndarray
    centers: np.ndarray
    n_iters_run: int
    final_objective: float

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    def members(self, k: int) -> np.ndarray:
        return np.nonzero(self.assignments == k)[0]


def _stack(vecs) -> sp.csr_matrix:
    if isinstance(vecs, SparseRowMatrix):
        return vecs.to_csr(np.float64)
    if isinstance(vecs, sp.csr_matrix):
        return vecs.astype(np.float64)
    vecs = list(vecs)
    if not vecs:
        raise ValueError("need at least one vector")
    dim = vecs[0].dim
    return SparseRowMatrix.from_rows(vecs, dim).to_csr(np.float64)


def _assign(V: sp.csr_matrix, centers: np.ndarray):
    scores = V @ centers.T
    assignments = np.argmax(scores, axis=1).astype(np.int64)
    picked = scores[np.arange(V.shape[0]), assignments]
    return assignments, float(np.sum(1.0 - picked))


def _normalize_rows_dense(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _own_scores(V: sp.csr_matrix, centers: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """v_i . c_{a_i} for every row, in O(nnz): the diagonal of
    ``(V @ centers.T)[:, assignments]`` without scoring every center.

    ``np.bincount`` sums each row's products in storage order, as the
    sparse product does, so the scores are the same to the last bit.  Rows
    go in blocks of about ``_SCORE_BLOCK_NNZ`` stored entries, which bounds
    the temporaries.
    """
    n = V.shape[0]
    out = np.empty(n)
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(V.indptr, V.indptr[lo] + _SCORE_BLOCK_NNZ, side="right")) - 1
        hi = min(max(hi, lo + 1), n)
        a, b = V.indptr[lo], V.indptr[hi]
        rows = np.repeat(np.arange(hi - lo), np.diff(V.indptr[lo : hi + 1]))
        prod = V.data[a:b] * centers[assignments[lo + rows], V.indices[a:b]]
        out[lo:hi] = np.bincount(rows, weights=prod, minlength=hi - lo)
        lo = hi
    return out


def _update(V: sp.csr_matrix, assignments: np.ndarray, K: int) -> np.ndarray:
    n = V.shape[0]
    ind = sp.csr_matrix(
        (np.ones(n), assignments, np.arange(n + 1)), shape=(n, K)
    )
    sums = np.asarray((ind.T @ V).todense())
    counts = np.bincount(assignments, minlength=K).astype(np.float64)
    means = sums / np.maximum(counts, 1.0)[:, None]
    centers = _normalize_rows_dense(means)

    dead = np.nonzero((counts == 0) | (np.linalg.norm(means, axis=1) == 0))[0]
    if len(dead):
        # worst-fit members, farthest first, seed the dead clusters
        fit = 1.0 - _own_scores(V, centers, assignments)
        order = np.lexsort((np.arange(n), -fit))
        for k, member in zip(dead, order):
            row = np.asarray(V.getrow(member).todense()).ravel()
            centers[k] = _normalize_rows_dense(row[None, :])[0]
    return centers


def assign_step(vecs, centers: np.ndarray):
    """Nearest-center assignment; ties go to the lowest cluster id.

    Returns (assignments, objective) with objective = sum of 1 - v.c over
    the chosen centers.
    """
    if centers.shape[0] == 0:
        raise ValueError("centers must be non-empty")
    return _assign(_stack(vecs), np.asarray(centers, dtype=np.float64))


def update_step(vecs, assignments: np.ndarray, K: int) -> np.ndarray:
    """Normalized per-cluster means; empty clusters reseeded (see module doc)."""
    return _update(_stack(vecs), np.asarray(assignments, dtype=np.int64), K)


def _singletons(V: sp.csr_matrix, K: int) -> Partition:
    n = V.shape[0]
    centers = np.zeros((K, V.shape[1]), dtype=np.float64)
    centers[:n] = _normalize_rows_dense(np.asarray(V.todense()))
    assignments = np.arange(n, dtype=np.int64)
    # each member sits on its own normalized self: 1 - v.c = 1 - ||v||
    norms = np.sqrt(np.asarray(V.multiply(V).sum(axis=1)).ravel())
    return Partition(assignments, centers, 0, float(np.sum(1.0 - norms)))


def kmeans_partition(vecs, K: int, seed=0) -> Partition:
    """Spherical k-means by Lloyd's algorithm.

    Initial centers are K distinct member vectors chosen uniformly at
    random per seed.  Stops when the absolute objective improvement drops
    below ``TOL`` or after ``MAX_ITERS`` assignment rounds.  With
    ``len(vecs) <= K`` each vector becomes its own cluster, no iteration.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    V = _stack(vecs)
    if V.shape[0] == 0:
        raise ValueError("need at least one vector")
    if V.shape[0] <= K:
        return _singletons(V, K)

    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    picks = rng.choice(V.shape[0], size=K, replace=False)
    centers = _normalize_rows_dense(np.asarray(V[picks].todense()))
    prev_obj = None
    assignments = None
    obj = 0.0
    iters = 0
    for _ in range(MAX_ITERS):
        assignments, obj = _assign(V, centers)
        iters += 1
        if prev_obj is not None and prev_obj - obj < TOL:
            break
        prev_obj = obj
        centers = _update(V, assignments, K)
    return Partition(assignments, centers, iters, obj)
