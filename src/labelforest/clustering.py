"""Unconstrained K-way spherical k-means over label vectors.

Lloyd's algorithm under the cosine distance d(v, c) = 1 - v.c, with no
balancedness constraint: clusters may end up wildly different in size and
are deliberately left that way.  Empty (or zero-mean) clusters are reseeded
with the member vector currently fitting its own cluster worst, so exactly
K centers survive every update.  Each round reads the assignments, the
objective and the worst-fit members from one score array, ``V @ centers.T``.
When at most half the clusters gained or lost a member or were dead the
round before, an update recomputes only their sums, centers and score
columns, in place, as the others come out bit for bit the same; otherwise
it recomputes all of them into fresh arrays.

The label vectors come only as the two CSR factors of V = B·F that
``representations`` builds, and V itself is never formed: the scores are
B·(F·centersᵀ), the cluster sums (indᵀ·B)·F for the 0/1 cluster indicator
ind, and a center drawn from the rows is (B[rows]·F).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Lloyd's stopping rule: at most MAX_ITERS assignment rounds, and stop once
# a round improves the objective by less than TOL.
MAX_ITERS = 50
TOL = 1e-4


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


def _normalize_rows_dense(m: np.ndarray) -> np.ndarray:
    """Divide each nonzero row of ``m`` by its norm in place; returns the
    norms from before."""
    norms = np.linalg.norm(m, axis=1)
    m /= np.where(norms == 0, 1.0, norms)[:, None]
    return norms


def _scores(B, F, centers: np.ndarray) -> np.ndarray:
    """``V @ centers.T`` as ``B @ (F @ centers.T)``."""
    return B @ (F @ centers.T)


def _rows(B, F, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of V, dense."""
    return (B[rows] @ F).toarray()


def _update(V, assignments: np.ndarray, K: int, centers=None, scores=None, stale=None):
    """Normalized per-cluster means of the rows of V = B·F, given as the
    pair ``V = (B, F)``, dead clusters reseeded (see module doc).
    Returns ``(centers, V @ centers.T, dead)``, ``dead`` a bool mask over K
    of the clusters reseeded.  Without the last round's ``centers`` and
    ``scores`` both come fresh; with them, only the rows and columns of the
    ``stale`` clusters (a bool mask over K that holds every cluster whose
    members changed or that was dead) are recomputed, in place."""
    B, F = V
    n = B.shape[0]
    fresh = centers is None
    if fresh:
        stale = np.ones(K, dtype=bool)
    k = int(np.count_nonzero(stale))
    # the sums (ind.T @ B) @ F over the stale clusters' 0/1 indicator ind,
    # each product taken on the transposes so that it reads B's and F's own
    # arrays (ind.T @ B would convert B to CSC), and no sparse sum outlives
    # its conversion; a cluster's sum adds its members in order, whichever
    # other clusters ind holds
    rows = np.flatnonzero(stale[assignments])
    ind = sp.csr_matrix((np.ones(len(rows)), (rows, (np.cumsum(stale) - 1)[assignments[rows]])),
                        shape=(n, k))
    sums = (F.T @ (B.T @ ind)).tocsr().toarray().T
    del ind
    # the F-ordered sums keep each row norm a sequential sum, not pairwise;
    # a lone row is C-contiguous too, so it is normed as two copies
    if k == 1:
        sums = np.repeat(sums.T, 2, axis=1).T
    sums /= np.maximum(np.bincount(assignments, minlength=K)[stale], 1)[:, None]
    # dead: empty or zero-mean clusters (an empty cluster's sums are zero)
    dead = np.zeros(K, dtype=bool)
    dead[stale] = _normalize_rows_dense(sums)[:k] == 0
    if fresh:
        centers, scores = sums, _scores(B, F, sums)
    else:
        centers[stale] = sums[:k]
        # each column of a sparse x dense product is computed on its own
        redo = np.nonzero(stale & ~dead)[0]
        scores[:, redo] = _scores(B, F, centers[redo])
        scores[:, dead] = 0.0  # V @ 0, so a dead cluster's members fit worst
    del sums
    ids = np.flatnonzero(dead)
    if len(ids):
        # worst-fit members, farthest first, seed the dead clusters
        fit = 1.0 - scores[np.arange(n), assignments]
        seeds = _rows(B, F, np.lexsort((np.arange(n), -fit))[: len(ids)])
        _normalize_rows_dense(seeds)
        centers[ids] = seeds
        scores[:, ids] = _scores(B, F, seeds)
    return centers, scores, dead


def kmeans_partition(V, K: int, seed=0) -> Partition:
    """Spherical k-means by Lloyd's algorithm on the rows of V = B·F, given
    as the pair ``V = (B, F)`` of its float64 CSR factors; the rows must
    outnumber K.

    Initial centers are K distinct rows chosen uniformly at random per
    seed.  Stops when the absolute objective improvement drops below
    ``TOL`` or after ``MAX_ITERS`` assignment rounds; ties in the
    assignment go to the lowest cluster id.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    B, F = V
    n = B.shape[0]
    if n <= K:
        raise ValueError(f"need more than K={K} vectors, got {n}")

    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    centers = _rows(B, F, rng.choice(n, size=K, replace=False))
    _normalize_rows_dense(centers)
    scores = _scores(B, F, centers)
    prev_obj, prev, dead = np.inf, None, None
    for iters in range(1, MAX_ITERS + 1):
        assignments = np.argmax(scores, axis=1)
        obj = float(np.sum(1.0 - scores[np.arange(n), assignments]))
        if prev_obj - obj < TOL or iters == MAX_ITERS:
            break
        prev_obj = obj
        if prev is None:  # every center was a random row
            stale = np.ones(K, dtype=bool)
        else:  # clusters that gained or lost a member, and the reseeded ones
            moved = prev != assignments
            stale = dead | np.isin(np.arange(K), np.r_[prev[moved], assignments[moved]])
        if 2 * np.count_nonzero(stale) > K:
            centers = scores = None  # freed before the update allocates fresh ones
        centers, scores, dead = _update(V, assignments, K, centers, scores, stale)
        prev = assignments
    return Partition(assignments, centers, iters, obj)
