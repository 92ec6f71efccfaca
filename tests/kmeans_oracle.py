"""Full-recompute Lloyd rounds, kept as the oracle for the incremental ones
in ``labelforest.clustering``.

Every update sums the clusters with ``ind.T @ V`` (which converts V to CSC)
and scores every row against every center with one full ``V @ centers.T``.
The incremental update must give the same partition bit for bit:
assignments, center bytes, rounds run and final objective.  The stopping
rule is read from ``labelforest.clustering`` at call time, so a test that
lowers ``MAX_ITERS`` lowers it for both.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from labelforest import clustering
from labelforest.clustering import Partition, _normalize_rows_dense


def update_full(V: sp.csr_matrix, assignments: np.ndarray, K: int):
    """Normalized cluster means, dead clusters reseeded with the worst-fit
    members; returns ``(centers, V @ centers.T)``."""
    n = V.shape[0]
    ind = sp.csr_matrix((np.ones(n), assignments, np.arange(n + 1)), shape=(n, K))
    centers = (ind.T @ V).toarray()
    centers /= np.maximum(np.bincount(assignments, minlength=K), 1)[:, None]
    dead = np.nonzero(_normalize_rows_dense(centers) == 0)[0]
    scores = V @ centers.T
    if len(dead):
        fit = 1.0 - scores[np.arange(n), assignments]
        seeds = V[np.lexsort((np.arange(n), -fit))[: len(dead)]].toarray()
        _normalize_rows_dense(seeds)
        centers[dead] = seeds
        scores[:, dead] = V @ seeds.T
    return centers, scores


def kmeans_partition_full(V: sp.csr_matrix, K: int, seed=0) -> Partition:
    """``kmeans_partition`` with a full ``update_full`` every round."""
    n = V.shape[0]
    V = V.astype(np.float64, copy=False)
    rng = np.random.default_rng(np.random.default_rng(seed).integers(2**63))
    centers = V[rng.choice(n, size=K, replace=False)].toarray()
    _normalize_rows_dense(centers)
    scores = V @ centers.T
    prev_obj = np.inf
    for iters in range(1, clustering.MAX_ITERS + 1):
        assignments = np.argmax(scores, axis=1)
        obj = float(np.sum(1.0 - scores[np.arange(n), assignments]))
        if prev_obj - obj < clustering.TOL or iters == clustering.MAX_ITERS:
            break
        prev_obj = obj
        centers, scores = update_full(V, assignments, K)
    return Partition(assignments, centers, iters, obj)
