"""Code that only the tests call: building sparse vectors and node weight
blocks by hand, per-vector arithmetic, appending a bias column, and writing
a Dataset back as text.
"""

from __future__ import annotations

import io

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from labelforest.data import Dataset
from labelforest.solver import Weights
from labelforest.sparse import SparseRowMatrix, SparseVec
from labelforest.tree import TreeNode


def vec_from_pairs(pairs, dim, dtype=np.float64) -> SparseVec:
    """Build from an iterable of (index, value) pairs, sorting as needed and
    dropping zeros."""
    pairs = sorted(pairs, key=lambda p: p[0])
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    val = np.array([p[1] for p in pairs], dtype=dtype)
    keep = val != 0
    return SparseVec(idx[keep], val[keep], dim)


def l2_normalize(a: SparseVec) -> SparseVec:
    """Scale to unit euclidean norm; the all-zero vector passes through."""
    n = a.norm()
    if n == 0.0:
        return a
    return SparseVec(a.indices, a.values.astype(np.float64) / n, a.dim)


def add_scaled(acc: np.ndarray, a: SparseVec, s: float) -> None:
    """In-place acc[j] += s * a_j over the nonzeros of ``a``.

    ``acc`` must be a dense float64 array of length ``a.dim``.
    """
    if len(acc) != a.dim:
        raise ValueError(f"accumulator length {len(acc)} != dim {a.dim}")
    if a.nnz:
        acc[a.indices] += s * a.values.astype(np.float64, copy=False)


def node_child_prob(w: Weights, x: SparseVec) -> float:
    """Logistic routing probability sigma(w.x + bias)."""
    return float(expit(w.margin(x)))


def weights_block(classifiers: list[Weights], dim: int):
    """A node's (W, bias) from one ``Weights`` per row: a float32 CSR
    matrix with ``dim`` columns and a float32 bias vector."""
    W = SparseRowMatrix.from_rows([c.w for c in classifiers], dim).to_csr(np.float32)
    return W, np.array([c.bias for c in classifiers], dtype=np.float32)


def row_weights(W, bias) -> list[Weights]:
    """One ``Weights`` per row of a CSR block and its bias vector: the
    views ``TreeNode.classifiers`` gives the reference beam search."""
    return TreeNode(0, np.empty(0, dtype=np.int64), None, True, W=W, bias=bias).classifiers


def with_bias_column(X: sp.csr_matrix) -> sp.csr_matrix:
    """Append a constant all-ones feature column: the rows ``train_node``
    solves on, for the solvers that have no bias term of their own."""
    out = sp.hstack([X, sp.csr_matrix(np.ones((X.shape[0], 1), dtype=X.dtype))], format="csr")
    out.sort_indices()
    return out


def serialize_dataset(ds: Dataset, sink) -> None:
    """Write a Dataset in canonical text form (round-trips through parse)."""
    sink.write(f"{ds.n} {ds.d} {ds.l}\n")
    for i in range(ds.n):
        x, y = ds.X.row(i), ds.Y.row(i)
        labels = ",".join(str(j) for j in y.indices)
        feats = " ".join(f"{j}:{v}" for j, v in zip(x.indices, x.values))
        sink.write(f"{labels} {feats}".rstrip() + "\n" if feats else f"{labels}\n")


def dataset_to_text(ds: Dataset) -> str:
    buf = io.StringIO()
    serialize_dataset(ds, buf)
    return buf.getvalue()
