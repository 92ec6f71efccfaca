"""Code that only the tests call: building sparse vectors, CSR matrices,
node weight blocks and prediction blocks by hand, reading CSR rows as
sparse vectors, comparing Datasets, per-vector arithmetic, appending a
bias column, beam-searching one tree, and writing a Dataset back as text.
"""

from __future__ import annotations

import io

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from labelforest.data import Dataset
from labelforest.predict import (
    Predictions,
    ScoredLabels,
    _check_params,
    _top_k,
    _tree_label_scores,
)
from labelforest.solver import Weights
from labelforest.sparse import SparseVec
from labelforest.tree import Tree, TreeNode


def vec_from_pairs(pairs, dim, dtype=np.float64) -> SparseVec:
    """Build from an iterable of (index, value) pairs, sorting as needed and
    dropping zeros."""
    pairs = sorted(pairs, key=lambda p: p[0])
    idx = np.array([p[0] for p in pairs], dtype=np.int64)
    val = np.array([p[1] for p in pairs], dtype=dtype)
    keep = val != 0
    return SparseVec(idx[keep], val[keep], dim)


def csr_from_rows(rows, dim) -> sp.csr_matrix:
    """The CSR matrix with the given ``SparseVec`` rows, of their common
    value dtype (float64 when there are no rows)."""
    rows = list(rows)
    if any(r.dim != dim for r in rows):
        raise ValueError("all rows must share the matrix dim")
    indptr = np.concatenate(([0], np.cumsum([r.nnz for r in rows], dtype=np.int64)))
    if rows:
        indices = np.concatenate([r.indices for r in rows])
        values = np.concatenate([r.values for r in rows])
    else:
        indices, values = np.empty(0, dtype=np.int64), np.empty(0)
    return sp.csr_matrix((values, indices, indptr), shape=(len(rows), dim))


def row(m: sp.csr_matrix, i: int) -> SparseVec:
    """Row i of a CSR matrix as a ``SparseVec``."""
    lo, hi = m.indptr[i], m.indptr[i + 1]
    return SparseVec(m.indices[lo:hi], m.data[lo:hi], m.shape[1])


def rows(m: sp.csr_matrix) -> list[SparseVec]:
    return [row(m, i) for i in range(m.shape[0])]


def same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Equal shape, index arrays and values (of any dtypes)."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def same_dataset(a: Dataset, b: Dataset) -> bool:
    """Equal counts and matrices; ``stats`` is not compared."""
    return (a.n, a.d, a.l) == (b.n, b.d, b.l) and same_csr(a.X, b.X) and same_csr(a.Y, b.Y)


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
    W = csr_from_rows([c.w for c in classifiers], dim).astype(np.float32)
    return W, np.array([c.bias for c in classifiers], dtype=np.float32)


def row_weights(W, bias) -> list[Weights]:
    """One ``Weights`` per row of a CSR block and its bias vector: the
    views ``TreeNode.classifiers`` gives the reference beam search."""
    return TreeNode(0, np.empty(0, dtype=np.int64), None, True, W=W, bias=bias).classifiers


def predict_tree(tree: Tree, x: SparseVec, beam: int = 10, k: int = 5) -> ScoredLabels:
    """Beam-search a single tree for one (already normalized) instance."""
    _check_params(beam, k)
    return ScoredLabels(*_top_k(*_tree_label_scores(tree, x, beam), k))


def ranked(label_rows) -> Predictions:
    """A ``Predictions`` block of ranked label lists, every score 0 (the
    metrics read only the labels)."""
    return Predictions.from_rows(
        [np.asarray(r, dtype=np.int64) for r in label_rows],
        [np.zeros(len(r)) for r in label_rows],
    )


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
        x, y = row(ds.X, i), row(ds.Y, i)
        labels = ",".join(str(j) for j in y.indices)
        feats = " ".join(f"{j}:{v}" for j, v in zip(x.indices, x.values))
        sink.write(f"{labels} {feats}".rstrip() + "\n" if feats else f"{labels}\n")


def dataset_to_text(ds: Dataset) -> str:
    buf = io.StringIO()
    serialize_dataset(ds, buf)
    return buf.getvalue()
