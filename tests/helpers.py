"""Code that only the tests call: the sparse vector type ``SparseVec`` and
its ``dot``, building sparse vectors, CSR matrices, label matrices, node
weight blocks, trees and prediction blocks by hand, reading CSR rows as
sparse vectors and sparse vectors as CSR rows, comparing Datasets,
per-vector arithmetic, appending a bias column, beam-searching one tree
and scoring all of its labels, the first forms of a node's solve inputs
and of its children's instance sets, and writing a Dataset back as text.
Values of a ``SparseVec`` may be float32 or float64; its dot products and
norms are accumulated in float64 regardless of the storage dtype.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

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
    logsigmoid,
)
from labelforest.tree import NODE, Tree


@dataclass(frozen=True)
class SparseVec:
    """Immutable sparse vector.

    Parameters
    ----------
    indices
        Strictly increasing non-negative integer coordinates, all < ``dim``.
    values
        Finite nonzero entries aligned with ``indices``.
    dim
        Declared dimensionality of the ambient space.
    """

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        values = np.asarray(self.values)
        if values.dtype not in (np.float32, np.float64):
            values = values.astype(np.float64)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        if indices.ndim != 1 or values.ndim != 1 or len(indices) != len(values):
            raise ValueError("indices and values must be 1-d and equal length")
        if self.dim < 0:
            raise ValueError("dim must be non-negative")
        if len(indices):
            if indices[0] < 0 or indices[-1] >= self.dim:
                raise ValueError("indices must lie in [0, dim)")
            if np.any(np.diff(indices) <= 0):
                raise ValueError("indices must be strictly increasing")
            if not np.all(np.isfinite(values)):
                raise ValueError("values must be finite")
            if np.any(values == 0):
                raise ValueError("explicit zeros are not stored")

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def norm(self) -> float:
        """Euclidean norm, accumulated in float64."""
        v = self.values.astype(np.float64, copy=False)
        return float(np.sqrt(np.dot(v, v)))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseVec):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )


def dot(a: SparseVec, b: SparseVec) -> float:
    """Dot product of two sparse vectors via sorted-index intersection."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")
    common, ia, ib = np.intersect1d(
        a.indices, b.indices, assume_unique=True, return_indices=True
    )
    if not len(common):
        return 0.0
    av = a.values[ia].astype(np.float64, copy=False)
    bv = b.values[ib].astype(np.float64, copy=False)
    return float(np.dot(av, bv))


@dataclass(frozen=True)
class Weights:
    """One classifier: a weight vector plus an explicit bias term."""

    w: SparseVec
    bias: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.bias):
            raise ValueError("bias must be finite")

    def margin(self, x: SparseVec) -> float:
        return dot(self.w, x) + self.bias


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


def csr_row(v: SparseVec) -> sp.csr_matrix:
    """``v`` as a 1 x dim CSR row, the form ``predict_ensemble`` takes."""
    return sp.csr_matrix((v.values, v.indices, [0, v.nnz]), shape=(1, v.dim))


def same_csr(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Equal shape, index arrays and values (of any dtypes)."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def same_csr_bits(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """``same_csr``, and values of one dtype with the same bytes."""
    return same_csr(a, b) and a.dtype == b.dtype and a.data.tobytes() == b.data.tobytes()


def random_csr(seed: int, n: int, d: int, density: float, empty_rows: float = 0.3):
    """An n x d float64 CSR matrix of normal values in canonical format;
    about ``empty_rows`` of its rows have no entries."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, d)) < density, rng.normal(size=(n, d)), 0.0)
    dense[rng.random(n) < empty_rows] = 0.0
    return sp.csr_matrix(dense)


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
    """One ``Weights`` per row of a CSR block and its bias vector."""
    return [
        Weights(SparseVec(W.indices[lo:hi], W.data[lo:hi], W.shape[1]), float(b))
        for lo, hi, b in zip(W.indptr[:-1], W.indptr[1:], bias)
    ]


class Leaf(NamedTuple):
    """A leaf in a ``build_tree`` spec: its labels and their classifiers."""

    labels: list
    clfs: list


class Inner(NamedTuple):
    """An internal node in a ``build_tree`` spec: its children's specs and
    their routing classifiers."""

    children: list
    clfs: list


def build_tree(spec, dim: int) -> Tree:
    """The ``Tree`` of a nested spec of ``Leaf`` and ``Inner`` nodes, numbered
    in preorder.  A node's classifiers are a list of ``Weights`` or its
    (W, bias) block."""
    table, labels, blocks = [], [], []

    def visit(node, parent, depth):
        u, lo = len(table), len(labels)
        W, bias = node.clfs if isinstance(node.clfs, tuple) else weights_block(node.clfs, dim)
        table.append(None)  # numbered before its children
        blocks.append((W, bias))
        if isinstance(node, Leaf):
            labels.extend(node.labels)
        else:
            for child in node.children:
                visit(child, u, depth + 1)
        table[u] = (parent, depth, isinstance(node, Leaf), lo, len(labels), W.shape[0])

    visit(spec, -1, 0)
    W = sp.vstack([W for W, _ in blocks], format="csr").astype(np.float32)
    bias = np.concatenate([b for _, b in blocks]).astype(np.float32)
    return Tree(np.array(table, dtype=NODE), np.array(labels, dtype=np.int64), W, bias)


def tree_file_sections(buf, l: int) -> dict[str, int]:
    """The byte offset of each array in a tree file over L labels."""
    (n,) = struct.unpack_from("<q", buf, 8)
    nodes = np.frombuffer(buf, NODE, count=n, offset=16)
    m = int(nodes["rows"].sum())
    at = {"nodes": 16, "labels": 16 + NODE.itemsize * n}
    at["row_nnz"] = at["labels"] + 4 * l
    nnz = int(np.frombuffer(buf, "<u4", count=m, offset=at["row_nnz"]).sum())
    at["indices"] = at["row_nnz"] + 4 * m
    at["values"] = at["indices"] + 4 * nnz
    at["bias"] = at["values"] + 4 * nnz
    return at


def node_weights(tree: Tree, u: int) -> list[Weights]:
    """Node u's classifiers, one ``Weights`` per row."""
    return row_weights(*tree.node_rows(u))


def children(tree: Tree, u: int) -> list[int]:
    return [c for c in tree.child[u] if c >= 0]


def exhaustive_scores(tree: Tree, x: SparseVec) -> dict[int, float]:
    """Every label's chain-rule score in one tree, from a full walk: no
    beam, every leaf scored."""
    out = {}

    def walk(u, lp):
        clfs = node_weights(tree, u)
        if tree.nodes["leaf"][u]:
            for lab, clf in zip(tree.node_labels(u), clfs):
                out[int(lab)] = math.exp(lp) * float(expit(clf.margin(x)))
            return
        for child, clf in zip(children(tree, u), clfs):
            walk(child, lp + logsigmoid(clf.margin(x)))

    walk(0, 0.0)
    return out


def predict_tree(tree: Tree, x: SparseVec, beam: int = 10, k: int = 5) -> ScoredLabels:
    """Beam-search a single tree for one (already normalized) instance."""
    _check_params(beam, k)
    return ScoredLabels(*_top_k(*_tree_label_scores(tree, csr_row(x), beam), k))


def label_matrix(label_sets, l=None) -> sp.csr_matrix:
    """The float32 CSR label matrix, in canonical format, with a row per
    iterable of label ids in ``label_sets`` (repeats allowed); ``l``
    columns, by default one past the largest id."""
    rows = [np.unique(np.asarray(list(t), dtype=np.int64)) for t in label_sets]
    if l is None:
        l = 1 + max((int(r[-1]) for r in rows if len(r)), default=-1)
    return csr_from_rows([SparseVec(r, np.ones(len(r), dtype=np.float32), l) for r in rows], l)


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


def with_bias_feature_oracle(X: sp.csr_matrix):
    """``solver.with_bias_feature`` as ``train_node`` first built it: the
    features renumbered by ``np.unique`` and ``searchsorted``, and the
    bias column added by two ``np.insert`` calls."""
    n = X.shape[0]
    feats = np.unique(X.indices)
    ends = X.indptr[1:]
    Xc = sp.csr_matrix(
        (
            np.insert(X.data, ends, 1.0),
            np.insert(np.searchsorted(feats, X.indices), ends, len(feats)),
            X.indptr + np.arange(n + 1),
        ),
        shape=(n, len(feats) + 1),
    )
    return Xc, feats


def child_instances_oracle(idx: sp.csr_matrix, labels, assignments, K: int) -> list[np.ndarray]:
    """The children's instance sets as ``tree.grow`` first computed them:
    per cluster k < K, a scipy row gather of its labels' rows of ``idx``
    and an ``np.unique``."""
    return [np.unique(idx[labels[assignments == k]].indices) for k in range(K)]


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
