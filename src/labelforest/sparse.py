"""Sparse vectors for the per-instance reference route.

Every matrix in the package (instances, labels, label representations,
classifier weights) is a scipy CSR matrix.  The reference beam search in
``predict`` and the ``Weights`` it dots with work one vector at a time:
a :class:`SparseVec` stores parallel (indices, values) arrays with strictly
increasing indices and no explicit zeros, and :class:`SparseRowMatrix`
gives the rows of a CSR matrix as such vectors.  Values may be float32
(the on-disk and in-model dtype) or float64; dot products and norms are
accumulated in float64 regardless of the storage dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp


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
class SparseRowMatrix:
    """Rows of a scipy CSR matrix as :class:`SparseVec` views, for the
    per-instance reference beam search; ``from_csr(m).row(i)`` is row i."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int

    def row(self, i: int) -> SparseVec:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVec(self.indices[lo:hi], self.values[lo:hi], self.dim)

    @classmethod
    def from_csr(cls, m: sp.csr_matrix) -> "SparseRowMatrix":
        m = m.tocsr()
        m.sort_indices()
        m.eliminate_zeros()
        return cls(
            m.indptr.astype(np.int64),
            m.indices.astype(np.int64),
            m.data.copy(),
            m.shape[1],
        )
