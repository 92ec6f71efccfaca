"""Sparse vector and row-matrix primitives used by every other module.

Vectors are stored as parallel (indices, values) arrays with strictly
increasing indices and no explicit zeros.  Values may be float32 (the
on-disk and in-model dtype) or float64; every accumulation (dot products,
norms, dense updates) is carried out in float64 regardless of the storage
dtype.
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
    """A stack of sparse rows sharing one dimensionality.

    Stored in a compressed row layout (indptr/indices/values), which keeps
    memory contiguous and streams well even when the number of rows or the
    dimensionality is very large; ``row(i)`` materializes an individual
    :class:`SparseVec` view on demand.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    dim: int

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def nnz(self) -> int:
        return len(self.indices)

    def row(self, i: int) -> SparseVec:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVec(self.indices[lo:hi], self.values[lo:hi], self.dim)

    @property
    def rows(self) -> list[SparseVec]:
        return [self.row(i) for i in range(self.n_rows)]

    @classmethod
    def from_rows(cls, rows, dim) -> "SparseRowMatrix":
        rows = list(rows)
        for r in rows:
            if r.dim != dim:
                raise ValueError("all rows must share the matrix dim")
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([r.nnz for r in rows])
        if rows:
            indices = np.concatenate([r.indices for r in rows])
            dtype = np.result_type(*(r.values.dtype for r in rows))
            values = np.concatenate([r.values.astype(dtype) for r in rows])
        else:
            indices = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.float64)
        return cls(indptr, indices, values, dim)

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

    def to_csr(self, dtype=None) -> sp.csr_matrix:
        """scipy CSR view used by the numeric kernels."""
        values = self.values if dtype is None else self.values.astype(dtype)
        return sp.csr_matrix(
            (values, self.indices, self.indptr),
            shape=(self.n_rows, self.dim),
        )

    def __eq__(self, other):
        if not isinstance(other, SparseRowMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.values, other.values)
        )
