"""``SparseRowMatrix.from_csr(m).row(i)``: row i of ``m`` as the 1 x D CSR
row ``predict_ensemble`` takes, indices sorted and explicit zeros dropped.
Nothing in the package calls it; the module goes when the reference route
moves to ``tests/`` with the benchmark change of ROADMAP item 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from scipy import sparse as sp


@dataclass(frozen=True)
class SparseRowMatrix:
    """A copy of a CSR matrix, indices sorted and zeros dropped."""

    m: sp.csr_matrix

    def row(self, i: int) -> sp.csr_matrix:
        return self.m[i : i + 1]

    @classmethod
    def from_csr(cls, m) -> "SparseRowMatrix":
        m = sp.csr_matrix(m, copy=True)
        m.sort_indices()
        m.eliminate_zeros()
        return cls(m)
