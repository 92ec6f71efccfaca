"""Label representations used to drive the tree partitioning.

Each label gets one vector:

  input   row l of Y^T X   (sum of the feature rows tagged with l)
  output  row l of Y^T Y   (co-occurrence counts with every label)
  joint   concatenation of the two, each block unit-normalized and
          scaled by 1/sqrt(2), output coordinates offset by d

All rows are L2-normalized; labels with no instances keep a zero row.
The vectors are the rows of V = B·F, and the representation is the two
float64 CSR factors made from the X and Y that training holds:

  input   B = diag(1/|(Y^T X)_l|) Y^T  and  F = X
  output  B = diag(1/|(Y^T Y)_l|) Y^T  and  F = Y
  joint   B = [B_in/sqrt(2) | B_out/sqrt(2)]  and  F = blockdiag(X, Y)

so B has a row per label and a column per instance (two in the joint
space), and F is X itself in the input space.  Each block's Y^T F is
formed here only for its row norms, a few labels at a time, and then
dropped; k-means reads the labels through B and F, and training never
forms V.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class ReprSpace(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    JOINT = "joint"


@dataclass(frozen=True)
class LabelRepr:
    """One vector per label, a row of V = ``B`` @ ``F``: the factors ``B``
    (labels x instances) and ``F`` (instances x ``dim``)."""

    B: sp.csr_matrix
    F: sp.csr_matrix
    dim = property(lambda self: self.F.shape[1])

    @property
    def matrix(self) -> sp.csr_matrix:
        """V itself, formed on each read as canonical CSR."""
        V = self.B @ self.F
        V.sum_duplicates()
        return V


def _inverse_row_norms(m: sp.csr_matrix) -> np.ndarray:
    """1 / the L2 norm of each row of a CSR matrix, 1 for a zero row."""
    m.sort_indices()
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    return 1.0 / norms


def _inverse_label_norms(Yt: sp.spmatrix, F: sp.csr_matrix) -> np.ndarray:
    """``_inverse_row_norms(Yt @ F)`` for the L x N label matrix ``Yt``,
    with the product formed a block of labels at a time: each block's
    instance counts sum to at most N (one label at least), so that it
    takes about as many products as F has nonzeros.  A row's sums run in
    the same order as in the whole product, so the norms are its bits."""
    Yt = Yt.tocsr()
    ends = np.concatenate(([0], np.cumsum(np.diff(Yt.indptr))))
    norms, lo = [np.empty(0)], 0
    while lo < Yt.shape[0]:
        hi = max(int(np.searchsorted(ends, ends[lo] + Yt.shape[1], side="right")) - 1, lo + 1)
        norms.append(_inverse_row_norms(Yt[lo:hi] @ F))
        lo = hi
    return np.concatenate(norms)


def build_repr(X: sp.csr_matrix, Y: sp.csr_matrix, space: ReprSpace) -> LabelRepr:
    """The factors of the label vectors of ``space`` from the instance rows
    X (n x d) and their label rows Y (n x l), computed in float64."""
    Yt = Y.T.astype(np.float64)
    factors = []
    if space is not ReprSpace.OUTPUT:
        factors.append(X.astype(np.float64, copy=False))
    if space is not ReprSpace.INPUT:
        factors.append(Yt.T)
    bs = []
    for F in factors:
        inv = sp.diags(_inverse_label_norms(Yt, F))
        B = (inv @ Yt).tocsr()
        B.sort_indices()
        bs.append(B)
    if len(factors) == 1:
        return LabelRepr(bs[0], factors[0])
    scale = 1.0 / np.sqrt(2.0)
    B = sp.hstack([b * scale for b in bs], format="csr")
    # blockdiag(X, Y) in one copy of their arrays: each block padded to
    # every column (X's on X's own arrays), then stacked
    Fx, Fy = factors
    n, d = X.shape
    X_wide = sp.csr_matrix((Fx.data, Fx.indices, Fx.indptr), shape=(n, d + Fy.shape[1]))
    Y_wide = sp.csr_matrix((Fy.data, Fy.indices + d, Fy.indptr), shape=X_wide.shape)
    return LabelRepr(B, sp.vstack([X_wide, Y_wide], format="csr"))
