"""Label representations used to drive the tree partitioning.

Each label gets one vector:

  input   row l of Y^T X   (sum of the feature rows tagged with l)
  output  row l of Y^T Y   (co-occurrence counts with every label)
  joint   concatenation of the two, each block unit-normalized and
          scaled by 1/sqrt(2), output coordinates offset by d

All rows are L2-normalized; labels with no instances keep a zero row.
The vectors are the rows of one float64 CSR matrix V, which also comes
as two CSR factors V = B·F made from the X and Y that training holds:

  input   B = diag(1/|(Y^T X)_l|) Y^T  and  F = X
  output  B = diag(1/|(Y^T Y)_l|) Y^T  and  F = Y
  joint   B = [B_in/sqrt(2) | B_out/sqrt(2)]  and  F = blockdiag(X, Y)

so B has a row per label and a column per instance (two in the joint
space), and F is X itself in the input space.  k-means reads V only
through B and F; V is formed here once, for its row norms.
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
    """One vector per label, a row of the CSR ``matrix`` V, and V's
    factors ``B`` (labels x instances) and ``F`` (instances x ``dim``)."""

    matrix: sp.csr_matrix
    B: sp.csr_matrix
    F: sp.csr_matrix
    dim = property(lambda self: self.matrix.shape[1])


def _inverse_row_norms(m: sp.csr_matrix) -> np.ndarray:
    """1 / the L2 norm of each row of a CSR matrix, 1 for a zero row."""
    m.sort_indices()
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    return 1.0 / norms


def build_repr(X: sp.csr_matrix, Y: sp.csr_matrix, space: ReprSpace) -> LabelRepr:
    """The label vectors of ``space`` and their factors from the instance
    rows X (n x d) and their label rows Y (n x l), computed in float64."""
    Yt = Y.T.astype(np.float64)
    factors = []
    if space is not ReprSpace.OUTPUT:
        factors.append(X.astype(np.float64, copy=False))
    if space is not ReprSpace.INPUT:
        factors.append(Yt.T)
    vs, bs = [], []
    for F in factors:
        V = (Yt @ F).tocsr()
        inv = sp.diags(_inverse_row_norms(V))
        V, B = inv @ V, (inv @ Yt).tocsr()
        V.sort_indices()
        B.sort_indices()
        vs.append(V)
        bs.append(B)
    if len(factors) == 1:
        return LabelRepr(vs[0], bs[0], factors[0])
    scale = 1.0 / np.sqrt(2.0)
    V = sp.hstack([v * scale for v in vs], format="csr")
    V.sort_indices()
    B = sp.hstack([b * scale for b in bs], format="csr")
    # blockdiag(X, Y) in one copy of their arrays: each block padded to
    # every column (X's on X's own arrays), then stacked
    Fx, Fy = factors
    n, d = X.shape
    X_wide = sp.csr_matrix((Fx.data, Fx.indices, Fx.indptr), shape=(n, d + Fy.shape[1]))
    Y_wide = sp.csr_matrix((Fy.data, Fy.indices + d, Fy.indptr), shape=X_wide.shape)
    return LabelRepr(V, B, sp.vstack([X_wide, Y_wide], format="csr"))
