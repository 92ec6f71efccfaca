"""Label representations used to drive the tree partitioning.

Each label gets one vector:

  input   row l of Y^T X   (sum of the feature rows tagged with l)
  output  row l of Y^T Y   (co-occurrence counts with every label)
  joint   concatenation of the two, each block unit-normalized and
          scaled by 1/sqrt(2), output coordinates offset by d

All rows are L2-normalized; labels with no instances keep a zero row.
Each representation is one float64 CSR matrix with a row per label.
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
    """One vector per label, a row of the CSR ``matrix``; ``dim`` is the
    repr space size."""

    matrix: sp.csr_matrix
    dim = property(lambda self: self.matrix.shape[1])


def _row_normalize(m: sp.csr_matrix) -> sp.csr_matrix:
    """Scale each row of a CSR matrix to unit L2 norm (zero rows untouched)."""
    m.sort_indices()
    sq = np.asarray(m.multiply(m).sum(axis=1)).ravel()
    norms = np.sqrt(sq)
    norms[norms == 0] = 1.0
    inv = sp.diags(1.0 / norms)
    out = inv @ m
    out.sort_indices()
    return out


def build_repr(X: sp.csr_matrix, Y: sp.csr_matrix, space: ReprSpace) -> LabelRepr:
    """The label vectors of ``space`` from the instance rows X (n x d) and
    their label rows Y (n x l), computed in float64."""
    Yt = Y.T.astype(np.float64)
    blocks = []
    if space is not ReprSpace.OUTPUT:
        blocks.append(_row_normalize((Yt @ X.astype(np.float64, copy=False)).tocsr()))
    if space is not ReprSpace.INPUT:
        blocks.append(_row_normalize((Yt @ Yt.T).tocsr()))
    if len(blocks) == 1:
        return LabelRepr(blocks[0])
    scale = 1.0 / np.sqrt(2.0)
    joint = sp.hstack([b * scale for b in blocks], format="csr")
    joint.sort_indices()
    return LabelRepr(joint)
