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

from .data import Dataset


class ReprSpace(enum.Enum):
    INPUT = "input"
    OUTPUT = "output"
    JOINT = "joint"


@dataclass(frozen=True)
class LabelRepr:
    """One vector per label, a row of the CSR ``matrix``; ``dim`` is the
    repr space size."""

    matrix: sp.csr_matrix
    space: ReprSpace
    dim: int


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


def _product_csr(ds: Dataset, right: sp.csr_matrix) -> sp.csr_matrix:
    """Compute Y^T R in float64 for a row matrix R aligned with Y's rows."""
    return (ds.Y.T.astype(np.float64) @ right.astype(np.float64)).tocsr()


def build_input_repr(ds: Dataset) -> LabelRepr:
    """Rows of Y^T X, L2-normalized."""
    return LabelRepr(_row_normalize(_product_csr(ds, ds.X)), ReprSpace.INPUT, ds.d)


def build_output_repr(ds: Dataset) -> LabelRepr:
    """Rows of Y^T Y, L2-normalized."""
    return LabelRepr(_row_normalize(_product_csr(ds, ds.Y)), ReprSpace.OUTPUT, ds.l)


def build_joint_repr(ds: Dataset) -> LabelRepr:
    """Per-block normalized [input ; output] stacked side by side, / sqrt(2)."""
    vin = _row_normalize(_product_csr(ds, ds.X))
    vout = _row_normalize(_product_csr(ds, ds.Y))
    scale = 1.0 / np.sqrt(2.0)
    joint = sp.hstack([vin * scale, vout * scale], format="csr")
    joint.sort_indices()
    return LabelRepr(joint, ReprSpace.JOINT, ds.d + ds.l)


def build_repr(ds: Dataset, space: ReprSpace) -> LabelRepr:
    if space is ReprSpace.INPUT:
        return build_input_repr(ds)
    if space is ReprSpace.OUTPUT:
        return build_output_repr(ds)
    return build_joint_repr(ds)
