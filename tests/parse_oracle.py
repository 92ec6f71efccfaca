"""The per-line, per-token dataset parser, kept as the oracle for the
whole-buffer parser in ``labelforest.data``.

It reads the file line by line with ``readline`` and converts every
token with ``int()`` / ``float()``.  On valid files both parsers must give
equal ``Dataset`` and ``ParseStats``; on a file this one rejects with a
``DataFormatError``, the bulk parser must reject it naming the same line.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from labelforest.data import DataFormatError, Dataset, ParseStats, _parse_header


def _parse_labels(text: str, l: int, lineno: int) -> tuple[np.ndarray, int]:
    if not text:
        return np.empty(0, dtype=np.int64), 0
    try:
        ids = np.array([int(t) for t in text.split(",")], dtype=np.int64)
    except ValueError as e:
        raise DataFormatError(f"line {lineno}: bad label id in {text!r}") from e
    if np.any(ids < 0) or np.any(ids >= l):
        raise DataFormatError(f"line {lineno}: label id out of range [0, {l})")
    uniq = np.unique(ids)
    return uniq, len(ids) - len(uniq)


def parse_dataset(path) -> Dataset:
    """Parse the dataset file at ``path``; CR and CRLF read as LF."""
    with open(path, "r", encoding="utf-8") as f:
        return _parse_stream(f)


def _parse_stream(f) -> Dataset:
    header = f.readline()
    if not header:
        raise DataFormatError("empty input: missing header")
    n, d, l = _parse_header(header.rstrip("\r\n"))

    x_indptr = np.zeros(n + 1, dtype=np.int64)
    y_indptr = np.zeros(n + 1, dtype=np.int64)
    x_idx_parts, x_val_parts, y_idx_parts = [], [], []
    n_dup = 0
    n_zero = 0

    for i in range(n):
        line = f.readline()
        if line == "" and i < n:
            raise DataFormatError(f"expected {n} instance lines, found {i}")
        line = line.rstrip("\r\n")
        lineno = i + 2

        if " " in line:
            label_text, feat_text = line.split(" ", 1)
        else:
            label_text, feat_text = line, ""
        labels, dups = _parse_labels(label_text, l, lineno)
        n_dup += dups

        tokens = feat_text.split()
        fidx = np.empty(len(tokens), dtype=np.int64)
        fval = np.empty(len(tokens), dtype=np.float32)
        # a value past float32's range casts to inf, which is rejected below
        with np.errstate(over="ignore"):
            for j, tok in enumerate(tokens):
                fid, sep, sval = tok.partition(":")
                if not sep:
                    raise DataFormatError(f"line {lineno}: malformed pair {tok!r}")
                try:
                    fidx[j] = int(fid)
                    fval[j] = float(sval)
                except ValueError as e:
                    raise DataFormatError(f"line {lineno}: bad pair {tok!r}") from e
        if len(fidx):
            if np.any(fidx < 0) or np.any(fidx >= d):
                raise DataFormatError(f"line {lineno}: feature id out of range [0, {d})")
            if not np.all(np.isfinite(fval)):
                raise DataFormatError(f"line {lineno}: non-finite feature value")
            order = np.argsort(fidx, kind="stable")
            fidx, fval = fidx[order], fval[order]
            if np.any(np.diff(fidx) == 0):
                raise DataFormatError(f"line {lineno}: duplicate feature index")
            keep = fval != 0
            if not keep.all():
                n_zero += int((~keep).sum())
                fidx, fval = fidx[keep], fval[keep]

        x_idx_parts.append(fidx)
        x_val_parts.append(fval)
        y_idx_parts.append(labels)
        x_indptr[i + 1] = x_indptr[i] + len(fidx)
        y_indptr[i + 1] = y_indptr[i] + len(labels)

    trailer = f.read()
    if trailer.strip():
        raise DataFormatError("trailing content after the declared N instance lines")

    X = sp.csr_matrix(
        (
            np.concatenate(x_val_parts) if x_val_parts else np.empty(0, dtype=np.float32),
            np.concatenate(x_idx_parts) if x_idx_parts else np.empty(0, dtype=np.int64),
            x_indptr,
        ),
        shape=(n, d),
    )
    Y = sp.csr_matrix(
        (
            np.ones(int(y_indptr[-1]), dtype=np.float32),
            np.concatenate(y_idx_parts) if y_idx_parts else np.empty(0, dtype=np.int64),
            y_indptr,
        ),
        shape=(n, l),
    )
    return Dataset(X, Y, ParseStats(n_dup, n_zero))
