"""Beam-search inference over label-tree ensembles.

Scores follow the chain rule: an instance's probability for a label is the
product of the logistic routing probabilities along the path to its leaf,
times the logistic output of the leaf's one-vs-all classifier.  The beam
keeps the highest path probabilities at each depth; leaves already reached
stay in the beam and compete with deeper candidates.

Two implementations are kept deliberately separate: a per-instance
reference (`predict_ensemble`) that dots one CSR row with each classifier
by sorted-index intersection, and a batched route (`predict_batch`) that
scores each node's rows with one product and ranks dense row blocks, for
the beam cut and the final top k alike.  The beams are searched in blocks
of `BLOCK_ROWS` rows, and each block's labels are ranked in row slices
whose accumulator stays within `ACC_BYTES`.  Tests hold the routes to each
other.  The batched route's result is one `Predictions` block, which the
prediction file is written from and read back into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data import DataFormatError, Dataset, normalize_instances, read_int, read_lines
from .solver import take_rows
from .tree import Ensemble, Tree

# Rows whose beams predict_batch searches together: enough to amortize the
# per-node products.
BLOCK_ROWS = 512
# Bytes of one ranking accumulator: a block is ranked in row slices of at
# most max(1, ACC_BYTES // (8 w)) rows, w the labels the block reaches.
ACC_BYTES = 4 << 20


@dataclass(frozen=True)
class ScoredLabels:
    """Top-k labels, scores descending, ties broken by ascending label id."""

    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        if len(self.labels) != len(self.scores):
            raise ValueError("labels and scores must align")

    def __len__(self):
        return len(self.labels)

    def pairs(self):
        return list(zip(self.labels.tolist(), self.scores.tolist()))


@dataclass(frozen=True)
class Predictions:
    """Top-k labels of n instances as one block: an n x k int64 ``labels``
    matrix, each row padded with -1 after its last label, and the aligned
    float64 ``scores`` (0 in the padding).  ``p[i]`` is row i as a trimmed
    ``ScoredLabels``."""

    labels: np.ndarray
    scores: np.ndarray

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i) -> ScoredLabels:
        kept = self.labels[i] >= 0
        return ScoredLabels(self.labels[i][kept], self.scores[i][kept])

    @classmethod
    def from_rows(cls, label_rows, score_rows) -> "Predictions":
        """The block of ranked rows of any lengths, as wide as the longest."""
        lengths = np.fromiter(map(len, label_rows), dtype=np.int64, count=len(label_rows))
        filled = np.arange(lengths.max(initial=0)) < lengths[:, None]
        labels = np.full(filled.shape, -1, dtype=np.int64)
        scores = np.zeros(filled.shape)
        if len(lengths):  # np.concatenate needs at least one row
            labels[filled] = np.concatenate(label_rows)
            scores[filled] = np.concatenate(score_rows)
        return cls(labels, scores)


def logsigmoid(m: float) -> float:
    return -np.logaddexp(0.0, -m)


def _top_k(labels, scores, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k best labels and their scores, in ``ScoredLabels`` order."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((labels, -scores))[:k]
    return labels[order], scores[order]


def _margins(tree: Tree, u: int, x: sp.csr_matrix) -> list[float]:
    """Node u's classifier margins on the row ``x``, each summed in float64."""
    W, bias = tree.node_rows(u)
    xi, xv = x.indices, x.data.astype(np.float64, copy=False)
    out = []
    for lo, hi, b in zip(W.indptr[:-1], W.indptr[1:], bias):
        _, iw, ix = np.intersect1d(W.indices[lo:hi], xi, assume_unique=True, return_indices=True)
        out.append(float(np.dot(W.data[lo + iw].astype(np.float64), xv[ix])) + float(b))
    return out


def _tree_label_scores(tree: Tree, x: sp.csr_matrix, beam: int):
    """Reference beam search: all labels scored at the surviving leaves."""
    is_leaf = tree.nodes["leaf"] == 1
    frontier = [(0, 0.0)]  # (node, log path probability), from the root
    while not all(is_leaf[u] for u, _ in frontier):
        expanded = []
        for u, lp in frontier:
            if is_leaf[u]:
                expanded.append((u, lp))
                continue
            for child, m in zip(tree.child[u], _margins(tree, u, x)):
                expanded.append((child, lp + logsigmoid(m)))
        expanded.sort(key=lambda e: -e[1])
        frontier = expanded[:beam]
    labels, scores = [], []
    for u, lp in frontier:
        for lab, m in zip(tree.node_labels(u), _margins(tree, u, x)):
            labels.append(int(lab))
            scores.append(float(np.exp(lp + logsigmoid(m))))
    return labels, scores


def predict_ensemble(ens: Ensemble, x: sp.csr_matrix, beam: int = 10, k: int = 5) -> ScoredLabels:
    """Mean of per-tree scores, labels missing from a tree counting as 0.
    ``x`` is a 1 x D CSR row with sorted, distinct indices, as the rows of
    ``prepare_features`` are."""
    _check_params(beam, k)
    canonical = sp.issparse(x) and x.format == "csr" and not np.any(np.diff(x.indices) <= 0)
    if not canonical or x.shape != (1, ens.d):
        raise ValueError(f"x must be a 1 x {ens.d} CSR row with sorted, distinct indices")
    sums: dict[int, float] = {}
    for tree in ens.trees:
        labels, scores = _tree_label_scores(tree, x, beam)
        for lab, sc in zip(labels, scores):
            sums[lab] = sums.get(lab, 0.0) + sc
    t = len(ens.trees)
    labels = list(sums.keys())
    scores = [sums[lab] / t for lab in labels]
    return ScoredLabels(*_top_k(labels, scores, k))


def _check_params(beam: int, k: int) -> None:
    if beam < 1:
        raise ValueError("beam must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")


def _top_cols(P: np.ndarray, k: int):
    """(rows, ranks, cols) of the k best entries of each row of ``P``, by
    value descending, then column ascending, grouped by ascending row;
    -inf pads a row and is never picked."""
    n, m = P.shape
    # ties at a row's k-th best value stay in until the sort
    cut = np.partition(P, m - k, axis=1)[:, m - k] if k < m else np.full(n, -np.inf)
    rows, cols = np.nonzero((P >= cut[:, None]) & (P > -np.inf))  # row-major
    cols = cols[np.lexsort((cols, -P[rows, cols], rows))]  # rows stay sorted
    ranks = np.arange(len(rows)) - np.searchsorted(rows, rows)
    return rows[ranks < k], ranks[ranks < k], cols[ranks < k]


def _beam(tree: Tree, X: sp.csr_matrix, beam: int):
    """Batched beam search of one tree over the rows of ``X``: each leaf of
    the final frontier, with the rows whose beam holds it and their log
    path probabilities."""
    is_leaf = tree.nodes["leaf"] == 1
    child = tree.child.copy()
    child[is_leaf, 0] = np.flatnonzero(is_leaf)  # a leaf is its own child 0
    n, width = X.shape[0], child.shape[1]
    inst, lp = np.arange(n), np.zeros(n)
    node = rank = np.zeros(n, dtype=np.int64)  # the root, at rank 0
    while True:
        order = np.argsort(node, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(node[order])) + 1)
        groups = [(node[g[0]], g) for g in groups]
        if all(is_leaf[u] for u, _ in groups):
            return [(u, inst[g], lp[g]) for u, g in groups]
        # a row's candidate (rank, child) goes in column rank * width + child,
        # so that column order is the tie order
        P = np.full((n, (rank.max() + 1) * width), -np.inf)
        for u, g in groups:
            if is_leaf[u]:  # stays in the beam as its own child 0
                P[inst[g], rank[g] * width] = lp[g]
            else:
                W, bias = tree.node_rows(u)
                m = (take_rows(X, inst[g]) @ W.T).toarray() + bias
                cols = rank[g, None] * width + np.arange(m.shape[1])
                P[inst[g, None], cols] = lp[g, None] - np.logaddexp(0.0, -m)
        rows, rank, cols = _top_cols(P, beam)
        # the frontier holds each row's entries together, in rank order
        node = child[node[np.searchsorted(inst, rows) + cols // width], cols % width]
        inst, lp = rows, P[rows, cols]


def prepare_features(ens: Ensemble, ds: Dataset) -> sp.csr_matrix:
    """Feature matrix in the model's convention: float64, unit rows."""
    if ds.d != ens.d:
        raise DataFormatError(f"test data has D={ds.d}, the model's feature dim is D={ens.d}")
    return normalize_instances(ds)


def predict_batch(ens: Ensemble, ds: Dataset, beam: int = 10, k: int = 5) -> Predictions:
    """Ensemble top-k of every row of ``ds``: beams searched ``BLOCK_ROWS``
    rows at a time, labels ranked in row slices of each block within
    ``ACC_BYTES``; a row's result depends on that row alone.  No row holds
    more than L labels, so the block is min(k, L) wide."""
    _check_params(beam, k)
    X = prepare_features(ens, ds)
    k = min(k, ens.l)
    out = Predictions(np.full((ds.n, k), -1, dtype=np.int64), np.zeros((ds.n, k)))
    for lo in range(0, ds.n, BLOCK_ROWS):
        block = X[lo : lo + BLOCK_ROWS]
        leaves = [(tree, *leaf) for tree in ens.trees for leaf in _beam(tree, block, beam)]
        w = len(np.unique(np.concatenate([tree.node_labels(u) for tree, u, _, _ in leaves])))
        step = max(1, ACC_BYTES // (8 * w))
        for s in range(0, block.shape[0], step):
            part = block[s : s + step]
            # a leaf's inst is ascending, so its rows in the slice are one run
            cut = [(tree, u, inst[a:b] - s, lp[a:b]) for tree, u, inst, lp in leaves
                   for a, b in [np.searchsorted(inst, [s, s + step])] if a < b]
            # the accumulator has a column per label the slice reaches,
            # ascending, and holds -inf where no tree scored a label; trees
            # add in their order
            reached = np.zeros(ens.l, dtype=bool)
            reached[np.concatenate([tree.node_labels(u) for tree, u, _, _ in cut])] = True
            col_of = np.cumsum(reached) - 1
            acc = np.full((part.shape[0], np.count_nonzero(reached)), -np.inf)
            for tree, u, inst, lp in cut:
                W, bias = tree.node_rows(u)
                m = (take_rows(part, inst) @ W.T).toarray()
                # exp(lp) / (1 + exp(-(m + bias))) / T in place, op for op;
                # an overflowing exp(-m) gives the score 0, as it should
                m += bias
                with np.errstate(over="ignore"):
                    np.exp(np.negative(m, out=m), out=m)
                m += 1.0
                np.divide(np.exp(lp)[:, None], m, out=m)
                m /= len(ens.trees)
                cell = (inst[:, None], col_of[tree.node_labels(u)])
                old = acc[cell]
                m += np.maximum(old, 0, out=old)
                acc[cell] = m
            rows, ranks, cols = _top_cols(acc, k)
            out.labels[lo + s + rows, ranks] = np.flatnonzero(reached)[cols]
            out.scores[lo + s + rows, ranks] = acc[rows, cols]
    return out


def write_predictions(preds: Predictions, path) -> None:
    """One line per instance: `label:score` pairs, 5 decimals, descending."""
    with open(path, "w", encoding="utf-8") as f:
        for labels, scores in zip(preds.labels.tolist(), preds.scores.tolist()):
            pairs = (f"{lab}:{score:.5f}" for lab, score in zip(labels, scores) if lab >= 0)
            f.write(" ".join(pairs) + "\n")


def read_predictions(path) -> Predictions:
    """A prediction file's rows, one per line of ``read_lines``.  A bad
    pair, a label id ``read_int`` does not read, a repeated or negative
    label id or a non-finite score raises DataFormatError naming the file
    and the line."""
    label_rows, score_rows = [], []
    for lineno, line in enumerate(read_lines(path), start=1):
        labels, scores = [], []
        for tok in line.split():
            lab, sep, score = tok.partition(":")
            if not sep:
                raise DataFormatError(f"{path}: line {lineno}: malformed pair {tok!r}")
            try:
                label = read_int(lab)
            except ValueError as e:
                raise DataFormatError(f"{path}: line {lineno}: label id out of range") from e
            if label is None:
                raise DataFormatError(f"{path}: line {lineno}: bad label id in {tok!r}")
            try:
                scores.append(float(score))
            except ValueError as e:
                raise DataFormatError(f"{path}: line {lineno}: bad pair {tok!r}") from e
            labels.append(label)
        if len(set(labels)) != len(labels):
            raise DataFormatError(f"{path}: line {lineno}: repeated label id")
        if not all(map(math.isfinite, scores)):
            raise DataFormatError(f"{path}: line {lineno}: non-finite score")
        # -1 pads a Predictions row
        if labels and min(labels) < 0:
            raise DataFormatError(f"{path}: line {lineno}: label id out of range")
        label_rows.append(np.array(labels, dtype=np.int64))
        score_rows.append(np.array(scores))
    return Predictions.from_rows(label_rows, score_rows)
