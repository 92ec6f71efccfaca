"""Beam-search inference over label-tree ensembles.

Scores follow the chain rule: an instance's probability for a label is the
product of the logistic routing probabilities along the path to its leaf,
times the logistic output of the leaf's one-vs-all classifier.  The beam
keeps the highest path probabilities at each depth; leaves already reached
stay in the beam and compete with deeper candidates.

Two implementations are kept deliberately separate: a per-instance
reference (`predict_ensemble`) built on sparse-vector dots, and a batched
route (`predict_batch`) that groups frontier entries by node and uses
sparse matrix products.  Tests hold them to each other.
The batched route's result is one `Predictions` block, which the
prediction file is written from and read back into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import DataFormatError, Dataset, normalize_instances
from .sparse import SparseVec
from .tree import Ensemble, Tree

# Rows scored together by predict_batch: enough to amortize the per-node
# products, few enough that a block's merged label scores stay small.
BLOCK_ROWS = 512


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


def _tree_label_scores(tree: Tree, x: SparseVec, beam: int):
    """Reference beam search: all labels scored at the surviving leaves."""
    frontier = [(tree.root, 0.0)]
    while any(not node.is_leaf for node, _ in frontier):
        expanded = []
        for node, lp in frontier:
            if node.is_leaf:
                expanded.append((node, lp))
                continue
            for child, clf in zip(node.children, node.classifiers):
                expanded.append((child, lp + logsigmoid(clf.margin(x))))
        expanded.sort(key=lambda e: -e[1])
        frontier = expanded[:beam]
    labels, scores = [], []
    for node, lp in frontier:
        path_prob = np.exp(lp)
        for lab, clf in zip(node.labels, node.classifiers):
            labels.append(int(lab))
            scores.append(path_prob * float(expit(clf.margin(x))))
    return labels, scores


def predict_ensemble(ens: Ensemble, x: SparseVec, beam: int = 10, k: int = 5) -> ScoredLabels:
    """Mean of per-tree scores, labels missing from a tree counting as 0."""
    _check_params(beam, k)
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


def _batch_tree_triplets(tree: Tree, X: sp.csr_matrix, beam: int):
    """Batched beam search for one tree.

    Returns (instance_ids, label_ids, scores) triplets for every label
    scored at a surviving leaf.
    """
    nodes = list(tree.iter_nodes())  # preorder: a node's number is its index
    uid_of = {id(nd): u for u, nd in enumerate(nodes)}
    is_leaf = np.array([nd.is_leaf for nd in nodes])
    children = [np.array([uid_of[id(c)] for c in nd.children], dtype=np.int64) for nd in nodes]

    n = X.shape[0]
    inst = np.arange(n, dtype=np.int64)
    node = np.zeros(n, dtype=np.int64)
    lp = np.zeros(n)
    rank = np.zeros(n, dtype=np.int64)

    while True:
        internal = ~is_leaf[node]
        if not internal.any():
            break
        # a leaf stays in the frontier as its own child number 0
        stay = ~internal
        parts = [(inst[stay], node[stay], lp[stay], rank[stay], np.zeros_like(rank[stay]))]
        for uid in np.unique(node[internal]):
            rows = np.flatnonzero((node == uid) & internal)
            nd = nodes[uid]
            m = (X[inst[rows]] @ nd.W.T).toarray() + nd.bias
            child_lp = lp[rows, None] - np.logaddexp(0.0, -m)
            n_child = len(children[uid])
            parts.append(
                (
                    np.repeat(inst[rows], n_child),
                    np.tile(children[uid], len(rows)),
                    child_lp.ravel(),
                    np.repeat(rank[rows], n_child),
                    np.tile(np.arange(n_child, dtype=np.int64), len(rows)),
                )
            )
        inst_a, node_a, lp_a, r_a, c_a = (np.concatenate(col) for col in zip(*parts))

        order = np.lexsort((c_a, r_a, -lp_a, inst_a))
        inst_s, node_s, lp_s = inst_a[order], node_a[order], lp_a[order]
        starts = np.flatnonzero(np.r_[True, np.diff(inst_s) != 0])
        run_lengths = np.diff(np.r_[starts, len(inst_s)])
        pos = np.arange(len(inst_s)) - np.repeat(starts, run_lengths)
        keep = pos < beam
        inst, node, lp, rank = inst_s[keep], node_s[keep], lp_s[keep], pos[keep]

    out = []
    for uid in np.unique(node):
        rows = np.flatnonzero(node == uid)
        nd = nodes[uid]
        m = (X[inst[rows]] @ nd.W.T).toarray() + nd.bias
        scores = expit(m) * np.exp(lp[rows])[:, None]
        n_lab = len(nd.labels)
        out.append((np.repeat(inst[rows], n_lab), np.tile(nd.labels, len(rows)), scores.ravel()))
    return tuple(np.concatenate(col) for col in zip(*out))


def prepare_features(ens: Ensemble, ds: Dataset) -> sp.csr_matrix:
    """Feature matrix in the model's convention: float64, unit rows."""
    if ds.d != ens.d:
        raise DataFormatError(f"test data has D={ds.d}, the model's feature dim is D={ens.d}")
    return normalize_instances(ds).X.astype(np.float64)


def predict_batch(ens: Ensemble, ds: Dataset, beam: int = 10, k: int = 5) -> Predictions:
    """Ensemble top-k of every row of ``ds``, scored ``BLOCK_ROWS`` rows
    at a time; a row's result depends on that row alone."""
    _check_params(beam, k)
    X = prepare_features(ens, ds)
    out = Predictions(np.full((ds.n, k), -1, dtype=np.int64), np.zeros((ds.n, k)))
    for lo in range(0, ds.n, BLOCK_ROWS):
        block = X[lo : lo + BLOCK_ROWS]
        inst, lab, score = zip(*(_batch_tree_triplets(tree, block, beam) for tree in ens.trees))
        merged = sp.coo_matrix(
            (np.concatenate(score) / len(ens.trees), (np.concatenate(inst), np.concatenate(lab))),
            shape=(block.shape[0], ens.l),
        ).tocsr()
        for i in range(block.shape[0]):
            row = slice(merged.indptr[i], merged.indptr[i + 1])
            labels, scores = _top_k(merged.indices[row], merged.data[row], k)
            out.labels[lo + i, : len(labels)] = labels
            out.scores[lo + i, : len(scores)] = scores
    return out


def write_predictions(preds: Predictions, path) -> None:
    """One line per instance: `label:score` pairs, 5 decimals, descending."""
    with open(path, "w", encoding="utf-8") as f:
        for labels, scores in zip(preds.labels.tolist(), preds.scores.tolist()):
            pairs = (f"{lab}:{score:.5f}" for lab, score in zip(labels, scores) if lab >= 0)
            f.write(" ".join(pairs) + "\n")


def read_predictions(path) -> Predictions:
    """Parse a prediction file into a Predictions block.  A malformed pair,
    or a row with a repeated or negative label id or a non-finite score,
    raises DataFormatError naming its line."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not UTF-8 text ({e})") from e
    label_rows, score_rows = [], []
    for lineno, line in enumerate(lines, start=1):
        labels, scores = [], []
        for tok in line.split():
            lab, sep, score = tok.partition(":")
            if not sep:
                raise DataFormatError(f"line {lineno}: malformed pair {tok!r}")
            try:
                labels.append(int(lab))
                scores.append(float(score))
            except ValueError as e:
                raise DataFormatError(f"line {lineno}: bad pair {tok!r}") from e
        if len(set(labels)) != len(labels):
            raise DataFormatError(f"line {lineno}: repeated label id")
        if not all(map(math.isfinite, scores)):
            raise DataFormatError(f"line {lineno}: non-finite score")
        # ids are stored as int64, and -1 pads a Predictions row
        if labels and not (0 <= min(labels) and max(labels) < 2**63):
            raise DataFormatError(f"line {lineno}: label id out of range")
        label_rows.append(np.array(labels, dtype=np.int64))
        score_rows.append(np.array(scores))
    return Predictions.from_rows(label_rows, score_rows)
