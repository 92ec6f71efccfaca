"""Beam-search inference over label-tree ensembles.

Scores follow the chain rule: an instance's probability for a label is the
product of the logistic routing probabilities along the path to its leaf,
times the logistic output of the leaf's one-vs-all classifier.  The beam
keeps the highest path probabilities at each depth; leaves already reached
stay in the beam and compete with deeper candidates.

Two implementations are kept deliberately separate: a per-instance
reference (`predict_tree` / `predict_ensemble`) built on sparse-vector
dots, and a batched route (`predict_batch`) that groups frontier entries
by node and uses sparse matrix products.  Tests hold them to each other.
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


def logsigmoid(m: float) -> float:
    return -np.logaddexp(0.0, -m)


def _top_k(labels, scores, k: int) -> ScoredLabels:
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    order = np.lexsort((labels, -scores))[:k]
    return ScoredLabels(labels[order], scores[order])


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


def predict_tree(tree: Tree, x: SparseVec, beam: int = 10, k: int = 5) -> ScoredLabels:
    """Beam-search a single tree for one (already normalized) instance."""
    _check_params(beam, k)
    return _top_k(*_tree_label_scores(tree, x, beam), k)


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
    return _top_k(labels, scores, k)


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
        parts = []
        leaf_rows = np.flatnonzero(~internal)
        if len(leaf_rows):
            parts.append(
                (
                    inst[leaf_rows],
                    node[leaf_rows],
                    lp[leaf_rows],
                    rank[leaf_rows],
                    np.zeros(len(leaf_rows), dtype=np.int64),
                )
            )
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
    """Feature matrix in the model's convention (unit rows if trained so)."""
    if ds.d != ens.d:
        raise ValueError(f"feature dim {ds.d} != model dim {ens.d}")
    work = normalize_instances(ds) if ens.config.normalize else ds
    return work.X.to_csr(np.float64)


def predict_batch(ens: Ensemble, data, beam: int = 10, k: int = 5) -> list[ScoredLabels]:
    """Row-wise ensemble prediction over a Dataset or prepared csr matrix."""
    _check_params(beam, k)
    X = prepare_features(ens, data) if isinstance(data, Dataset) else data
    n = X.shape[0]
    if n == 0:
        return []
    inst, lab, score = zip(*(_batch_tree_triplets(tree, X, beam) for tree in ens.trees))
    merged = sp.coo_matrix(
        (np.concatenate(score) / len(ens.trees), (np.concatenate(inst), np.concatenate(lab))),
        shape=(n, ens.l),
    ).tocsr()

    out = []
    for i in range(n):
        lo, hi = merged.indptr[i], merged.indptr[i + 1]
        out.append(_top_k(merged.indices[lo:hi], merged.data[lo:hi], k))
    return out


def write_predictions(results, sink) -> None:
    """One line per instance: `label:score` pairs, 5 decimals, descending."""
    if not hasattr(sink, "write"):
        with open(sink, "w", encoding="utf-8") as f:
            write_predictions(results, f)
        return
    for res in results:
        sink.write(
            " ".join(f"{lab}:{score:.5f}" for lab, score in res.pairs()) + "\n"
        )


def read_predictions(source) -> list[ScoredLabels]:
    """Parse a prediction file back into ScoredLabels rows.

    A row whose label ids repeat, or whose scores are not finite, raises
    DataFormatError naming its line, as does any malformed pair.
    """
    try:
        if hasattr(source, "read"):
            lines = source.read().splitlines()
        else:
            with open(source, "r", encoding="utf-8") as f:
                lines = f.read().splitlines()
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{getattr(source, 'name', source)}: not UTF-8 text ({e})") from e
    out = []
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
        try:
            labels = np.array(labels, dtype=np.int64)
        except OverflowError as e:
            raise DataFormatError(f"line {lineno}: label id out of range") from e
        out.append(ScoredLabels(labels, np.array(scores)))
    return out
