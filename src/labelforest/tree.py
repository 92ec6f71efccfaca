"""Shallow label-tree training and model persistence.

A tree is grown by clustering label representation vectors into at most K
groups per node, one node at a time; nodes stop splitting once they hold
at most K labels or sit at the depth cap.  Growing fixes only the shape:
each node is a slice of the tree's label order, tiled by its children's.
Internal nodes carry one routing classifier per child; leaves carry one
classifier per label.  A node's training problem follows from its labels
alone: its classifiers see the instances owning at least one of them,
except the root's, which see every instance so that unlabeled ones still
act as negatives.  A tree's nodes are trained together: once it is grown,
every node's inputs are built, and one ``solver.train_nodes`` call solves
them all, so that small nodes share solve batches.  A trained tree is a
node table, its labels, its weight rows as CSR arrays and a bias vector
(``Tree``), and a tree file stores those arrays at the widths they have in
memory.  Training writes each tree's file to the model directory as soon
as the tree is trained and keeps nothing of it, so that it holds one tree
at a time, and writes the meta file last.  A model exists only as its
directory, which ``load_model`` reads into an ``Ensemble``, its meta file
with ``data.read_lines`` and ``read_int``; a bad one raises ``DataFormatError``.
"""

from __future__ import annotations

import logging
import os
import re
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import solver
from .clustering import kmeans_partition
from .data import (DataFormatError, Dataset, build_label_index, normalize_instances, read_int,
                   read_lines)
from .representations import ReprSpace, build_repr
from .solver import NodeSolve, Problem, take_rows, train_nodes

log = logging.getLogger(__name__)

MAGIC = b"LFT1"
FORMAT_VERSION = 5


def _id_dtype(d: int) -> str:
    """The stored dtype of a tree file's feature ids: 2 bytes when every id
    below D fits them, else 4."""
    return "<u2" if d <= 2**16 else "<u4"


def _as_int(value) -> int:
    """An int setting's value: ``read_int`` of its text or of an integral
    number's digits, so within int64."""
    if not isinstance(value, (str, int, np.integer)) and float(value).is_integer():
        value = int(value)
    if (number := read_int(str(value))) is None:
        raise ValueError(f"{value!r} is not an integer")
    return number


@dataclass(frozen=True)
class TrainConfig:
    """A training run's settings, the source of ``train``'s flags and meta files."""

    n_trees: int = 3
    k: int = 100
    d_max: int = 1
    repr_space: ReprSpace = ReprSpace.INPUT
    c: float = 1.0
    eps: float = 0.1
    delta: float = 0.01
    base_seed: int = 42

    def __post_init__(self):
        # plain values by annotation (a string here), from numpy scalars or text too
        read = {"int": _as_int, "float": float, "ReprSpace": ReprSpace}
        for f in fields(self):
            object.__setattr__(self, f.name, read[f.type](getattr(self, f.name)))
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.k < 2:
            raise ValueError("k must be >= 2")
        if self.d_max < 0:
            raise ValueError("d_max must be >= 0")
        if not np.all(np.isfinite([self.c, self.eps, self.delta])):
            raise ValueError("c, eps and delta must be finite")
        if not self.c > 0 or not self.eps > 0 or self.delta < 0:
            raise ValueError("require c > 0, eps > 0, delta >= 0")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")


# One record per node of a tree, parents before children: the parent's id
# (-1 at the root), the depth, 1 for a leaf, the node's slice [label_lo,
# label_hi) of the tree's labels, and its number of weight rows.
NODE = np.dtype([(f, "<i8") for f in ("parent", "depth", "leaf", "label_lo", "label_hi", "rows")])


def _siblings(parent: np.ndarray):
    """Every node but the root, grouped by parent and in id order within a
    group; each one's rank among its siblings; and each node's child count."""
    kids = np.argsort(parent[1:], kind="stable") + 1
    rank = np.arange(len(kids)) - np.searchsorted(parent[kids], parent[kids])
    return kids, rank, np.bincount(parent[kids], minlength=len(parent))


@dataclass
class Tree:
    """A trained tree as the arrays its file stores.  ``nodes`` is its
    ``NODE`` table, each node's labels are the slice
    ``labels[label_lo:label_hi]``, and the children's slices tile the
    parent's in id order.  Node u owns the weight rows and the entries of
    ``bias`` from ``row_ptr[u]`` to ``row_ptr[u + 1]``: one classifier per
    child of an internal node, in id order, or per label of a leaf.  Weight
    row r keeps the feature ids ``ids[indptr[r]:indptr[r + 1]]``, strictly
    increasing and below D, and their float32 ``values``.  The ids have the
    file's width, ``_id_dtype(d)``, so a kept weight costs 6 bytes when
    D <= 65,536 (8 above); ``node_rows`` widens one node's ids to form its
    CSR block.  ``child[u]`` lists u's children in id order, padded with
    -1."""

    nodes: np.ndarray
    labels: np.ndarray
    indptr: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    bias: np.ndarray
    d: int

    def __post_init__(self):
        self.row_ptr = np.concatenate(([0], np.cumsum(self.nodes["rows"])))
        kids, rank, _ = _siblings(self.nodes["parent"])
        self.child = np.full((len(self.nodes), rank.max(initial=0) + 1), -1, dtype=np.int64)
        self.child[self.nodes["parent"][kids], rank] = kids

    def node_labels(self, u: int) -> np.ndarray:
        return self.labels[self.nodes["label_lo"][u] : self.nodes["label_hi"][u]]

    def node_rows(self, u: int) -> tuple[sp.csr_matrix, np.ndarray]:
        """Node u's weight rows as a CSR matrix, its ids widened to scipy's
        own index dtype for the block's shape and nnz, and its entries of
        ``bias``.  This is the one place a tree's weights become a scipy
        matrix."""
        a, b = self.row_ptr[u], self.row_ptr[u + 1]
        lo, hi = self.indptr[a], self.indptr[b]
        index = np.int32 if max(b - a, self.d, hi - lo) < 2**31 else np.int64
        W = sp.csr_matrix(
            (self.values[lo:hi], self.ids[lo:hi].astype(index),
             (self.indptr[a : b + 1] - lo).astype(index)),
            shape=(b - a, self.d),
        )
        return W, self.bias[a:b]


class Node(NamedTuple):
    """A node as ``grow`` leaves it: its labels and its children's label counts."""

    is_leaf: bool
    labels: np.ndarray
    child_sizes: np.ndarray


@dataclass
class Ensemble:
    """A model as ``load_model`` reads it from its directory."""

    trees: list[Tree]
    config: TrainConfig
    d: int
    l: int


@dataclass
class TrainReport:
    n_nodes: int = 0
    n_leaves: int = 0
    n_classifiers: int = 0
    n_zero_positive: int = 0
    n_newton_iters: int = 0
    n_cg_iters: int = 0
    n_instance_nodes: int = 0
    n_not_converged: int = 0
    n_weights_kept: int = 0
    n_weights_pruned: int = 0
    n_splits: int = 0
    n_lloyd_rounds: int = 0
    n_solve_batches: int = 0
    grow_seconds: float = 0.0
    solve_seconds: float = 0.0
    save_seconds: float = 0.0


def label_rows(B: sp.csr_matrix, F: sp.csr_matrix, rows: np.ndarray):
    """The labels ``rows`` of V = B·F as a pair of factors: their rows of B
    with only the instance columns they touch, and those rows of F with
    only the columns those touch.  The root's (every label in order) are B
    and F themselves.  Dropping empty columns leaves every product and sum
    of k-means bit for bit the same."""
    Bs = take_rows(B, rows)
    if Bs is B:
        return B, F
    Bs, insts = solver.compact_columns(Bs)
    return Bs, solver.compact_columns(take_rows(F, insts))[0]


def grow(V, config: TrainConfig, rng, report: TrainReport):
    """A tree's node table in preorder (children in cluster order), its
    labels and each node's ``Node``: a node above the depth cap with more
    than K labels is split by spherical k-means on its labels' rows of the
    label representation, given as its factors ``V = (B, F)``
    (``label_rows``), and its label slice is ordered by cluster.  Empty
    clusters that survive reseeding are dropped, so fan-out may come out
    below K; a node whose labels all fall in one cluster is a leaf.  The
    splits and their Lloyd rounds are counted in ``report``."""
    B, F = V
    labels = np.arange(B.shape[0], dtype=np.int64)
    table, nodes = [], []
    stack = [(-1, 0, 0, len(labels))]
    while stack:
        parent, depth, lo, hi = stack.pop()
        sizes = np.empty(0, dtype=np.int64)
        if hi - lo > config.k and depth < config.d_max:
            part = kmeans_partition(label_rows(B, F, labels[lo:hi]), K=config.k,
                                    seed=int(rng.integers(2**63)))
            report.n_splits += 1
            report.n_lloyd_rounds += part.n_iters_run
            counts = np.bincount(part.assignments)
            if np.count_nonzero(counts) > 1:
                labels[lo:hi] = labels[lo:hi][np.argsort(part.assignments, kind="stable")]
                sizes = counts[counts > 0]
        u = len(table)
        is_leaf = not len(sizes)
        table.append((parent, depth, is_leaf, lo, hi, hi - lo if is_leaf else len(sizes)))
        nodes.append(Node(is_leaf, labels[lo:hi], sizes))
        # popped, and so numbered, in preorder
        ends = lo + np.cumsum(sizes)
        stack += [(u, depth + 1, end - size, end) for size, end in zip(sizes[::-1], ends[::-1])]
    return np.array(table, dtype=NODE), labels, nodes


def train_node_classifiers(node: Node, idx: sp.csr_matrix, report: TrainReport) -> Problem:
    """The inputs of a node's classifiers, one per child (internal) or per
    label (leaf), which ``train_ensemble`` solves together with the rest of
    the tree's on their rows of X: the node's instances (sorted ids, named,
    not copied) and its int8 sign matrix over them, one column per
    classifier, from its labels' rows of the L x N label index ``idx``.  A
    classifier's positives carry a label of its group (one label of a leaf,
    one child's slice of an internal node).  The node's instances are all
    its positives, or every instance at the root (the node holding all L
    labels), so that unlabeled instances still act as negatives there.

    Positives carried by no instance of the node still get a classifier
    (an all-negative problem); those cases are counted in the report, as
    are the classifiers.
    """
    sizes = np.ones(len(node.labels), dtype=np.int64) if node.is_leaf else node.child_sizes
    T = take_rows(idx, node.labels)
    # every instance of a label is a positive of its group's column
    column = np.repeat(np.repeat(np.arange(len(sizes)), sizes), np.diff(T.indptr))
    insts = np.arange(T.shape[1]) if len(node.labels) == idx.shape[0] else np.unique(T.indices)
    signs = np.full((len(insts), len(sizes)), -1, dtype=np.int8)
    signs[np.searchsorted(insts, T.indices), column] = 1
    report.n_zero_positive += int(np.count_nonzero(~np.any(signs > 0, axis=0)))
    report.n_classifiers += signs.shape[1]
    return Problem(signs, insts)


def _count_solve(sol: NodeSolve, report: TrainReport) -> None:
    """Count a node's Newton and CG steps, whether it was solved in
    instance coordinates, the classifiers stopped by
    ``solver.MAX_NEWTON_ITERS`` before meeting the gradient test, and the
    weights kept and pruned."""
    report.n_weights_kept += sol.W.nnz
    report.n_weights_pruned += sol.n_pruned
    report.n_newton_iters += int(sol.newton_iters.sum())
    report.n_cg_iters += int(sol.cg_iters.sum())
    report.n_instance_nodes += sol.in_instances
    capped = ~sol.converged & (sol.newton_iters >= solver.MAX_NEWTON_ITERS)
    report.n_not_converged += int(np.count_nonzero(capped))


def _train_tree(V, X: sp.csr_matrix, idx: sp.csr_matrix, config: TrainConfig, seed: int,
                report: TrainReport) -> tuple[np.ndarray, np.ndarray, list[NodeSolve]]:
    """One tree's node table, labels and node solves: the tree is grown,
    then every node's inputs are built (``train_node_classifiers``), and
    then all its nodes are solved by one ``solver.train_nodes`` call, which
    shares solve batches between small nodes; the batches are counted in
    the report."""
    t0 = time.perf_counter()
    table, labels, nodes = grow(V, config, np.random.default_rng(seed), report)
    t1 = time.perf_counter()
    problems = [train_node_classifiers(node, idx, report) for node in nodes]
    solves = train_nodes(X, problems, C=config.c, eps=config.eps, delta=config.delta)
    for sol in solves:
        _count_solve(sol, report)
    report.n_solve_batches += len(np.unique(np.concatenate([s.batch for s in solves])))
    report.grow_seconds += t1 - t0
    report.solve_seconds += time.perf_counter() - t1
    report.n_nodes += len(table)
    report.n_leaves += int(table["leaf"].sum())
    return table, labels, solves


def train_ensemble(ds: Dataset, config: TrainConfig, report: TrainReport, model_dir) -> None:
    """Train T trees differing only in their clustering seed, and write
    them to ``model_dir`` as a model.

    The label representation, the factors B and F, is built once and
    shared; instances are unit-normalized first.  Each tree is trained by
    ``_train_tree``, and its file is written as soon as it is trained, from
    its node solves as they are; nothing of the tree is kept.  The meta
    file is written last, so a directory whose writing stopped part-way
    holds no loadable model.  The time spent writing is counted in the
    report.
    """
    if ds.l < 1:
        raise DataFormatError("training needs at least one label")
    idx = build_label_index(ds)
    X = normalize_instances(ds)
    repr_ = build_repr(X, ds.Y, config.repr_space)
    V = repr_.B, repr_.F

    for t in range(config.n_trees):
        seed = config.base_seed + t
        log.info("training tree %d/%d (seed %d)", t + 1, config.n_trees, seed)
        table, labels, solves = _train_tree(V, X, idx, config, seed, report)
        t0 = time.perf_counter()
        _write_tree(model_dir, t, table, labels,
                    [(s.W.indptr, s.W.indices, s.W.data, s.bias) for s in solves], ds.d)
        report.save_seconds += time.perf_counter() - t0
        # nothing of tree t may outlive this pass: tree t + 1 is trained in its memory
        del solves
    t0 = time.perf_counter()
    with open(model_file(model_dir), "w", encoding="utf-8") as f:
        f.write(_meta_lines(config, ds.d, ds.l))
    report.save_seconds += time.perf_counter() - t0


# A model's meta file holds a ``key=value`` line per key, in this order: the format's
# own keys (None) and each setting's, named by its field (a space by its value).
META_KEYS = {"version": None, "T": "n_trees", "K": "k", "d_max": "d_max",
             "repr_space": "repr_space", "D": None, "L": None, "C": "c", "eps": "eps",
             "delta": "delta", "base_seed": "base_seed"}


def _meta_lines(config: TrainConfig, d: int, l: int) -> str:
    values = {"version": FORMAT_VERSION, "D": d, "L": l}
    values.update((key, getattr(config, f)) for key, f in META_KEYS.items() if f)
    return "".join(f"{k}={getattr(values[k], 'value', values[k])}\n" for k in META_KEYS)


def model_file(model_dir, t: int | None = None) -> str:
    """The path of a model's meta file, or of its tree t's file."""
    return os.path.join(model_dir, "meta" if t is None else f"tree_{t}.bin")


def _write_tree(model_dir, t: int, nodes: np.ndarray, labels: np.ndarray, blocks,
                d: int) -> None:
    """Write tree t's file: its node table, its labels, and its weight rows,
    given as blocks in row order, each a (row pointer, feature ids, values,
    bias) tuple of any dtypes: its node solves' CSR arrays.  Each section
    is written block by block, cast to its stored dtype, so the blocks are
    never stacked.  Before tree 0's file, the directory is made if it is
    missing, and any meta file and tree files in it are removed: from then
    until ``train_ensemble`` writes meta last, the directory holds no
    loadable model, and no tree of an older, larger model outlives it."""
    if t == 0:
        os.makedirs(model_dir, exist_ok=True)
        for name in os.listdir(model_dir):
            if re.fullmatch(r"meta|tree_[0-9]+\.bin", name):
                os.remove(os.path.join(model_dir, name))
    ptrs, ids, values, bias = zip(*blocks)
    sections = [
        ([[FORMAT_VERSION]], "<u4"),
        ([[len(nodes)]], "<i8"),
        ([nodes], NODE),
        ([labels], "<u4"),
        (map(np.diff, ptrs), "<u4"),
        (ids, _id_dtype(d)),
        (values, "<f4"),
        (bias, "<f4"),
    ]
    with open(model_file(model_dir, t), "wb") as f:
        f.write(MAGIC)
        for blocks, dtype in sections:
            for a in blocks:
                f.write(np.asarray(a, dtype=dtype).data)


def _check_nodes(nodes: np.ndarray, l: int, d_max: int) -> None:
    """Raise DataFormatError unless the nonempty ``nodes`` is the table of
    a tree over L labels, up to depth ``d_max``, with each node's row count
    its child count (internal) or label count (leaf)."""
    parent, depth, leaf, lo, hi, rows = (nodes[name] for name in NODE.names)
    ids = np.arange(len(nodes))
    if parent[0] != -1 or np.any((parent[1:] < 0) | (parent[1:] >= ids[1:])):
        raise DataFormatError("a node's parent is out of range or not before it")
    if depth[0] != 0 or np.any(depth[1:] != depth[parent[1:]] + 1):
        raise DataFormatError("a node's depth is not its parent's depth + 1")
    if depth.max() > d_max:
        raise DataFormatError(f"node depth {depth.max()} exceeds d_max={d_max}")
    kids, rank, n_children = _siblings(parent)
    if np.any((leaf != 0) & (leaf != 1)) or np.any((leaf == 1) != (n_children == 0)):
        raise DataFormatError("inconsistent leaf flag: a leaf with children or a node without")
    # a first child starts where its parent does, any other where its
    # previous sibling ends, and a last child ends where its parent does
    up = parent[kids]
    starts = np.where(rank == 0, lo[up], hi[np.roll(kids, 1)])
    last = rank == n_children[up] - 1
    if (lo[0], hi[0]) != (0, l) or np.any(lo > hi) or np.any(lo[kids] != starts) \
            or np.any(hi[kids[last]] != hi[up[last]]):
        raise DataFormatError("label ranges do not tile their parent's")
    if np.any(rows != np.where(leaf == 1, hi - lo, n_children)):
        raise DataFormatError("a node's row count is not its child or label count")


def _read_tree(f, d: int, l: int, d_max: int) -> Tree:
    """A tree file's arrays, each checked as a whole.  Each is filled by one
    read from the open file ``f`` into a new array of its final dtype, once
    its size is checked against the bytes left in the file; feature ids are
    kept, and checked, at their stored width, with no wider copy."""
    left = os.fstat(f.fileno()).st_size - len(MAGIC)

    def take(dtype, count):
        nonlocal left
        size = np.dtype(dtype).itemsize * count
        if size > left:
            raise DataFormatError(f"truncated tree file: {size} bytes wanted, {left} left")
        left -= size
        a = np.empty(count, dtype=dtype)
        # a buffered read of a regular file comes back short only at EOF
        if f.readinto(a.view(np.uint8)) < size:
            raise DataFormatError("truncated tree file")
        return a

    if f.read(len(MAGIC)) != MAGIC:
        raise DataFormatError("bad magic bytes")
    version = int(take("<u4", 1)[0])
    if version != FORMAT_VERSION:
        raise DataFormatError(f"unsupported version {version}")
    n_nodes = int(take("<i8", 1)[0])
    if n_nodes < 1:
        raise DataFormatError(f"{n_nodes} nodes")
    nodes = take(NODE, n_nodes)
    _check_nodes(nodes, l, d_max)
    labels = take("<u4", l).astype(np.int64)
    if labels.max() >= l:
        raise DataFormatError(f"label id {labels.max()} out of range [0, {l})")
    if np.any(np.bincount(labels, minlength=l) != 1):
        raise DataFormatError(f"leaves do not hold each of the L={l} labels once")
    m = int(nodes["rows"].sum())
    indptr = np.concatenate(([0], np.cumsum(take("<u4", m), dtype=np.int64)))
    nnz = int(indptr[-1])
    ids = take(_id_dtype(d), nnz)
    if nnz and ids.max() >= d:
        raise DataFormatError(f"bad classifier weights: feature id {ids.max()} >= D={d}")
    values = take("<f4", nnz)
    bias = take("<f4", m)
    if f.read(1):
        raise DataFormatError("trailing bytes")
    # each id against the one before it, at the stored width, but not a
    # row's first id; the mask, a byte a weight, goes before the next check
    falls = ids[1:] <= ids[:-1]
    starts = indptr[1:-1]
    falls[starts[(0 < starts) & (starts < nnz)] - 1] = False
    if falls.any():
        raise DataFormatError("bad classifier weights: indices not strictly increasing")
    del falls
    if not np.all(np.isfinite(values)) or not values.all():
        raise DataFormatError("bad classifier weights: zero or non-finite weight")
    if not np.all(np.isfinite(bias)):
        raise DataFormatError("bad classifier bias: not finite")
    return Tree(nodes, labels, indptr, ids, values, bias, d)


def load_model(model_dir) -> Ensemble:
    """The model in ``model_dir``, every file of it checked as it is read."""
    try:
        lines = read_lines(model_file(model_dir))
    except FileNotFoundError as e:
        raise DataFormatError(f"no meta file in {model_dir}") from e
    meta = {}
    try:
        for line in filter(str.strip, lines):
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"no '=' in line {line!r}")
            if value != value.strip():
                raise ValueError(f"{key} value {value!r} has spaces around it")
            if key in meta:
                raise ValueError(f"repeated key {key!r}")
            meta[key] = value
        if _as_int(meta["version"]) != FORMAT_VERSION:
            raise ValueError(f"unsupported model version {meta['version']}")
        unknown = sorted(set(meta) - set(META_KEYS))
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        config = TrainConfig(**{f: meta[key] for key, f in META_KEYS.items() if f})
        d, l = _as_int(meta["D"]), _as_int(meta["L"])
        if not (0 <= d <= 2**32 and 0 < l <= 2**32):
            raise ValueError(f"D={d} or L={l} out of range")
    except (KeyError, ValueError) as e:
        raise DataFormatError(f"bad meta file: {e}") from e

    trees = []
    for t in range(config.n_trees):
        path = model_file(model_dir, t)
        try:
            with open(path, "rb") as f:
                trees.append(_read_tree(f, d, l, config.d_max))
        except FileNotFoundError as e:
            raise DataFormatError(f"{path}: missing, but meta has T={config.n_trees}") from e
        except DataFormatError as e:
            raise DataFormatError(f"{path}: {e}") from e
    return Ensemble(trees, config, d, l)
