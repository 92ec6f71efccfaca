"""Shallow label-tree training and model persistence.

A tree is grown by clustering label representation vectors into at most K
groups per node, one node at a time; nodes stop splitting once they hold
at most K labels or sit at the depth cap.  Internal nodes carry one
routing classifier per child; leaves carry one classifier per label.
Every classifier is trained only on the instances owning at least one of
the node's labels, except the root, which sees the whole training set so
that unlabeled instances still act as negatives.  A trained tree is a
node table, its labels, and one weight matrix and bias vector (``Tree``),
and a tree file is those arrays.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import solver
from .clustering import kmeans_partition
from .data import DataFormatError, Dataset, build_label_index, normalize_instances
from .representations import ReprSpace, build_repr
from .solver import NodeSolve, train_node

log = logging.getLogger(__name__)

MAGIC = b"LFT1"
FORMAT_VERSION = 4


class ModelFormatError(ValueError):
    """Raised when a model directory or tree file cannot be decoded."""


@dataclass(frozen=True)
class TrainConfig:
    n_trees: int = 3
    k: int = 100
    d_max: int = 1
    repr_space: ReprSpace = ReprSpace.INPUT
    c: float = 1.0
    eps: float = 0.1
    delta: float = 0.01
    base_seed: int = 42

    def __post_init__(self):
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
    """A trained tree as arrays.  ``nodes`` is its ``NODE`` table, each
    node's labels are the slice ``labels[label_lo:label_hi]``, and the
    children's slices tile the parent's in id order.  Node u owns rows
    ``row_ptr[u]:row_ptr[u + 1]`` of the float32 CSR matrix ``W`` (one
    column per feature) and of ``bias``: one classifier per child of an
    internal node, in id order, or per label of a leaf.  ``child[u]`` lists
    u's children in id order, padded with -1."""

    nodes: np.ndarray
    labels: np.ndarray
    W: sp.csr_matrix
    bias: np.ndarray

    def __post_init__(self):
        self.row_ptr = np.concatenate(([0], np.cumsum(self.nodes["rows"])))
        kids, rank, _ = _siblings(self.nodes["parent"])
        self.child = np.full((len(self.nodes), rank.max(initial=0) + 1), -1, dtype=np.int64)
        self.child[self.nodes["parent"][kids], rank] = kids

    def node_labels(self, u: int) -> np.ndarray:
        return self.labels[self.nodes["label_lo"][u] : self.nodes["label_hi"][u]]

    def node_rows(self, u: int) -> tuple[sp.csr_matrix, np.ndarray]:
        """Node u's rows of ``W``, as a CSR matrix on W's own arrays, and of
        ``bias``."""
        a, b = self.row_ptr[u], self.row_ptr[u + 1]
        lo, hi = self.W.indptr[a], self.W.indptr[b]
        W = sp.csr_matrix(
            (self.W.data[lo:hi], self.W.indices[lo:hi], self.W.indptr[a : b + 1] - lo),
            shape=(b - a, self.W.shape[1]),
        )
        return W, self.bias[a:b]


class Node(NamedTuple):
    """One node's training inputs, as ``grow`` leaves them: its labels, its
    instances (sorted ids) and, for an internal node, each child's."""

    is_leaf: bool
    labels: np.ndarray
    instances: np.ndarray
    child_instances: list


@dataclass
class Ensemble:
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
    n_not_converged: int = 0
    n_weights_kept: int = 0
    n_weights_pruned: int = 0
    grow_seconds: float = 0.0
    solve_seconds: float = 0.0


def take_rows(A: sp.csr_matrix, rows: np.ndarray) -> sp.csr_matrix:
    """``A[rows]`` for distinct nonnegative row ids, from slices of A's arrays;
    ``A`` itself, not a copy, when ``rows`` is every row in order (a root)."""
    if len(rows) == A.shape[0] and np.array_equal(rows, np.arange(len(rows))):
        return A
    starts = A.indptr[rows]
    counts = A.indptr[rows + 1] - starts
    indptr = np.zeros(len(rows) + 1, dtype=A.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    at = np.arange(indptr[-1], dtype=indptr.dtype) + np.repeat(starts - indptr[:-1], counts)
    return sp.csr_matrix((A.data[at], A.indices[at], indptr), shape=(len(rows), A.shape[1]))


def grow(idx: sp.csr_matrix, V: sp.csr_matrix, n: int, config: TrainConfig, rng):
    """A tree's node table in preorder (children in cluster order), its
    labels and each node's ``Node``: a node above the depth cap with more
    than K labels is split by spherical k-means on its labels' rows of the
    label representation ``V``.  Row j of ``idx`` holds the instances of
    label j; the root holds all ``n`` instances.

    Empty clusters that survive reseeding are dropped, so fan-out may come
    out below K; a node whose labels all fall in one cluster is a leaf.
    """
    labels = np.arange(V.shape[0], dtype=np.int64)
    table, nodes = [], []
    stack = [(-1, 0, 0, len(labels), np.arange(n, dtype=np.int64))]
    while stack:
        parent, depth, lo, hi, insts = stack.pop()
        kids = []
        if hi - lo > config.k and depth < config.d_max:
            part = kmeans_partition(take_rows(V, labels[lo:hi]), K=config.k,
                                    seed=int(rng.integers(2**63)))
            if len(np.unique(part.assignments)) > 1:
                kids = _split(labels, lo, hi, part.assignments, idx, config.k)
        u = len(table)
        is_leaf = not kids
        table.append((parent, depth, is_leaf, lo, hi, hi - lo if is_leaf else len(kids)))
        nodes.append(Node(is_leaf, labels[lo:hi], insts, [k[2] for k in kids]))
        # popped, and so numbered, in preorder
        stack += [(u, depth + 1, *k) for k in reversed(kids)]
    return np.array(table, dtype=NODE), labels, nodes


def _split(labels, lo, hi, assignments, idx, K):
    """Order ``labels[lo:hi]`` by cluster, keeping their order within one,
    and return the [lo, hi) slice and the instances of each nonempty
    cluster, in cluster order."""
    # one sort on (cluster, instance) of the node's label rows gives each
    # child's instances, all in the node's own (label sets only shrink)
    T = take_rows(idx, labels[lo:hi])
    keys = np.unique(np.repeat(assignments, np.diff(T.indptr)) * T.shape[1] + T.indices)
    clusters, members = np.divmod(keys, T.shape[1])
    child_insts = np.split(members, np.searchsorted(clusters, np.arange(1, K)))
    labels[lo:hi] = labels[lo:hi][np.argsort(assignments, kind="stable")]
    sizes = np.bincount(assignments, minlength=K)
    ends = lo + np.cumsum(sizes)
    return [(end - size, end, child_insts[k])
            for k, (size, end) in enumerate(zip(sizes, ends)) if size]


def train_node_classifiers(
    node: Node, X: sp.csr_matrix, idx: sp.csr_matrix, config: TrainConfig, report: TrainReport
) -> NodeSolve:
    """Train one classifier per child (internal) or per label (leaf), all
    in one batched solve over the node's instances.

    Positives carried by no instance of the node still get a classifier
    (an all-negative problem); those cases are counted in the report, as
    are Newton steps, the classifiers stopped by ``solver.MAX_NEWTON_ITERS``
    before meeting the gradient test, and the weights kept and pruned.
    """
    insts = node.instances
    # the positive instances of every classifier, one run per classifier
    if node.is_leaf:
        T = take_rows(idx, node.labels)
        positives, counts = T.indices, np.diff(T.indptr)
    else:
        positives = np.concatenate(node.child_instances)
        counts = np.array([len(c) for c in node.child_instances])

    signs = np.full((len(insts), len(counts)), -1, dtype=np.int8)
    signs[np.searchsorted(insts, positives), np.repeat(np.arange(len(counts)), counts)] = 1
    report.n_zero_positive += int(np.count_nonzero(counts == 0))
    sol = train_node(take_rows(X, insts), signs, C=config.c, eps=config.eps, delta=config.delta)
    report.n_classifiers += len(counts)
    report.n_weights_kept += sol.W.nnz
    report.n_weights_pruned += sol.n_pruned
    report.n_newton_iters += int(sol.newton_iters.sum())
    capped = ~sol.converged & (sol.newton_iters >= solver.MAX_NEWTON_ITERS)
    report.n_not_converged += int(np.count_nonzero(capped))
    return sol


def train_ensemble(
    ds: Dataset, config: TrainConfig = TrainConfig(), report: TrainReport | None = None
) -> Ensemble:
    """Train T trees differing only in their clustering seed.

    The label representation is built once and shared; instances are
    unit-normalized first.
    """
    if ds.l < 1:
        raise DataFormatError("training needs at least one label")
    report = report if report is not None else TrainReport()
    idx = build_label_index(ds)
    X = normalize_instances(ds)
    V = build_repr(X, ds.Y, config.repr_space).matrix

    trees = []
    for t in range(config.n_trees):
        seed = config.base_seed + t
        log.info("training tree %d/%d (seed %d)", t + 1, config.n_trees, seed)
        t0 = time.perf_counter()
        table, labels, nodes = grow(idx, V, ds.n, config, np.random.default_rng(seed))
        t1 = time.perf_counter()
        solves = [train_node_classifiers(node, X, idx, config, report) for node in nodes]
        report.grow_seconds += t1 - t0
        report.solve_seconds += time.perf_counter() - t1
        report.n_nodes += len(table)
        report.n_leaves += int(table["leaf"].sum())
        # one W per tree: the nodes' blocks are stacked once, then dropped
        W = sp.vstack([s.W for s in solves], format="csr")
        trees.append(Tree(table, labels, W, np.concatenate([s.bias for s in solves])))
        del nodes, solves
    return Ensemble(trees, config, ds.d, ds.l)


# A model's meta file holds one ``key=value`` line per key, in this order.
META_KEYS = "version T K d_max repr_space D L C eps delta base_seed".split()


def _meta_lines(ens: Ensemble) -> str:
    c = ens.config
    values = (FORMAT_VERSION, c.n_trees, c.k, c.d_max, c.repr_space.value, ens.d, ens.l,
              repr(c.c), repr(c.eps), repr(c.delta), c.base_seed)
    return "".join(f"{k}={v}\n" for k, v in zip(META_KEYS, values))


def save_model(ens: Ensemble, model_dir) -> None:
    os.makedirs(model_dir, exist_ok=True)
    with open(os.path.join(model_dir, "meta"), "w", encoding="utf-8") as f:
        f.write(_meta_lines(ens))
    for t, tree in enumerate(ens.trees):
        W = tree.W
        with open(os.path.join(model_dir, f"tree_{t}.bin"), "wb") as f:
            f.write(MAGIC)
            for a, dtype in [
                ([FORMAT_VERSION], "<u4"),
                ([len(tree.nodes)], "<i8"),
                (tree.nodes, NODE),
                (tree.labels, "<u4"),
                (np.diff(W.indptr), "<u4"),
                (W.indices, "<u4"),
                (W.data, "<f4"),
                (tree.bias, "<f4"),
            ]:
                f.write(np.asarray(a, dtype=dtype).data)


def _check_nodes(nodes: np.ndarray, l: int, d_max: int) -> None:
    """Raise ModelFormatError unless the nonempty ``nodes`` is the table of
    a tree over L labels, up to depth ``d_max``, with each node's row count
    its child count (internal) or label count (leaf)."""
    parent, depth, leaf, lo, hi, rows = (nodes[name] for name in NODE.names)
    ids = np.arange(len(nodes))
    if parent[0] != -1 or np.any((parent[1:] < 0) | (parent[1:] >= ids[1:])):
        raise ModelFormatError("a node's parent is out of range or not before it")
    if depth[0] != 0 or np.any(depth[1:] != depth[parent[1:]] + 1):
        raise ModelFormatError("a node's depth is not its parent's depth + 1")
    if depth.max() > d_max:
        raise ModelFormatError(f"node depth {depth.max()} exceeds d_max={d_max}")
    kids, rank, n_children = _siblings(parent)
    if np.any((leaf != 0) & (leaf != 1)) or np.any((leaf == 1) != (n_children == 0)):
        raise ModelFormatError("inconsistent leaf flag: a leaf with children or a node without")
    # a first child starts where its parent does, any other where its
    # previous sibling ends, and a last child ends where its parent does
    up = parent[kids]
    starts = np.where(rank == 0, lo[up], hi[np.roll(kids, 1)])
    last = rank == n_children[up] - 1
    if (lo[0], hi[0]) != (0, l) or np.any(lo > hi) or np.any(lo[kids] != starts) \
            or np.any(hi[kids[last]] != hi[up[last]]):
        raise ModelFormatError("label ranges do not tile their parent's")
    if np.any(rows != np.where(leaf == 1, hi - lo, n_children)):
        raise ModelFormatError("a node's row count is not its child or label count")


def _parse_tree(buf: bytes, d: int, l: int, d_max: int) -> Tree:
    """A tree file's arrays, each checked as a whole."""
    if buf[:4] != MAGIC:
        raise ModelFormatError("bad magic bytes")
    pos = 4

    def take(dtype, count):
        nonlocal pos
        size = np.dtype(dtype).itemsize * count
        if pos + size > len(buf):
            raise ModelFormatError("truncated tree file")
        pos += size
        return np.frombuffer(buf, dtype=dtype, count=count, offset=pos - size)

    version = int(take("<u4", 1)[0])
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported version {version}")
    n_nodes = int(take("<i8", 1)[0])
    if n_nodes < 1:
        raise ModelFormatError(f"{n_nodes} nodes")
    nodes = take(NODE, n_nodes)
    _check_nodes(nodes, l, d_max)
    labels = take("<u4", l).astype(np.int64)
    if labels.max() >= l:
        raise ModelFormatError(f"label id {labels.max()} out of range [0, {l})")
    if np.any(np.bincount(labels, minlength=l) != 1):
        raise ModelFormatError(f"leaves do not hold each of the L={l} labels once")
    m = int(nodes["rows"].sum())
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(take("<u4", m), out=indptr[1:])
    indices = take("<u4", int(indptr[-1]))
    values = take("<f4", int(indptr[-1]))
    bias = take("<f4", m)
    if pos != len(buf):
        raise ModelFormatError("trailing bytes")
    try:
        W = sp.csr_matrix((values, indices, indptr), shape=(m, d))
        W.check_format(full_check=True)
    except ValueError as e:
        raise ModelFormatError(f"bad classifier weights: {e}") from e
    if not W.has_canonical_format:
        raise ModelFormatError("bad classifier weights: indices not strictly increasing")
    if not np.all(np.isfinite(values)) or not values.all():
        raise ModelFormatError("bad classifier weights: zero or non-finite weight")
    if not np.all(np.isfinite(bias)):
        raise ModelFormatError("bad classifier bias: not finite")
    return Tree(nodes, labels, W, bias)


def _parse_meta(text: str) -> dict:
    meta = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ModelFormatError(f"bad meta line {line!r}")
        if key in meta:
            raise ModelFormatError(f"bad meta file: repeated key {key!r}")
        meta[key] = value
    return meta


def load_model(model_dir) -> Ensemble:
    path = os.path.join(model_dir, "meta")
    try:
        with open(path, "r", encoding="utf-8") as f:
            meta = _parse_meta(f.read())
    except FileNotFoundError as e:
        raise ModelFormatError(f"no meta file in {model_dir}") from e
    except UnicodeDecodeError as e:
        raise ModelFormatError(f"{path}: not UTF-8 text ({e})") from e
    try:
        if int(meta["version"]) != FORMAT_VERSION:
            raise ModelFormatError(f"unsupported model version {meta['version']}")
        unknown = sorted(set(meta) - set(META_KEYS))
        if unknown:
            raise ModelFormatError(f"bad meta file: unknown keys {unknown}")
        n_trees = int(meta["T"])
        config = TrainConfig(
            n_trees=n_trees,
            k=int(meta["K"]),
            d_max=int(meta["d_max"]),
            repr_space=ReprSpace(meta["repr_space"]),
            c=float(meta["C"]),
            eps=float(meta["eps"]),
            delta=float(meta["delta"]),
            base_seed=int(meta["base_seed"]),
        )
        d, l = int(meta["D"]), int(meta["L"])
        if not (0 <= d <= 2**32 and 0 < l <= 2**32):
            raise ModelFormatError(f"bad meta file: D={d} or L={l} out of range")
    except ModelFormatError:
        raise
    except (KeyError, ValueError) as e:
        raise ModelFormatError(f"bad meta file: {e}") from e

    trees = []
    for t in range(n_trees):
        path = os.path.join(model_dir, f"tree_{t}.bin")
        try:
            with open(path, "rb") as f:
                buf = f.read()
        except FileNotFoundError as e:
            raise ModelFormatError(f"{path}: missing, but meta has T={n_trees}") from e
        try:
            trees.append(_parse_tree(buf, d, l, config.d_max))
        except ModelFormatError as e:
            raise ModelFormatError(f"{path}: {e}") from e
    return Ensemble(trees, config, d, l)
