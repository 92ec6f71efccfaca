"""Shallow label-tree training and model persistence.

A tree is grown by recursively clustering label representation vectors
into at most K groups per node; nodes stop splitting once they hold at
most K labels or sit at the depth cap.  Internal nodes carry one routing
classifier per child; leaves carry one classifier per label.  Every
classifier is trained only on the instances owning at least one of the
node's labels, except the root, which sees the whole training set so that
unlabeled instances still act as negatives.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import solver
from .clustering import kmeans_partition
from .data import DataFormatError, Dataset, build_label_index, normalize_instances
from .representations import ReprSpace, build_repr
from .solver import Weights, train_node
from .sparse import SparseVec

log = logging.getLogger(__name__)

MAGIC = b"LFT1"
FORMAT_VERSION = 2


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


@dataclass
class TreeNode:
    """A tree node with its classifiers: row j of the float32 CSR matrix
    ``W`` (one column per feature) and ``bias[j]`` score child j of an
    internal node, or label ``labels[j]`` of a leaf."""

    depth: int
    labels: np.ndarray
    instance_ids: np.ndarray | None
    is_leaf: bool
    children: list["TreeNode"] = field(default_factory=list)
    W: sp.csr_matrix | None = None
    bias: np.ndarray | None = None

    @property
    def classifiers(self) -> list[Weights]:
        """One ``Weights`` view per row of ``W``, built on each access."""
        W = self.W
        return [
            Weights(SparseVec(W.indices[lo:hi], W.data[lo:hi], W.shape[1]), float(b))
            for lo, hi, b in zip(W.indptr[:-1], W.indptr[1:], self.bias)
        ]


@dataclass
class Tree:
    root: TreeNode
    seed: int

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self):
        return [n for n in self.iter_nodes() if n.is_leaf]


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


def _make_node(depth: int, labels: np.ndarray, instances: np.ndarray, config) -> TreeNode:
    is_leaf = len(labels) <= config.k or depth >= config.d_max
    return TreeNode(depth, labels, instances, is_leaf)


def grow(node: TreeNode, idx: sp.csr_matrix, V: sp.csr_matrix, config: TrainConfig, rng) -> None:
    """Split ``node`` by spherical k-means on its labels' rows of the label
    representation ``V`` and recurse; row j of ``idx`` holds the instances
    of label j.

    Empty clusters that survive reseeding are dropped, so fan-out may come
    out below K; a node whose labels all fall in one cluster becomes a leaf.
    """
    part = kmeans_partition(take_rows(V, node.labels), K=config.k, seed=int(rng.integers(2**63)))
    if len(np.unique(part.assignments)) == 1:
        node.is_leaf = True
        return
    # one sort on (cluster, instance) of the node's label rows gives each
    # child's instances, all in node.instance_ids (label sets only shrink)
    T = take_rows(idx, node.labels)
    keys = np.unique(np.repeat(part.assignments, np.diff(T.indptr)) * T.shape[1] + T.indices)
    clusters, insts = np.divmod(keys, T.shape[1])
    cuts = np.searchsorted(clusters, np.arange(1, config.k))
    for k, child_insts in enumerate(np.split(insts, cuts)):
        members = part.members(k)
        if len(members):
            child = _make_node(node.depth + 1, node.labels[members], child_insts, config)
            node.children.append(child)
            if not child.is_leaf:
                grow(child, idx, V, config, rng)


def train_node_classifiers(
    node: TreeNode, X: sp.csr_matrix, idx: sp.csr_matrix, config: TrainConfig, report: TrainReport
) -> None:
    """Train one classifier per child (internal) or per label (leaf), all
    in one batched solve over the node's instances.

    Positives carried by no instance of the node still get a classifier
    (an all-negative problem); those cases are counted in the report, as
    are Newton steps, the classifiers stopped by ``solver.MAX_NEWTON_ITERS``
    before meeting the gradient test, and the weights kept and pruned.
    """
    insts = node.instance_ids
    # the positive instances of every classifier, one run per classifier
    if node.is_leaf:
        T = take_rows(idx, node.labels)
        positives, counts = T.indices, np.diff(T.indptr)
    else:
        positives = np.concatenate([child.instance_ids for child in node.children])
        counts = np.array([len(child.instance_ids) for child in node.children])

    signs = np.full((len(insts), len(counts)), -1, dtype=np.int8)
    signs[np.searchsorted(insts, positives), np.repeat(np.arange(len(counts)), counts)] = 1
    report.n_zero_positive += int(np.count_nonzero(counts == 0))
    sol = train_node(take_rows(X, insts), signs, C=config.c, eps=config.eps, delta=config.delta)
    node.W, node.bias = sol.W, sol.bias
    report.n_classifiers += len(counts)
    report.n_weights_kept += sol.W.nnz
    report.n_weights_pruned += sol.n_pruned
    report.n_newton_iters += int(sol.newton_iters.sum())
    capped = ~sol.converged & (sol.newton_iters >= solver.MAX_NEWTON_ITERS)
    report.n_not_converged += int(np.count_nonzero(capped))

    for child in node.children:
        train_node_classifiers(child, X, idx, config, report)


def train_tree(
    ds: Dataset,
    idx: sp.csr_matrix,
    V: sp.csr_matrix,
    X: sp.csr_matrix,
    config: TrainConfig,
    seed: int,
    report: TrainReport | None = None,
) -> Tree:
    report = report if report is not None else TrainReport()
    rng = np.random.default_rng(seed)
    root = _make_node(0, np.arange(ds.l, dtype=np.int64), np.arange(ds.n, dtype=np.int64), config)
    t0 = time.perf_counter()
    if not root.is_leaf:
        grow(root, idx, V, config, rng)
    t1 = time.perf_counter()
    train_node_classifiers(root, X, idx, config, report)
    t2 = time.perf_counter()
    report.grow_seconds += t1 - t0
    report.solve_seconds += t2 - t1
    tree = Tree(root, seed)
    for n in tree.iter_nodes():
        report.n_nodes += 1
        report.n_leaves += int(n.is_leaf)
    return tree


def train_ensemble(
    ds: Dataset, config: TrainConfig = TrainConfig(), report: TrainReport | None = None
) -> Ensemble:
    """Train T trees differing only in their clustering seed.

    The label representation is built once and shared; instances are
    unit-normalized first.
    """
    if ds.l < 1:
        raise DataFormatError("training needs at least one label")
    idx = build_label_index(ds)
    work = normalize_instances(ds)
    V = build_repr(work, config.repr_space).matrix
    X = work.X.astype(np.float64)

    trees = []
    for t in range(config.n_trees):
        seed = config.base_seed + t
        log.info("training tree %d/%d (seed %d)", t + 1, config.n_trees, seed)
        trees.append(train_tree(ds, idx, V, X, config, seed, report))
    return Ensemble(trees, config, ds.d, ds.l)


def _meta_lines(ens: Ensemble) -> str:
    c = ens.config
    pairs = [
        ("version", FORMAT_VERSION),
        ("T", c.n_trees),
        ("K", c.k),
        ("d_max", c.d_max),
        ("repr_space", c.repr_space.value),
        ("D", ens.d),
        ("L", ens.l),
        ("C", repr(c.c)),
        ("delta", repr(c.delta)),
        ("base_seed", c.base_seed),
        # instances are always unit-normalized; the key keeps the format
        ("normalize", 1),
    ]
    return "".join(f"{k}={v}\n" for k, v in pairs)


def _write_node(chunks: list, node: TreeNode) -> None:
    header = np.array(
        [node.depth, len(node.labels), len(node.children), int(node.is_leaf)],
        dtype="<u4",
    )
    W = node.W
    chunks += [
        header.tobytes(),
        node.labels.astype("<u4").tobytes(),
        np.diff(W.indptr).astype("<u4").tobytes(),
        W.indices.astype("<u4").tobytes(),
        W.data.astype("<f4").tobytes(),
        node.bias.astype("<f4").tobytes(),
    ]
    for child in node.children:
        _write_node(chunks, child)


def save_model(ens: Ensemble, model_dir) -> None:
    os.makedirs(model_dir, exist_ok=True)
    with open(os.path.join(model_dir, "meta"), "w", encoding="utf-8") as f:
        f.write(_meta_lines(ens))
    for t, tree in enumerate(ens.trees):
        chunks = [MAGIC, np.array([FORMAT_VERSION], dtype="<u4").tobytes()]
        _write_node(chunks, tree.root)
        with open(os.path.join(model_dir, f"tree_{t}.bin"), "wb") as f:
            f.write(b"".join(chunks))


class _Cursor:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, dtype, count):
        dt = np.dtype(dtype)
        end = self.pos + dt.itemsize * count
        if end > len(self.buf):
            raise ModelFormatError("truncated tree file")
        out = np.frombuffer(self.buf, dtype=dt, count=count, offset=self.pos)
        self.pos = end
        return out

    def done(self) -> bool:
        return self.pos == len(self.buf)


def _read_node(cur: _Cursor, d: int, l: int, expect_depth: int, d_max: int):
    """One node without its children; returns (node, number of children)."""
    depth, n_labels, n_children, leaf_flag = (int(v) for v in cur.take("<u4", 4))
    if depth != expect_depth:
        raise ModelFormatError(f"node depth {depth}, expected {expect_depth}")
    if depth > d_max:
        raise ModelFormatError(f"node depth {depth} exceeds d_max={d_max}")
    if leaf_flag not in (0, 1) or (leaf_flag == 1) != (n_children == 0):
        raise ModelFormatError("inconsistent leaf flag")
    labels = cur.take("<u4", n_labels).astype(np.int64)
    if n_labels and labels.max() >= l:
        raise ModelFormatError(f"label id {labels.max()} out of range [0, {l})")
    m = n_labels if leaf_flag else n_children
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(cur.take("<u4", m), out=indptr[1:])
    indices = cur.take("<u4", int(indptr[-1]))
    values = cur.take("<f4", int(indptr[-1]))
    bias = cur.take("<f4", m)
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
    return TreeNode(depth, labels, None, bool(leaf_flag), W=W, bias=bias), n_children


def _read_tree(cur: _Cursor, d: int, l: int, d_max: int) -> TreeNode:
    """Read nodes in preorder with an explicit stack, so that no file can
    reach the interpreter's recursion limit."""
    root = None
    open_nodes = []  # (node, n_children) of the nodes still taking children
    while True:
        node, n_children = _read_node(cur, d, l, len(open_nodes), d_max)
        if open_nodes:
            open_nodes[-1][0].children.append(node)
        else:
            root = node
        if n_children:
            open_nodes.append((node, n_children))
            continue
        while open_nodes and len(open_nodes[-1][0].children) == open_nodes[-1][1]:
            done = open_nodes.pop()[0]
            below = np.concatenate([c.labels for c in done.children])
            if not np.array_equal(np.sort(done.labels), np.sort(below)):
                raise ModelFormatError(
                    f"depth-{done.depth} node's labels differ from the union of its children's"
                )
        if not open_nodes:
            return root


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
        n_trees = int(meta["T"])
        config = TrainConfig(
            n_trees=n_trees,
            k=int(meta["K"]),
            d_max=int(meta["d_max"]),
            repr_space=ReprSpace(meta["repr_space"]),
            c=float(meta["C"]),
            delta=float(meta["delta"]),
            base_seed=int(meta["base_seed"]),
        )
        if int(meta["normalize"]) != 1:
            raise ModelFormatError(f"bad meta file: normalize={meta['normalize']}, not 1")
        d, l = int(meta["D"]), int(meta["L"])
        if not (0 <= d <= 2**32 and 0 < l <= 2**32):
            raise ModelFormatError(f"bad meta file: D={d} or L={l} out of range")
    except (KeyError, ValueError) as e:
        if isinstance(e, ModelFormatError):
            raise
        raise ModelFormatError(f"bad meta file: {e}") from e

    trees = []
    for t in range(n_trees):
        path = os.path.join(model_dir, f"tree_{t}.bin")
        try:
            with open(path, "rb") as f:
                buf = f.read()
        except FileNotFoundError as e:
            raise ModelFormatError(f"{path}: missing, but meta has T={n_trees}") from e
        if buf[:4] != MAGIC:
            raise ModelFormatError(f"{path}: bad magic bytes")
        cur = _Cursor(buf)
        cur.pos = 4
        version = int(cur.take("<u4", 1)[0])
        if version != FORMAT_VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")
        root = _read_tree(cur, d, l, config.d_max)
        if not cur.done():
            raise ModelFormatError(f"{path}: trailing bytes")
        tree = Tree(root, config.base_seed + t)
        in_leaves = np.concatenate([leaf.labels for leaf in tree.leaves()])
        # comparing lengths first keeps a huge L from sizing the bincount
        if len(in_leaves) != l or np.any(np.bincount(in_leaves, minlength=l) != 1):
            raise ModelFormatError(f"{path}: leaves do not hold each of the L={l} labels once")
        trees.append(tree)
    return Ensemble(trees, config, d, l)
