import io
import os
import shutil
import struct
import tempfile
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import solver, tree
from labelforest.clustering import Partition
from labelforest.data import Dataset, build_label_index, normalize_instances, parse_dataset
from labelforest.predict import predict_batch, prepare_features
from labelforest.representations import build_repr
from labelforest.tree import (
    FORMAT_VERSION,
    META_KEYS,
    NODE,
    ModelFormatError,
    TrainConfig,
    TrainReport,
    grow,
    load_model,
    save_model,
    take_rows,
    train_ensemble,
)

from conftest import grouped_dataset
from fuzz import apply_edit, byte_edits, meta_edits
from helpers import (
    child_instances_oracle,
    children,
    l2_normalize,
    node_weights,
    random_csr,
    row,
    same_csr_bits,
    tree_file_sections,
)


def parse_text(text):
    return parse_dataset(io.StringIO(text))


def train_small(ds, **kw):
    kw.setdefault("n_trees", 1)
    kw.setdefault("k", 3)
    kw.setdefault("d_max", 2)
    kw.setdefault("base_seed", 0)
    return train_ensemble(ds, TrainConfig(**kw))


def brute_instance_set(ds, labels, parent_set):
    out = []
    for i in parent_set:
        if np.intersect1d(row(ds.Y, i).indices, labels).size:
            out.append(i)
    return out


def grow_nodes(ds, **kw):
    """``grow``'s node table, labels and per-node inputs for ``ds``, as
    ``train_small`` would grow its first tree."""
    config = TrainConfig(**{"n_trees": 1, "k": 3, "d_max": 2, "base_seed": 0, **kw})
    V = build_repr(normalize_instances(ds), ds.Y, config.repr_space).matrix
    rng = np.random.default_rng(config.base_seed)
    return grow(build_label_index(ds), V, ds.n, config, rng)


class TestGrow:
    def test_small_label_set_root_is_leaf(self):
        ds = parse_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        tree = train_small(ds, k=100).trees[0]
        assert len(tree.nodes) == 1
        assert tree.nodes["leaf"][0] == 1 and tree.nodes["depth"][0] == 0
        assert tree.W.shape[0] == len(tree.bias) == 3

    def test_depth_capped_everywhere(self, grouped_train):
        ds, _ = grouped_train
        for d_max in (1, 2):
            nodes = train_small(ds, d_max=d_max).trees[0].nodes
            assert nodes["depth"].max() <= d_max
            fan_out = np.bincount(nodes["parent"][1:], minlength=len(nodes))
            assert np.all(fan_out[nodes["leaf"] == 0] <= 3)

    def test_leaf_label_sets_partition_all_labels(self, grouped_train):
        ds, _ = grouped_train
        tree = train_small(ds, d_max=1).trees[0]
        seen = np.concatenate([tree.node_labels(u) for u in np.flatnonzero(tree.nodes["leaf"])])
        assert sorted(seen.tolist()) == list(range(ds.l))
        assert len(seen) == len(np.unique(seen))

    def test_children_partition_parent_labels(self, grouped_train):
        ds, _ = grouped_train
        tree = train_small(ds, d_max=2).trees[0]
        assert tree.nodes["depth"].max() == 2
        for u in np.flatnonzero(tree.nodes["leaf"] == 0):
            union = np.concatenate([tree.node_labels(c) for c in children(tree, u)])
            assert sorted(union.tolist()) == sorted(tree.node_labels(u).tolist())

    def test_instance_sets_match_brute_force(self):
        ds, _ = grouped_dataset(21, n=60, groups=3, labels_per_group=3)
        table, _, nodes = grow_nodes(ds, k=2, d_max=3)
        assert nodes[0].instances.tolist() == list(range(ds.n))
        assert len(nodes) > 3
        for u in range(1, len(nodes)):
            parent = nodes[table["parent"][u]]
            expected = brute_instance_set(ds, nodes[u].labels, parent.instances)
            assert nodes[u].instances.tolist() == expected
            assert any(c is nodes[u].instances for c in parent.child_instances)

    def test_root_keeps_unlabeled_instances(self):
        ds = parse_text("3 2 4\n0,1 0:1.0\n 1:1.0\n2,3 1:1.0\n")
        table, _, nodes = grow_nodes(ds, k=2, d_max=1)
        assert nodes[0].instances.tolist() == [0, 1, 2]
        assert len(nodes) > 1
        for node in nodes[1:]:
            assert 1 not in node.instances

    def test_unbalanced_split_preserved(self):
        lines = ["12 2 6"]
        for _ in range(10):
            lines.append("0,1,2,3,4 0:1.0")
        for _ in range(2):
            lines.append("5 1:1.0")
        ds = parse_text("\n".join(lines) + "\n")
        tree = train_small(ds, k=2, d_max=1).trees[0]
        sizes = sorted(len(tree.node_labels(c)) for c in children(tree, 0))
        assert sizes == [1, 5]
        assert sizes[1] - sizes[0] > 1


class TestNodeInputsAgainstOracles:
    """The row gather and the children's instance sets equal, bit for bit,
    their first forms: scipy's fancy indexing ``A[rows]``, and one
    ``np.unique(idx[group].indices)`` per cluster."""

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
        d=st.integers(1, 10),
        density=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        n_rows=st.integers(0, 12),
    )
    def test_take_rows_matches_fancy_indexing(self, seed, n, d, density, n_rows):
        A = random_csr(seed, n, d, density)
        rows = np.random.default_rng(seed).permutation(n)[:n_rows]
        assert same_csr_bits(take_rows(A, rows), A[rows])

    def test_take_rows_of_every_row_in_order_is_the_matrix_itself(self):
        A = random_csr(4, 6, 5, 0.5)
        assert take_rows(A, np.arange(6)) is A
        rows = np.array([1, 0, 2, 3, 4, 5])
        assert same_csr_bits(take_rows(A, rows), A[rows])

    def test_take_rows_of_float32_label_rows(self):
        Y = sp.csr_matrix(random_csr(3, 9, 6, 0.4) != 0, dtype=np.float32)
        idx = Y.T.tocsr()
        for rows in ([], [5], [0, 2, 3], [4, 1]):
            rows = np.array(rows, dtype=np.int64)
            assert same_csr_bits(take_rows(idx, rows), idx[rows])

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_labels=st.integers(1, 12),
        n_insts=st.integers(1, 20),
        K=st.integers(2, 5),
    )
    def test_children_instances_match_per_cluster_unique(self, seed, n_labels, n_insts, K):
        rng = np.random.default_rng(seed)
        # some labels have no instance: their rows of idx are empty
        idx = sp.csr_matrix(random_csr(seed, 14, n_insts, 0.3) != 0, dtype=np.float32)
        labels = np.sort(rng.choice(14, size=n_labels, replace=False))
        assignments = rng.integers(0, K, size=n_labels)
        # the node's labels sit between two other nodes' in the tree's array
        ordered = np.concatenate(([99], labels, [98]))
        kids = tree._split(ordered, 1, n_labels + 1, assignments, idx, K)
        want = child_instances_oracle(idx, labels, assignments, K)
        filled = [k for k in range(K) if np.any(assignments == k)]
        assert [ordered[lo:hi].tolist() for lo, hi, _ in kids] == [
            labels[assignments == k].tolist() for k in filled
        ]
        assert kids[0][0] == 1 and kids[-1][1] == n_labels + 1
        assert ordered[0] == 99 and ordered[-1] == 98
        for (_, _, child_insts), k in zip(kids, filled, strict=True):
            np.testing.assert_array_equal(child_insts, want[k])

    def test_labels_in_one_cluster_make_the_node_a_leaf(self, grouped_train):
        ds, _ = grouped_train
        one = Partition(np.zeros(ds.l, dtype=np.int64), np.zeros((3, 1)), 1, 0.0)
        with mock.patch.object(tree, "kmeans_partition", lambda V, K, seed: one):
            table, labels, nodes = grow_nodes(ds, k=3, d_max=2)
        assert len(table) == 1 and table["leaf"][0] == 1 and table["rows"][0] == ds.l
        assert labels.tolist() == list(range(ds.l)) and nodes[0].child_instances == []

    def test_seeds_drawn_once_per_split_in_preorder(self, grouped_train):
        """Each split draws its k-means seed as it is numbered, so the n-th
        split in preorder gets the rng's n-th draw."""
        ds, _ = grouped_train
        seeds = []
        split = tree.kmeans_partition

        def spy(V, K, seed):
            seeds.append((V.shape[0], seed))
            return split(V, K=K, seed=seed)

        with mock.patch.object(tree, "kmeans_partition", spy):
            table, _, _ = grow_nodes(ds, k=3, d_max=2)
        rng = np.random.default_rng(0)
        internal = table[table["leaf"] == 0]
        assert len(internal) > 1
        assert seeds == [(hi - lo, int(rng.integers(2**63)))
                         for lo, hi in zip(internal["label_lo"], internal["label_hi"])]


class TestClassifiers:
    def test_counts_per_node(self, grouped_train):
        ds, _ = grouped_train
        tree = train_small(ds, d_max=1).trees[0]
        for u in range(len(tree.nodes)):
            want = len(tree.node_labels(u)) if tree.nodes["leaf"][u] else len(children(tree, u))
            W, bias = tree.node_rows(u)
            assert W.shape == (want, ds.d) and len(bias) == want

    def test_separable_children_fit_training_data(self):
        # two groups with disjoint feature blocks split cleanly
        lines = ["8 4 6"]
        for i in range(4):
            lines.append(f"0,1,2 0:1.0 1:{0.5 + 0.1 * i}")
        for i in range(4):
            lines.append(f"3,4,5 2:1.0 3:{0.5 + 0.1 * i}")
        ds = parse_text("\n".join(lines) + "\n")
        ens = train_small(ds, k=2, d_max=1, delta=0.0, eps=1e-6)
        tree = ens.trees[0]
        for child, clf in zip(children(tree, 0), node_weights(tree, 0), strict=True):
            labels = tree.node_labels(child)
            pos = set(brute_instance_set(ds, labels, range(ds.n)))
            for i in range(ds.n):
                m = clf.margin(l2_normalize(row(ds.X, i)))
                assert (m > 0) == (i in pos)

    def test_zero_positive_label_counted(self):
        ds = parse_text("3 2 4\n0 0:1.0\n1 0:1.0 1:0.5\n2 1:1.0\n")
        # label 3 never occurs
        report = TrainReport()
        train_ensemble(ds, TrainConfig(n_trees=1, k=100, base_seed=0), report)
        assert report.n_zero_positive >= 1

    def test_newton_steps_and_cap_counted(self, grouped_train, monkeypatch):
        ds, _ = grouped_train
        capped, free = TrainReport(), TrainReport()
        config = TrainConfig(n_trees=1, k=3, d_max=1, base_seed=0, eps=1e-6)
        train_ensemble(ds, config, free)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        train_ensemble(ds, config, capped)
        assert capped.n_not_converged > 0
        assert 0 < capped.n_newton_iters <= capped.n_classifiers
        assert free.n_not_converged == 0
        assert free.n_newton_iters > capped.n_newton_iters

    def test_weights_kept_and_pruned_counted(self, grouped_train):
        ds, _ = grouped_train
        cfg = dict(n_trees=2, k=3, d_max=2, base_seed=0)
        pruned, whole = TrainReport(), TrainReport()
        ens = train_ensemble(ds, TrainConfig(delta=0.01, **cfg), pruned)
        train_ensemble(ds, TrainConfig(delta=0.0, **cfg), whole)
        kept = sum(t.W.nnz for t in ens.trees)
        assert pruned.n_weights_kept == kept > 0
        assert pruned.n_weights_pruned > 0 and whole.n_weights_pruned == 0
        # the solves do not depend on delta, only what is kept of them
        assert pruned.n_weights_kept + pruned.n_weights_pruned == whole.n_weights_kept

    def test_weights_are_float32_and_pruned(self, grouped_train):
        ds, _ = grouped_train
        tree = train_small(ds, delta=0.01).trees[0]
        assert tree.W.dtype == np.float32 and tree.bias.dtype == np.float32
        assert tree.W.nnz and np.min(np.abs(tree.W.data)) > 0.01 * (1 - 1e-6)


class TestEnsemble:
    def test_same_seed_bit_identical_models(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        cfg = TrainConfig(n_trees=2, k=3, d_max=1, base_seed=11)
        a, b = tmp_path / "a", tmp_path / "b"
        save_model(train_ensemble(ds, cfg), a)
        save_model(train_ensemble(ds, cfg), b)
        for name in ("meta", "tree_0.bin", "tree_1.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_tree_count_and_seeds(self, grouped_train):
        ds, _ = grouped_train
        ens = train_small(ds, n_trees=3, base_seed=5)
        assert [ens.config.base_seed + t for t in range(len(ens.trees))] == [5, 6, 7]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_trees=0)
        with pytest.raises(ValueError):
            TrainConfig(k=1)
        with pytest.raises(ValueError):
            TrainConfig(d_max=-1)
        with pytest.raises(ValueError):
            TrainConfig(c=0.0)

    @pytest.mark.parametrize("field", ["c", "eps", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_solver_settings_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    def test_zero_label_dataset_rejected(self):
        ds = parse_text("1 1 0\n 0:1.0\n")
        with pytest.raises(ValueError):
            train_ensemble(ds, TrainConfig(n_trees=1))


class TestModelStore:
    def test_round_trip_structure(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        ens = train_small(ds, n_trees=2, d_max=2)
        save_model(ens, tmp_path / "m")
        back = load_model(tmp_path / "m")
        assert (back.d, back.l) == (ds.d, ds.l)
        assert back.config.k == ens.config.k
        assert back.config.repr_space is ens.config.repr_space
        assert back.config.base_seed == ens.config.base_seed
        assert max(t.nodes["depth"].max() for t in ens.trees) == 2
        for ta, tb in zip(ens.trees, back.trees, strict=True):
            assert ta.nodes.tobytes() == tb.nodes.tobytes()
            assert np.array_equal(ta.labels, tb.labels)
            assert same_csr_bits(ta.W, tb.W)
            assert ta.bias.tobytes() == tb.bias.tobytes()

    def test_bad_magic_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(tmp_path / "m")

    def test_bad_version_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text()
        meta = meta.replace(f"version={FORMAT_VERSION}", "version=9")
        (tmp_path / "m" / "meta").write_text(meta)
        with pytest.raises(ModelFormatError, match="version"):
            load_model(tmp_path / "m")

    def test_truncated_file_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        p.write_bytes(p.read_bytes()[:-6])
        with pytest.raises(ModelFormatError):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("edit, match", [
        (lambda b, a, d: struct.pack_into("<I", b, a["indices"], d), "bad classifier weights"),
        (lambda b, a, d: b.__setitem__(slice(a["indices"] + 4, a["indices"] + 8),
                                       b[a["indices"]:a["indices"] + 4]), "strictly increasing"),
        (lambda b, a, d: struct.pack_into("<f", b, a["values"], 0.0), "zero or non-finite"),
        (lambda b, a, d: struct.pack_into("<f", b, a["values"], np.nan), "zero or non-finite"),
        (lambda b, a, d: struct.pack_into("<f", b, a["bias"], np.inf), "bias: not finite"),
        (lambda b, a, d: b.extend(bytes(4)), "trailing bytes"),
    ], ids=["index past D", "repeated index", "zero weight", "nan weight", "inf bias",
            "trailing bytes"])
    def test_bad_weight_block_rejected(self, grouped_train, tmp_path, edit, match):
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        buf = bytearray(p.read_bytes())
        at = tree_file_sections(buf, ds.l)
        # the root's first row holds at least two weights
        assert struct.unpack_from("<I", buf, at["row_nnz"])[0] >= 2
        edit(buf, at, ds.d)
        p.write_bytes(bytes(buf))
        with pytest.raises(ModelFormatError, match=match):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("line", ["C=nan", "C=inf", "delta=nan"])
    def test_non_finite_meta_rejected(self, grouped_train, tmp_path, line):
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().splitlines()
        key = line.split("=")[0] + "="
        meta = [line if m.startswith(key) else m for m in meta]
        (tmp_path / "m" / "meta").write_text("\n".join(meta) + "\n")
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("extra", ["normalize=1", "normalize=0", "normalize=2",
                                       "normalize=yes", None],
                             ids=["normalize=1", "normalize=0", "normalize=2",
                                  "normalize=yes", "no eps"])
    def test_meta_keys_other_than_v4_rejected(self, grouped_train, tmp_path, extra):
        """Format v4 has no ``normalize`` key (instances are always
        unit-normalized), and it needs ``eps``; ``extra=None`` drops eps."""
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().splitlines()
        assert [m.partition("=")[0] for m in meta] == list(META_KEYS)
        meta = meta + [extra] if extra else [m for m in meta if not m.startswith("eps=")]
        (tmp_path / "m" / "meta").write_text("\n".join(meta) + "\n")
        with pytest.raises(ModelFormatError, match="bad meta file"):
            load_model(tmp_path / "m")

    def test_node_deeper_than_d_max_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=2)
        assert ens.trees[0].nodes["depth"].max() == 2
        save_model(ens, tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().replace("d_max=2", "d_max=1")
        (tmp_path / "m" / "meta").write_text(meta)
        with pytest.raises(ModelFormatError, match="exceeds d_max=1"):
            load_model(tmp_path / "m")

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError, match="meta"):
            load_model(tmp_path)

    @pytest.mark.parametrize("edit, match", [
        (lambda t, l: t.labels.__setitem__(t.nodes["label_lo"][leaves(t)[0]], l + 7),
         "out of range"),
        # a label written twice and one missing, in one leaf or in two
        (lambda t, l: t.labels.__setitem__(1, t.labels[0]), "leaves do not hold"),
        # a child's range shifted off its parent's: the parent's labels are
        # no longer its children's
        (lambda t, l: t.nodes["label_lo"].__setitem__(leaves(t)[1], t.nodes["label_lo"][leaves(t)[1]] + 1),
         "do not tile"),
        (lambda t, l: t.labels.__setitem__(t.nodes["label_lo"][leaves(t)[1]], t.labels[0]),
         "leaves do not hold"),
    ], ids=["label past L", "repeated leaf label", "node set not union", "copied leaf label"])
    def test_label_sets_checked(self, grouped_train, tmp_path, edit, match):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=1)
        edit(ens.trees[0], ds.l)
        save_model(ens, tmp_path / "m")
        with pytest.raises(ModelFormatError, match=match):
            load_model(tmp_path / "m")


def leaves(tree):
    return np.flatnonzero(tree.nodes["leaf"])


class TestNodeTableRules:
    """Each rule of the v3 node table, broken in a saved two-level model,
    fails the load with ModelFormatError."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory, grouped_train):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=2)
        nodes = ens.trees[0].nodes
        # node 1 is internal, and its first child is node 2, a leaf; both
        # start at label 0
        assert nodes["leaf"][1] == 0 and nodes["parent"][2] == 1 and nodes["leaf"][2] == 1
        assert nodes["label_lo"][2] == 0
        path = tmp_path_factory.mktemp("rules") / "m"
        save_model(ens, path)
        return path

    @pytest.mark.parametrize("field, node, value, match", [
        ("parent", 0, 0, "parent is out of range or not before it"),
        ("parent", 2, 2, "parent is out of range or not before it"),
        ("parent", 2, 9999, "parent is out of range or not before it"),
        ("parent", 2, -1, "parent is out of range or not before it"),
        ("depth", 2, 1, "depth is not its parent's depth \\+ 1"),
        ("depth", 0, 1, "depth is not its parent's depth \\+ 1"),
        ("leaf", 1, 1, "inconsistent leaf flag"),
        ("leaf", 2, 0, "inconsistent leaf flag"),
        ("leaf", 2, 2, "inconsistent leaf flag"),
        ("label_lo", 2, 1, "do not tile"),
        ("label_hi", 0, 1, "do not tile"),
        ("label_lo", 0, -1, "do not tile"),
        ("rows", 1, 1, "row count"),
        ("rows", 2, 0, "row count"),
    ], ids=["root with a parent", "own parent", "parent past the table", "second root",
            "depth skips", "root below depth 0", "leaf with children",
            "internal without children", "leaf flag 2", "child range shifted",
            "root range short of L", "root range before 0", "internal rows",
            "leaf rows"])
    def test_broken_rule_rejected(self, saved, tmp_path, field, node, value, match):
        model = tmp_path / "m"
        shutil.copytree(saved, model)
        path = model / "tree_0.bin"
        buf = bytearray(path.read_bytes())
        n = struct.unpack_from("<q", buf, 8)[0]
        nodes = np.frombuffer(buf, NODE, count=n, offset=16)
        nodes[field][node] = value
        path.write_bytes(bytes(buf))
        with pytest.raises(ModelFormatError, match=match):
            load_model(model)

    def test_depth_above_d_max_rejected(self, saved, tmp_path):
        model = tmp_path / "m"
        shutil.copytree(saved, model)
        meta = (model / "meta").read_text()
        (model / "meta").write_text(meta.replace("d_max=2", "d_max=1"))
        with pytest.raises(ModelFormatError, match="node depth 2 exceeds d_max=1"):
            load_model(model)

    def test_empty_node_table_rejected(self, saved, tmp_path):
        model = tmp_path / "m"
        shutil.copytree(saved, model)
        buf = bytearray((model / "tree_0.bin").read_bytes())
        struct.pack_into("<q", buf, 8, 0)
        (model / "tree_0.bin").write_bytes(bytes(buf))
        with pytest.raises(ModelFormatError, match="0 nodes"):
            load_model(model)

    def test_unedited_copy_loads(self, saved, tmp_path):
        shutil.copytree(saved, tmp_path / "m")
        check_invariants(load_model(tmp_path / "m"))


def check_invariants(ens):
    """Everything a trained ensemble holds true, read off each tree's arrays."""
    for tree in ens.trees:
        nodes, n = tree.nodes, len(tree.nodes)
        parent, depth, leaf = nodes["parent"], nodes["depth"], nodes["leaf"]
        assert parent[0] == -1 and np.all((0 <= parent[1:]) & (parent[1:] < np.arange(1, n)))
        assert depth[0] == 0 and np.all(depth[1:] == depth[parent[1:]] + 1)
        assert depth.max() <= ens.config.d_max
        fan_out = np.bincount(parent[1:], minlength=n)
        assert np.array_equal(leaf == 1, fan_out == 0)
        assert sorted(tree.labels.tolist()) == list(range(ens.l))
        W = tree.W
        assert isinstance(W, sp.csr_matrix) and W.shape == (nodes["rows"].sum(), ens.d)
        assert W.dtype == np.float32 and tree.bias.dtype == np.float32
        W.check_format(full_check=True)
        assert W.has_canonical_format
        assert np.all(np.isfinite(W.data)) and W.data.all()
        assert tree.bias.shape == (W.shape[0],) and np.all(np.isfinite(tree.bias))
        in_leaves = []
        for u in range(n):
            labels = tree.node_labels(u)
            kids = children(tree, u)
            assert tree.node_rows(u)[0].shape[0] == (len(labels) if leaf[u] else len(kids))
            if leaf[u]:
                in_leaves.append(labels)
            else:
                below = np.concatenate([tree.node_labels(c) for c in kids])
                assert np.array_equal(below, labels)
        assert sorted(np.concatenate(in_leaves).tolist()) == list(range(ens.l))


@pytest.fixture(scope="module")
def fuzz_model(tmp_path_factory):
    """A saved two-level model with the features of its own training rows."""
    ds, _ = grouped_dataset(5, n=120, groups=4, labels_per_group=4)
    ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=2, base_seed=0))
    path = tmp_path_factory.mktemp("fuzz") / "m"
    save_model(ens, path)
    files = {name: (path / name).read_bytes() for name in ("meta", "tree_0.bin")}
    return files, prepare_features(ens, ds)


class TestModelFuzz:
    """Every single corruption of a saved model either raises
    ModelFormatError or loads as an ensemble that keeps every invariant
    and predicts."""

    @staticmethod
    def load_corrupted(files, name, edit):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in files.items():
                with open(os.path.join(tmp, fname), "wb") as f:
                    f.write(apply_edit(data, edit) if fname == name else data)
            try:
                return load_model(tmp)
            except ModelFormatError:
                return None

    @staticmethod
    def check_loaded(ens, X):
        if ens is None:
            return
        check_invariants(ens)
        X = sp.csr_matrix(X[:, : min(X.shape[1], ens.d)])
        X.resize((X.shape[0], ens.d))
        ds = Dataset(X, sp.csr_matrix((X.shape[0], 0)))
        assert len(predict_batch(ens, ds, beam=3, k=5)) == X.shape[0]

    @settings(max_examples=300)
    @given(data=st.data())
    def test_tree_file(self, fuzz_model, data):
        files, X = fuzz_model
        edit = data.draw(byte_edits(len(files["tree_0.bin"])))
        self.check_loaded(self.load_corrupted(files, "tree_0.bin", edit), X)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_meta_file(self, fuzz_model, data):
        files, X = fuzz_model
        edit = data.draw(meta_edits(files["meta"]))
        self.check_loaded(self.load_corrupted(files, "meta", edit), X)
