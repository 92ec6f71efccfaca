import io

import numpy as np
import pytest

from labelforest.data import build_label_index, parse_dataset
from labelforest.representations import ReprSpace
from labelforest.tree import (
    Ensemble,
    ModelFormatError,
    TrainConfig,
    TrainReport,
    load_model,
    save_model,
    train_ensemble,
)

from conftest import grouped_dataset


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
        if np.intersect1d(ds.Y.row(i).indices, labels).size:
            out.append(i)
    return out


class TestGrow:
    def test_small_label_set_root_is_leaf(self):
        ds = parse_text("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        ens = train_small(ds, k=100)
        root = ens.trees[0].root
        assert root.is_leaf and root.depth == 0
        assert len(root.classifiers) == 3

    def test_depth_capped_everywhere(self, grouped_train):
        ds, _ = grouped_train
        for d_max in (1, 2):
            ens = train_small(ds, d_max=d_max)
            for node in ens.trees[0].iter_nodes():
                assert node.depth <= d_max
                if node.is_leaf:
                    assert node.depth <= d_max
                else:
                    assert len(node.children) <= 3

    def test_leaf_label_sets_partition_all_labels(self, grouped_train):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=1)
        tree = ens.trees[0]
        seen = np.concatenate([leaf.labels for leaf in tree.leaves()])
        assert sorted(seen.tolist()) == list(range(ds.l))
        assert len(seen) == len(np.unique(seen))

    def test_children_partition_parent_labels(self, grouped_train):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=2)
        for node in ens.trees[0].iter_nodes():
            if node.is_leaf:
                continue
            union = np.concatenate([c.labels for c in node.children])
            assert sorted(union.tolist()) == sorted(node.labels.tolist())

    def test_instance_sets_match_brute_force(self):
        ds, _ = grouped_dataset(21, n=60, groups=3, labels_per_group=3)
        ens = train_small(ds, k=2, d_max=3)
        root = ens.trees[0].root
        assert root.instance_ids.tolist() == list(range(ds.n))
        stack = [root]
        while stack:
            node = stack.pop()
            for child in node.children:
                expected = brute_instance_set(ds, child.labels, node.instance_ids)
                assert child.instance_ids.tolist() == expected
                stack.append(child)

    def test_root_keeps_unlabeled_instances(self):
        ds = parse_text("3 2 4\n0,1 0:1.0\n 1:1.0\n2,3 1:1.0\n")
        ens = train_small(ds, k=2, d_max=1)
        root = ens.trees[0].root
        assert root.instance_ids.tolist() == [0, 1, 2]
        for child in root.children:
            assert 1 not in child.instance_ids

    def test_unbalanced_split_preserved(self):
        lines = ["12 2 6"]
        for _ in range(10):
            lines.append("0,1,2,3,4 0:1.0")
        for _ in range(2):
            lines.append("5 1:1.0")
        ds = parse_text("\n".join(lines) + "\n")
        ens = train_small(ds, k=2, d_max=1)
        sizes = sorted(len(c.labels) for c in ens.trees[0].root.children)
        assert sizes == [1, 5]
        assert sizes[1] - sizes[0] > 1


class TestClassifiers:
    def test_counts_per_node(self, grouped_train):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=1)
        for node in ens.trees[0].iter_nodes():
            want = len(node.labels) if node.is_leaf else len(node.children)
            assert len(node.classifiers) == want

    def test_separable_children_fit_training_data(self):
        # two groups with disjoint feature blocks split cleanly
        lines = ["8 4 6"]
        for i in range(4):
            lines.append(f"0,1,2 0:1.0 1:{0.5 + 0.1 * i}")
        for i in range(4):
            lines.append(f"3,4,5 2:1.0 3:{0.5 + 0.1 * i}")
        ds = parse_text("\n".join(lines) + "\n")
        ens = train_small(ds, k=2, d_max=1, delta=0.0, eps=1e-6)
        root = ens.trees[0].root
        X = [r for r in ds.X.rows]
        from labelforest.sparse import l2_normalize

        for child, clf in zip(root.children, root.classifiers):
            pos = set(child.instance_ids.tolist())
            for i in range(ds.n):
                m = clf.margin(l2_normalize(X[i]))
                assert (m > 0) == (i in pos)

    def test_zero_positive_label_counted(self):
        ds = parse_text("3 2 4\n0 0:1.0\n1 0:1.0 1:0.5\n2 1:1.0\n")
        # label 3 never occurs
        report = TrainReport()
        train_ensemble(ds, TrainConfig(n_trees=1, k=100, base_seed=0), report)
        assert report.n_zero_positive >= 1

    def test_newton_steps_and_cap_counted(self, grouped_train):
        ds, _ = grouped_train
        capped, free = TrainReport(), TrainReport()
        cfg = dict(n_trees=1, k=3, d_max=1, base_seed=0, eps=1e-6)
        train_ensemble(ds, TrainConfig(max_newton_iters=1, **cfg), capped)
        train_ensemble(ds, TrainConfig(**cfg), free)
        assert capped.n_not_converged > 0
        assert 0 < capped.n_newton_iters <= capped.n_classifiers
        assert free.n_not_converged == 0
        assert free.n_newton_iters > capped.n_newton_iters

    def test_weights_are_float32_and_pruned(self, grouped_train):
        ds, _ = grouped_train
        ens = train_small(ds, delta=0.01)
        for node in ens.trees[0].iter_nodes():
            for clf in node.classifiers:
                assert clf.w.values.dtype == np.float32
                if clf.w.nnz:
                    assert np.min(np.abs(clf.w.values)) > 0.01 * (1 - 1e-6)


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
        assert [t.seed for t in ens.trees] == [5, 6, 7]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(n_trees=0)
        with pytest.raises(ValueError):
            TrainConfig(k=1)
        with pytest.raises(ValueError):
            TrainConfig(d_max=-1)
        with pytest.raises(ValueError):
            TrainConfig(c=0.0)

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
        for ta, tb in zip(ens.trees, back.trees):
            na, nb = list(ta.iter_nodes()), list(tb.iter_nodes())
            assert len(na) == len(nb)
            for a, b in zip(na, nb):
                assert a.depth == b.depth and a.is_leaf == b.is_leaf
                assert a.labels.tolist() == b.labels.tolist()
                for ca, cb in zip(a.classifiers, b.classifiers):
                    assert ca.w == cb.w
                    assert np.float32(ca.bias) == np.float32(cb.bias)

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
        meta = (tmp_path / "m" / "meta").read_text().replace("version=1", "version=9")
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

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(ModelFormatError, match="meta"):
            load_model(tmp_path)

    @pytest.mark.parametrize("shape, edit, match", [
        # a leaf label past L (its parent's set no longer matters: the leaf
        # is rejected as it is read)
        ({"k": 3, "d_max": 1}, lambda t, l: t.leaves()[0].labels.__setitem__(0, l + 7),
         "out of range"),
        # a root that is the only leaf, holding one label twice and missing one
        ({"k": 100}, lambda t, l: t.root.labels.__setitem__(1, t.root.labels[0]),
         "leaves do not hold"),
        # an internal node whose set is not its children's union
        ({"k": 3, "d_max": 1}, lambda t, l: t.root.labels.__setitem__(0, t.root.labels[1]),
         "union of its children"),
        # one leaf's label copied into another leaf
        ({"k": 3, "d_max": 1},
         lambda t, l: t.leaves()[1].labels.__setitem__(0, t.leaves()[0].labels[0]),
         "union of its children"),
    ], ids=["label past L", "repeated leaf label", "node set not union", "copied leaf label"])
    def test_label_sets_checked(self, grouped_train, tmp_path, shape, edit, match):
        ds, _ = grouped_train
        ens = train_small(ds, **shape)
        edit(ens.trees[0], ds.l)
        save_model(ens, tmp_path / "m")
        with pytest.raises(ModelFormatError, match=match):
            load_model(tmp_path / "m")
