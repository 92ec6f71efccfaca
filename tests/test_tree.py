import io
import os
import struct
import tempfile

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import solver
from labelforest.data import Dataset, build_label_index, parse_dataset
from labelforest.predict import predict_batch, prepare_features
from labelforest.representations import ReprSpace
from labelforest.tree import (
    FORMAT_VERSION,
    Ensemble,
    ModelFormatError,
    TrainConfig,
    TrainReport,
    load_model,
    save_model,
    train_ensemble,
)

from conftest import grouped_dataset
from fuzz import apply_edit, byte_edits, meta_edits
from helpers import l2_normalize, row


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
        for child, clf in zip(root.children, root.classifiers):
            pos = set(child.instance_ids.tolist())
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
        kept = sum(n.W.nnz for t in ens.trees for n in t.iter_nodes())
        assert pruned.n_weights_kept == kept > 0
        assert pruned.n_weights_pruned > 0 and whole.n_weights_pruned == 0
        # the solves do not depend on delta, only what is kept of them
        assert pruned.n_weights_kept + pruned.n_weights_pruned == whole.n_weights_kept

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
        save_model(train_small(ds, k=100), tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        buf = bytearray(p.read_bytes())
        # the root is one leaf: magic, version, header, labels, then its
        # per-row nnz, indices, values and biases
        (m,) = struct.unpack_from("<I", buf, 12)
        row_nnz = struct.unpack_from(f"<{m}I", buf, 24 + 4 * m)
        assert row_nnz[0] >= 2
        start = 24 + 8 * m
        at = {"indices": start, "values": start + 4 * sum(row_nnz),
              "bias": start + 8 * sum(row_nnz)}
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

    @pytest.mark.parametrize("value, match", [
        ("0", "not 1"), ("2", "not 1"), ("yes", "bad meta file"), (None, "bad meta file"),
    ])
    def test_normalize_other_than_one_rejected(self, grouped_train, tmp_path, value, match):
        ds, _ = grouped_train
        save_model(train_small(ds), tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().splitlines()
        assert "normalize=1" in meta
        meta = [m for m in meta if m != "normalize=1"]
        if value is not None:
            meta.append(f"normalize={value}")
        (tmp_path / "m" / "meta").write_text("\n".join(meta) + "\n")
        with pytest.raises(ModelFormatError, match=match):
            load_model(tmp_path / "m")

    def test_node_deeper_than_d_max_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        ens = train_small(ds, d_max=2)
        depth = max(n.depth for n in ens.trees[0].iter_nodes())
        assert depth == 2
        save_model(ens, tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().replace("d_max=2", "d_max=1")
        (tmp_path / "m" / "meta").write_text(meta)
        with pytest.raises(ModelFormatError, match="exceeds d_max=1"):
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


def check_invariants(ens):
    """Everything a trained ensemble holds true, checked node by node."""
    for tree in ens.trees:
        in_leaves = []
        for node in tree.iter_nodes():
            m = len(node.labels) if node.is_leaf else len(node.children)
            W = node.W
            assert isinstance(W, sp.csr_matrix) and W.shape == (m, ens.d)
            assert W.dtype == np.float32 and node.bias.dtype == np.float32
            W.check_format(full_check=True)
            assert W.has_canonical_format
            assert np.all(np.isfinite(W.data)) and W.data.all()
            assert node.bias.shape == (m,) and np.all(np.isfinite(node.bias))
            assert np.all((node.labels >= 0) & (node.labels < ens.l))
            if node.is_leaf:
                in_leaves.append(node.labels)
            else:
                below = np.concatenate([c.labels for c in node.children])
                assert sorted(below.tolist()) == sorted(node.labels.tolist())
                assert all(c.depth == node.depth + 1 for c in node.children)
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
        ds = Dataset(X, sp.csr_matrix((X.shape[0], 0)), X.shape[0], ens.d, 0)
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
