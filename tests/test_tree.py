import os
import shutil
import struct
import sys
import tempfile
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import solver, tree
from labelforest.cli import main
from labelforest.clustering import Partition
from labelforest.data import (
    DataFormatError,
    Dataset,
    build_label_index,
    normalize_instances,
    parse_dataset,
)
from labelforest.predict import predict_batch, prepare_features
from labelforest.representations import LabelRepr, ReprSpace, build_repr
from labelforest.tree import (
    FORMAT_VERSION,
    META_KEYS,
    NODE,
    TrainConfig,
    TrainReport,
    _id_dtype,
    grow,
    load_model,
    take_rows,
    train_ensemble,
    train_node_classifiers,
)

from conftest import grouped_dataset
from fuzz import apply_edit, byte_edits, meta_edits
from helpers import (
    child_instances_oracle,
    children,
    dataset_to_text,
    grow_oracle,
    id_bytes,
    identity_pair,
    l2_normalize,
    node_problem,
    node_problem_oracle,
    node_weights,
    parse_body,
    put_id,
    random_csr,
    row,
    same_csr_bits,
    same_weight_bits,
    tree_csr,
    tree_file_sections,
    train_model,
    widened,
    write_model,
)


def train_small(ds, model_dir=None, **kw):
    kw.setdefault("n_trees", 1)
    kw.setdefault("k", 3)
    kw.setdefault("d_max", 2)
    kw.setdefault("base_seed", 0)
    return train_model(ds, TrainConfig(**kw), model_dir=model_dir)


def brute_instance_set(ds, labels, parent_set):
    out = []
    for i in parent_set:
        if np.intersect1d(row(ds.Y, i).indices, labels).size:
            out.append(i)
    return out


def grow_nodes(ds, **kw):
    """``grow``'s node table, labels and nodes for ``ds``, as
    ``train_small`` would grow its first tree."""
    config = TrainConfig(**{"n_trees": 1, "k": 3, "d_max": 2, "base_seed": 0, **kw})
    r = build_repr(normalize_instances(ds), ds.Y, config.repr_space)
    rng = np.random.default_rng(config.base_seed)
    return grow((r.B, r.F), config, rng, TrainReport())


class TestGrow:
    def test_small_label_set_root_is_leaf(self):
        ds = parse_body("2 2 3\n0,1 0:1.0\n2 1:1.0\n")
        tree = train_small(ds, k=100).trees[0]
        assert len(tree.nodes) == 1
        assert tree.nodes["leaf"][0] == 1 and tree.nodes["depth"][0] == 0
        assert len(tree.indptr) - 1 == len(tree.bias) == 3

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

    @pytest.mark.parametrize("space", list(ReprSpace))
    def test_factors_grow_the_tree_of_the_matrix(self, space):
        """Growing on V's factors gives the tree grown on V itself, as the
        pair (V, identity); 12 labels that no instance carries make a split
        whose labels all have zero rows (input and joint spaces)."""
        ds, _ = grouped_dataset(5, n=120, groups=4, labels_per_group=6)
        Y = sp.hstack([ds.Y, sp.csr_matrix((ds.n, 12), dtype=ds.Y.dtype)], format="csr")
        r = build_repr(normalize_instances(ds), Y, space)
        config = TrainConfig(n_trees=1, k=3, d_max=3)
        table, labels, _ = grow((r.B, r.F), config, np.random.default_rng(0), TrainReport())
        want_table, want_labels, _ = grow(identity_pair(r.matrix), config,
                                          np.random.default_rng(0), TrainReport())
        assert table.tobytes() == want_table.tobytes() and len(table) > 10
        assert labels.tobytes() == want_labels.tobytes()

    def test_instance_sets_match_brute_force(self):
        ds, _ = grouped_dataset(21, n=60, groups=3, labels_per_group=3)
        table, _, nodes = grow_nodes(ds, k=2, d_max=3)
        idx = build_label_index(ds)
        problems = [node_problem(node, idx) for node in nodes]
        assert problems[0][0].tolist() == list(range(ds.n))
        assert len(nodes) > 3
        for u in range(1, len(nodes)):
            p = table["parent"][u]
            parent_insts, parent_signs = problems[p]
            expected = brute_instance_set(ds, nodes[u].labels, parent_insts)
            assert problems[u][0].tolist() == expected
            # u's instances are the positives of its column in its parent's problem
            rank = np.flatnonzero(table["parent"] == p).tolist().index(u)
            assert np.array_equal(parent_insts[parent_signs[:, rank] == 1], problems[u][0])

    def test_root_keeps_unlabeled_instances(self):
        ds = parse_body("3 2 4\n0,1 0:1.0\n 1:1.0\n2,3 1:1.0\n")
        table, _, nodes = grow_nodes(ds, k=2, d_max=1)
        idx = build_label_index(ds)
        assert node_problem(nodes[0], idx)[0].tolist() == [0, 1, 2]
        assert len(nodes) > 1
        for node in nodes[1:]:
            assert 1 not in node_problem(node, idx)[0]

    def test_unbalanced_split_preserved(self):
        lines = ["12 2 6"]
        for _ in range(10):
            lines.append("0,1,2,3,4 0:1.0")
        for _ in range(2):
            lines.append("5 1:1.0")
        ds = parse_body("\n".join(lines) + "\n")
        tree = train_small(ds, k=2, d_max=1).trees[0]
        sizes = sorted(len(tree.node_labels(c)) for c in children(tree, 0))
        assert sizes == [1, 5]
        assert sizes[1] - sizes[0] > 1


class TestNodeInputsAgainstOracles:
    """The row gather, the children's instance sets and every node's
    problem equal, bit for bit, their first forms: scipy's fancy indexing
    ``A[rows]``, one ``np.unique(idx[group].indices)`` per cluster, and
    the instances carried down from each parent's split."""

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
        n_labels=st.integers(3, 12),
        n_insts=st.integers(1, 20),
        K=st.integers(2, 5),
    )
    def test_children_instances_match_per_cluster_unique(self, seed, n_labels, n_insts, K):
        rng = np.random.default_rng(seed)
        # some labels have no instance: their rows of idx are empty
        idx = sp.csr_matrix(random_csr(seed, 14, n_insts, 0.3) != 0, dtype=np.float32)
        labels = np.sort(rng.choice(14, size=n_labels, replace=False))
        # a node splits only above K labels, into at least two clusters
        K = min(K, n_labels - 1)
        assignments = rng.permutation(np.append([0, K - 1], rng.integers(0, K, n_labels - 2)))
        # the node's labels sit between two other nodes' in the tree's array:
        # the root splits off `after`, and its first child splits `before`
        # off the node's labels
        others = np.setdiff1d(np.arange(14), labels)
        before, after = others[::2], others[1::2]

        def partition(V, K, seed):
            B, F = V
            ids = (B @ F).toarray()[:, 0].astype(np.int64) - 1  # V's rows carry their label ids
            if np.array_equal(ids, labels):
                a = assignments
            else:
                a = np.isin(ids, after if len(ids) == 14 else labels).astype(np.int64)
            return Partition(a, np.zeros((K, 1)), 1, 0.0)

        V = identity_pair(sp.csr_matrix(np.arange(1.0, 15.0)[:, None]))
        with mock.patch.object(tree, "kmeans_partition", partition):
            table, ordered, nodes = grow(V, TrainConfig(k=K, d_max=3), np.random.default_rng(0),
                                        TrainReport())
        u = next(u for u, node in enumerate(nodes) if np.array_equal(np.sort(node.labels), labels))
        kids = table[table["parent"] == u]
        want = child_instances_oracle(idx, labels, assignments, K)
        filled = [k for k in range(K) if np.any(assignments == k)]
        assert [ordered[lo:hi].tolist() for lo, hi in zip(kids["label_lo"], kids["label_hi"])] == [
            labels[assignments == k].tolist() for k in filled
        ]
        lo, hi = table["label_lo"][u], table["label_hi"][u]
        assert kids["label_lo"][0] == lo and kids["label_hi"][-1] == hi
        assert ordered[:lo].tolist() == before.tolist() and ordered[hi:].tolist() == after.tolist()
        insts, signs = node_problem(nodes[u], idx)
        for column, k in zip(signs.T, filled, strict=True):
            np.testing.assert_array_equal(insts[column == 1], want[k])

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_labels=st.integers(1, 14),
        n_insts=st.integers(1, 20),
        density=st.sampled_from([0.0, 0.1, 0.3, 0.8]),
        K=st.integers(2, 4),
        d_max=st.integers(0, 3),
    )
    def test_node_problem_matches_carried_instances(self, seed, n_labels, n_insts, density,
                                                    K, d_max):
        """Every node's instances, signs and zero-positive count, built from
        its label slice, equal those of the route that carried instances
        down from each parent's split, at the root and below it, for leaves
        and internal nodes."""
        # empty rows of idx are labels without an instance, and empty
        # columns are instances without a label
        idx = sp.csr_matrix(random_csr(seed, n_labels, n_insts, density) != 0, dtype=np.float32)
        V = identity_pair(sp.csr_matrix(np.ones((n_labels, 1))))
        config = TrainConfig(n_trees=1, k=K, d_max=d_max)

        def partition(V, K, seed):
            # few clusters, so that some come out empty or alone
            a = np.random.default_rng(seed).integers(0, K, V[0].shape[0])
            return Partition(a, np.zeros((K, 1)), 1, 0.0)

        with mock.patch.object(tree, "kmeans_partition", partition):
            table, labels, nodes = grow(V, config, np.random.default_rng(seed), TrainReport())
        want_table, want_labels, carried = grow_oracle(idx, V, n_insts, config,
                                                       np.random.default_rng(seed), partition)
        assert table.tobytes() == want_table.tobytes()
        assert labels.tobytes() == want_labels.tobytes()

        for node, old in zip(nodes, carried, strict=True):
            insts, signs = node_problem(node, idx)
            want_insts, want_signs, want_zero = node_problem_oracle(old, idx)
            assert np.array_equal(insts, want_insts)
            assert signs.dtype == want_signs.dtype and signs.shape == want_signs.shape
            assert signs.tobytes() == want_signs.tobytes()
            report = TrainReport()
            problem = train_node_classifiers(node, idx, report)
            assert report.n_zero_positive == want_zero
            assert report.n_classifiers == want_signs.shape[1]
            assert np.array_equal(problem.rows, want_insts)
            assert np.array_equal(problem.Y, want_signs)

    def test_labels_in_one_cluster_make_the_node_a_leaf(self, grouped_train):
        ds, _ = grouped_train
        one = Partition(np.zeros(ds.l, dtype=np.int64), np.zeros((3, 1)), 1, 0.0)
        with mock.patch.object(tree, "kmeans_partition", lambda V, K, seed: one):
            table, labels, nodes = grow_nodes(ds, k=3, d_max=2)
        assert len(table) == 1 and table["leaf"][0] == 1 and table["rows"][0] == ds.l
        assert labels.tolist() == list(range(ds.l)) and len(nodes[0].child_sizes) == 0
        assert node_problem(nodes[0], build_label_index(ds))[1].shape == (ds.n, ds.l)

    def test_seeds_drawn_once_per_split_in_preorder(self, grouped_train):
        """Each split draws its k-means seed as it is numbered, so the n-th
        split in preorder gets the rng's n-th draw."""
        ds, _ = grouped_train
        seeds = []
        split = tree.kmeans_partition

        def spy(V, K, seed):
            seeds.append((V[0].shape[0], seed))
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
        ds = parse_body("\n".join(lines) + "\n")
        ens = train_small(ds, k=2, d_max=1, delta=0.0, eps=1e-6)
        tree = ens.trees[0]
        for child, clf in zip(children(tree, 0), node_weights(tree, 0), strict=True):
            labels = tree.node_labels(child)
            pos = set(brute_instance_set(ds, labels, range(ds.n)))
            for i in range(ds.n):
                m = clf.margin(l2_normalize(row(ds.X, i)))
                assert (m > 0) == (i in pos)

    def test_zero_positive_label_counted(self):
        ds = parse_body("3 2 4\n0 0:1.0\n1 0:1.0 1:0.5\n2 1:1.0\n")
        # label 3 never occurs
        report = TrainReport()
        train_model(ds, TrainConfig(n_trees=1, k=100, base_seed=0), report)
        assert report.n_zero_positive >= 1

    def test_newton_steps_and_cap_counted(self, grouped_train, monkeypatch):
        ds, _ = grouped_train
        capped, free = TrainReport(), TrainReport()
        config = TrainConfig(n_trees=1, k=3, d_max=1, base_seed=0, eps=1e-6)
        train_model(ds, config, free)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        train_model(ds, config, capped)
        assert capped.n_not_converged > 0
        assert 0 < capped.n_newton_iters <= capped.n_classifiers
        assert free.n_not_converged == 0
        assert free.n_newton_iters > capped.n_newton_iters

    def test_weights_kept_and_pruned_counted(self, grouped_train):
        ds, _ = grouped_train
        cfg = dict(n_trees=2, k=3, d_max=2, base_seed=0)
        pruned, whole = TrainReport(), TrainReport()
        ens = train_model(ds, TrainConfig(delta=0.01, **cfg), pruned)
        train_model(ds, TrainConfig(delta=0.0, **cfg), whole)
        kept = sum(len(t.ids) for t in ens.trees)
        assert pruned.n_weights_kept == kept > 0
        assert pruned.n_weights_pruned > 0 and whole.n_weights_pruned == 0
        # the solves do not depend on delta, only what is kept of them
        assert pruned.n_weights_kept + pruned.n_weights_pruned == whole.n_weights_kept

    def test_weights_are_float32_and_pruned(self, grouped_train):
        ds, _ = grouped_train
        tree = train_small(ds, delta=0.01).trees[0]
        assert tree.values.dtype == np.float32 and tree.bias.dtype == np.float32
        assert len(tree.values) and np.min(np.abs(tree.values)) > 0.01 * (1 - 1e-6)


class TestEnsemble:
    def test_same_seed_bit_identical_models(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        cfg = TrainConfig(n_trees=2, k=3, d_max=1, base_seed=11)
        a, b = tmp_path / "a", tmp_path / "b"
        train_ensemble(ds, cfg, TrainReport(), a)
        train_ensemble(ds, cfg, TrainReport(), b)
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

    @pytest.mark.parametrize("space", list(ReprSpace))
    def test_training_never_forms_the_matrix(self, grouped_train, space):
        """Training reads the label representation only through its factors:
        with ``LabelRepr.matrix`` raising, every tree's weights, biases and
        labels have the bytes of an unpatched run."""
        ds, _ = grouped_train

        def formed(_):
            raise AssertionError("training formed V")

        config = TrainConfig(n_trees=2, k=3, d_max=2, repr_space=space, base_seed=0)
        with mock.patch.object(LabelRepr, "matrix", property(formed)):
            got = train_model(ds, config)
        want = train_model(ds, config)
        assert len(got.trees) == 2 and all(len(t.nodes) > 1 for t in got.trees)
        for g, w in zip(got.trees, want.trees):
            assert same_weight_bits(g, w)
            assert g.labels.tobytes() == w.labels.tobytes()

    @pytest.mark.parametrize("space", list(ReprSpace))
    def test_space_by_name_trains_and_saves_that_space(self, grouped_train, tmp_path, space):
        """A space's name is stored as the space: the model, meta file included,
        is byte-identical to one trained from the ``ReprSpace`` member."""
        ds, _ = grouped_train
        assert TrainConfig(repr_space=space.value).repr_space is space
        for name, value in (("by_name", space.value), ("by_member", space)):
            train_small(ds, tmp_path / name, n_trees=2, repr_space=value)
        for name in ("meta", "tree_0.bin", "tree_1.bin"):
            assert (tmp_path / "by_name" / name).read_bytes() == \
                (tmp_path / "by_member" / name).read_bytes()

    def test_unknown_space_name_rejected(self):
        with pytest.raises(ValueError, match="not a valid ReprSpace"):
            TrainConfig(repr_space="inputs")

    def test_numpy_scalar_settings_survive_save_and_load(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        config = TrainConfig(n_trees=np.int64(2), k=np.int32(3), d_max=np.float64(2.0),
                             c=np.logspace(0, 1, 2)[0], eps=np.float32(0.25),
                             delta=np.float64(0.02), base_seed=np.uint8(5))
        for field in fields(TrainConfig):
            assert type(getattr(config, field.name)) in (int, float, ReprSpace), field.name
        train_ensemble(ds, config, TrainReport(), tmp_path / "m")
        assert "C=1.0\n" in (tmp_path / "m" / "meta").read_text()
        assert load_model(tmp_path / "m").config == config == TrainConfig(
            n_trees=2, k=3, d_max=2, c=1.0, eps=0.25, delta=0.02, base_seed=5)

    @pytest.mark.parametrize("field", ["n_trees", "k", "d_max", "base_seed"])
    @pytest.mark.parametrize("value", [3.5, np.float64(3.5), np.inf, np.nan],
                             ids=["3.5", "np 3.5", "inf", "nan"])
    def test_non_integral_int_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match="not an integer"):
            TrainConfig(**{field: value})

    def test_zero_label_dataset_rejected(self, tmp_path):
        ds = parse_body("1 1 0\n 0:1.0\n")
        with pytest.raises(ValueError):
            train_ensemble(ds, TrainConfig(n_trees=1), TrainReport(), tmp_path / "m")
        assert not (tmp_path / "m").exists()


class TestTrainMemory:
    """Training to a model directory holds one tree at a time, so its
    memory does not grow with the tree count.  Run on its own (CI gives it
    a step), so that no earlier test's allocations sit in its peaks."""

    SEEDS = (0, 1, 2)

    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        """The bench's ``smoke`` training rows, and its settings (input
        space, K = 8, depth 1 at its L = 120)."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
        try:
            import gen
            from workloads import WORKLOADS
        finally:
            sys.path.pop(0)
        shape = WORKLOADS["smoke"].shape
        ds = parse_dataset(gen.write_train(shape, str(tmp_path_factory.mktemp("smoke"))))
        return ds, TrainConfig(k=8, d_max=1, repr_space="input")

    @staticmethod
    def streamed_peak(ds, config, model_dir) -> int:
        """The most memory tracemalloc saw ``train``'s route (a tree file
        written per tree, then meta) hold at once beyond what was held
        before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train_ensemble(ds, config, TrainReport(), model_dir)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_peak_does_not_grow_with_tree_count(self, smoke, tmp_path):
        """Three trees (seeds 0-2) peak within 5% of the largest one-tree
        peak over the same seeds."""
        ds, config = smoke
        one = max(self.streamed_peak(ds, replace(config, n_trees=1, base_seed=s),
                                     tmp_path / f"one_{s}") for s in self.SEEDS)
        three = self.streamed_peak(ds, replace(config, n_trees=3, base_seed=self.SEEDS[0]),
                                   tmp_path / "three")
        assert three <= 1.05 * one, (three, one)

    def test_tree_is_gone_before_the_next_is_solved(self, smoke, tmp_path, monkeypatch):
        """When tree t + 1's ``train_nodes`` starts, every array of tree t's
        node solves (weights, their index arrays, biases and the arrays
        those are views of) has been freed."""
        ds, config = smoke
        refs, calls = [], []

        def spy(*args, **kwargs):
            alive = [r for r in refs if r() is not None]
            assert not alive, f"{len(alive)} arrays of tree {len(calls) - 1} still alive"
            solves = train_nodes(*args, **kwargs)
            calls.append(len(solves))
            refs[:] = [weakref.ref(b) for sol in solves
                       for a in (sol.W.data, sol.W.indices, sol.W.indptr, sol.bias)
                       for b in _base_chain(a)]
            return solves

        train_nodes = tree.train_nodes
        monkeypatch.setattr(tree, "train_nodes", spy)
        train_ensemble(ds, replace(config, n_trees=3), TrainReport(), tmp_path / "m")
        assert len(calls) == 3 and refs


def _base_chain(a: np.ndarray):
    """``a`` and every array it is a view of."""
    while isinstance(a, np.ndarray):
        yield a
        a = a.base


class TestModelStore:
    def test_round_trip_structure(self, grouped_train, tmp_path):
        """A trained model loads with its data's D and L and its settings,
        and a loaded model written back has the bytes it was read from."""
        ds, _ = grouped_train
        config = TrainConfig(n_trees=2, k=3, d_max=2, base_seed=0)
        ens = train_model(ds, config, model_dir=tmp_path / "m")
        assert (ens.d, ens.l, ens.config) == (ds.d, ds.l, config)
        assert max(t.nodes["depth"].max() for t in ens.trees) == 2
        write_model(ens, tmp_path / "back")
        for name in ("meta", "tree_0.bin", "tree_1.bin"):
            assert (tmp_path / "m" / name).read_bytes() == (tmp_path / "back" / name).read_bytes()
        assert_same_trees(ens, load_model(tmp_path / "back"))

    @pytest.mark.parametrize("d, id_size", [(65536, 2), (65537, 4)])
    def test_round_trip_at_id_width_boundary(self, tmp_path, d, id_size):
        """A split whose header has D = 65,536 stores 2-byte feature ids,
        one with D = 65,537 4-byte ids, and the top feature id D - 1 is
        among the kept weights.  The loaded trees hold their ids at that
        width in memory, and predict the bits of the same trees holding
        int32 ids, scipy's own width."""
        train, _ = grouped_dataset(3, n=120, groups=4, labels_per_group=4)
        ds = parse_body(dataset_to_text(widened(train, d)))
        ens = train_small(ds, tmp_path / "m", n_trees=2, d_max=1)
        assert ens.trees[0].ids.max() == d - 1
        for t in range(2):
            buf = (tmp_path / "m" / f"tree_{t}.bin").read_bytes()
            at = tree_file_sections(buf, ds.l, d)
            assert (at["id_size"], at["end"]) == (id_size, len(buf))
        assert all(t.ids.dtype == np.dtype(f"<u{id_size}") for t in ens.trees)
        wide = replace(ens, trees=[replace(t, ids=t.ids.astype(np.int32)) for t in ens.trees])
        want, got = predict_batch(wide, ds), predict_batch(ens, ds)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.scores.tobytes() == want.scores.tobytes()

    def test_bad_magic_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        p.write_bytes(b"XXXX" + p.read_bytes()[4:])
        with pytest.raises(DataFormatError, match="magic"):
            load_model(tmp_path / "m")

    def test_bad_version_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text()
        meta = meta.replace(f"version={FORMAT_VERSION}", "version=9")
        (tmp_path / "m" / "meta").write_text(meta)
        with pytest.raises(DataFormatError, match="version"):
            load_model(tmp_path / "m")

    def test_truncated_file_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        p.write_bytes(p.read_bytes()[:-6])
        with pytest.raises(DataFormatError):
            load_model(tmp_path / "m")

    def test_file_shorter_than_fstat_says_is_truncated(self, grouped_train, tmp_path,
                                                      monkeypatch):
        """Every size check passes when ``os.fstat`` overstates the size, so
        the short read of the last section is what rejects the file."""
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        p.write_bytes(p.read_bytes()[:-6])
        fstat = os.fstat
        monkeypatch.setattr("labelforest.tree.os.fstat",
                            lambda fd: mock.Mock(st_size=fstat(fd).st_size + 6))
        with pytest.raises(DataFormatError, match=r": truncated tree file$"):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("edit, match", [
        (lambda b, a, d: put_id(b, a, 0, d), "bad classifier weights"),
        (lambda b, a, d: put_id(b, a, 1, int.from_bytes(id_bytes(b, a, 0), "little")),
         "strictly increasing"),
        (lambda b, a, d: struct.pack_into("<f", b, a["values"], 0.0), "zero or non-finite"),
        (lambda b, a, d: struct.pack_into("<f", b, a["values"], np.nan), "zero or non-finite"),
        (lambda b, a, d: struct.pack_into("<f", b, a["bias"], np.inf), "bias: not finite"),
        (lambda b, a, d: b.extend(bytes(4)), "trailing bytes"),
    ], ids=["index past D", "repeated index", "zero weight", "nan weight", "inf bias",
            "trailing bytes"])
    def test_bad_weight_block_rejected(self, grouped_train, tmp_path, edit, match):
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        p = tmp_path / "m" / "tree_0.bin"
        buf = bytearray(p.read_bytes())
        at = tree_file_sections(buf, ds.l, ds.d)
        # the root's first row holds at least two weights
        assert struct.unpack_from("<I", buf, at["row_nnz"])[0] >= 2
        edit(buf, at, ds.d)
        p.write_bytes(bytes(buf))
        with pytest.raises(DataFormatError, match=match):
            load_model(tmp_path / "m")

    @pytest.mark.parametrize("line", ["C=nan", "C=inf", "delta=nan"])
    def test_non_finite_meta_rejected(self, grouped_train, tmp_path, line):
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().splitlines()
        key = line.split("=")[0] + "="
        meta = [line if m.startswith(key) else m for m in meta]
        (tmp_path / "m" / "meta").write_text("\n".join(meta) + "\n")
        with pytest.raises(DataFormatError, match="finite"):
            load_model(tmp_path / "m")

    def test_meta_float_takes_float_spellings(self, grouped_train, tmp_path):
        """A float value is read by float(), as a data file's values are:
        "0_0.1" is 0.1, as "1:1_0" is a value of 10 in a data line."""
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text()
        assert "eps=0.1\n" in meta
        (tmp_path / "m" / "meta").write_text(meta.replace("eps=0.1\n", "eps=0_0.1\n"))
        assert load_model(tmp_path / "m").config.eps == 0.1

    @pytest.mark.parametrize("extra", ["normalize=1", "normalize=0", "normalize=2",
                                       "normalize=yes", None],
                             ids=["normalize=1", "normalize=0", "normalize=2",
                                  "normalize=yes", "no eps"])
    def test_meta_keys_other_than_v4_rejected(self, grouped_train, tmp_path, extra):
        """Since format v4 a meta file has no ``normalize`` key (instances are
        always unit-normalized) and needs ``eps``; ``extra=None`` drops eps."""
        ds, _ = grouped_train
        train_small(ds, tmp_path / "m")
        meta = (tmp_path / "m" / "meta").read_text().splitlines()
        assert [m.partition("=")[0] for m in meta] == list(META_KEYS)
        meta = meta + [extra] if extra else [m for m in meta if not m.startswith("eps=")]
        (tmp_path / "m" / "meta").write_text("\n".join(meta) + "\n")
        with pytest.raises(DataFormatError, match="bad meta file"):
            load_model(tmp_path / "m")

    def test_node_deeper_than_d_max_rejected(self, grouped_train, tmp_path):
        ds, _ = grouped_train
        ens = train_small(ds, tmp_path / "m", d_max=2)
        assert ens.trees[0].nodes["depth"].max() == 2
        meta = (tmp_path / "m" / "meta").read_text().replace("d_max=2", "d_max=1")
        (tmp_path / "m" / "meta").write_text(meta)
        with pytest.raises(DataFormatError, match="exceeds d_max=1"):
            load_model(tmp_path / "m")

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(DataFormatError, match="meta"):
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
        write_model(ens, tmp_path / "m")
        with pytest.raises(DataFormatError, match=match):
            load_model(tmp_path / "m")


def assert_same_trees(a, b):
    """The trees of ensembles ``a`` and ``b`` hold equal arrays of equal
    dtypes, their weights and biases bit for bit."""
    for ta, tb in zip(a.trees, b.trees, strict=True):
        assert ta.nodes.tobytes() == tb.nodes.tobytes()
        assert np.array_equal(ta.labels, tb.labels) and ta.labels.dtype == tb.labels.dtype
        assert same_weight_bits(ta, tb)


def leaves(tree):
    return np.flatnonzero(tree.nodes["leaf"])


class TestNodeTableRules:
    """Each rule of the v3 node table, broken in a saved two-level model,
    fails the load with DataFormatError."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory, grouped_train):
        ds, _ = grouped_train
        path = tmp_path_factory.mktemp("rules") / "m"
        nodes = train_small(ds, path, d_max=2).trees[0].nodes
        # node 1 is internal, and its first child is node 2, a leaf; both
        # start at label 0
        assert nodes["leaf"][1] == 0 and nodes["parent"][2] == 1 and nodes["leaf"][2] == 1
        assert nodes["label_lo"][2] == 0
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
        with pytest.raises(DataFormatError, match=match):
            load_model(model)

    def test_depth_above_d_max_rejected(self, saved, tmp_path):
        model = tmp_path / "m"
        shutil.copytree(saved, model)
        meta = (model / "meta").read_text()
        (model / "meta").write_text(meta.replace("d_max=2", "d_max=1"))
        with pytest.raises(DataFormatError, match="node depth 2 exceeds d_max=1"):
            load_model(model)

    def test_empty_node_table_rejected(self, saved, tmp_path):
        model = tmp_path / "m"
        shutil.copytree(saved, model)
        buf = bytearray((model / "tree_0.bin").read_bytes())
        struct.pack_into("<q", buf, 8, 0)
        (model / "tree_0.bin").write_bytes(bytes(buf))
        with pytest.raises(DataFormatError, match="0 nodes"):
            load_model(model)

    def test_unedited_copy_loads(self, saved, tmp_path):
        shutil.copytree(saved, tmp_path / "m")
        check_invariants(load_model(tmp_path / "m"))


def _sections(buf, at):
    """A tree file's row counts, stored feature ids and values, as views."""
    m, nnz = (at["end"] - at["bias"]) // 4, (at["bias"] - at["values"]) // 4
    return (np.frombuffer(buf, "<u4", count=m, offset=at["row_nnz"]),
            np.frombuffer(buf, f"<u{at['id_size']}", count=nnz, offset=at["indices"]),
            np.frombuffer(buf, "<f4", count=nnz, offset=at["values"]))


def scipy_accepts_weights(buf, at, d: int) -> bool:
    """The weight check a load made before ids were kept at their stored
    width: scipy's full check of an int32 CSR copy of the weight sections,
    its canonical format (ids strictly increasing within each row), and
    finite, nonzero values."""
    counts, ids, values = _sections(buf, at)
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64))).astype(np.int32)
    try:
        W = sp.csr_matrix((values, ids.astype(np.int32), indptr), shape=(len(counts), d))
        W.check_format(full_check=True)
    except ValueError:
        return False
    return bool(W.has_canonical_format and np.all(np.isfinite(values)) and values.all())


def mutate_weights(kind: str, rng, buf: bytes, at, d: int) -> bytes:
    """A tree file with one seeded edit of its weight sections."""
    counts, ids, values = (a.copy() for a in _sections(buf, at))
    starts = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    if kind in ("repeated id", "decreasing id"):
        r = int(rng.choice(np.flatnonzero(counts >= 2)))
        i = int(rng.integers(starts[r] + 1, starts[r + 1]))
        ids[i - 1 : i + 1] = ids[i - 1] if kind == "repeated id" else ids[i - 1 : i + 1][::-1]
    elif kind == "id equal to D":
        ids[int(rng.integers(len(ids)))] = d
    elif kind == "random id":
        ids[int(rng.integers(len(ids)))] = rng.integers(d + 1)
    elif kind == "empty row":
        # a row's weights dropped
        r = int(rng.choice(np.flatnonzero(counts)))
        keep = np.ones(len(ids), dtype=bool)
        keep[starts[r] : starts[r + 1]] = False
        counts[r], ids, values = 0, ids[keep], values[keep]
    elif kind == "rows merged":
        # a row's weights handed to the next row
        r = int(rng.choice(np.flatnonzero(counts[:-1])))
        counts[r + 1] += counts[r]
        counts[r] = 0
    elif kind == "first id below the previous row's last":
        # valid: ids only rise within a row
        first = starts[1:-1]
        room = np.minimum(ids[first - 1].astype(np.int64),
                          np.where(counts[1:] >= 2, ids[np.minimum(first + 1, len(ids) - 1)], d))
        r = int(rng.choice(np.flatnonzero((counts[1:] >= 1) & (first > 0) & (room > 0))))
        ids[first[r]] = rng.integers(room[r])
    elif kind == "zero value":
        values[int(rng.integers(len(values)))] = 0.0
    else:
        values[int(rng.integers(len(values)))] = rng.choice([np.nan, np.inf, -np.inf])
    return (buf[: at["row_nnz"]] + counts.tobytes() + ids.tobytes() + values.tobytes()
            + buf[at["bias"] :])


class TestWeightChecksAgainstScipy:
    """``load_model`` checks a tree's weight sections at their stored id
    width, with no int32 copy.  Scipy's full check of such a copy stays
    here as the oracle (``scipy_accepts_weights``): over seeded edits of
    the sections, at 2- and 4-byte ids, the load accepts exactly the files
    the oracle accepts, and rejects the rest with DataFormatError, which
    ``predict`` turns into exit 2."""

    KINDS = ["repeated id", "decreasing id", "id equal to D", "random id", "empty row",
             "rows merged", "first id below the previous row's last", "zero value",
             "non-finite value"]
    VALID = ("empty row", "first id below the previous row's last")

    @pytest.fixture(scope="class", params=[(None, 2), (65537, 4)], ids=["u2", "u4"])
    def saved(self, request, tmp_path_factory):
        d, id_size = request.param
        train, _ = grouped_dataset(3, n=120, groups=4, labels_per_group=4)
        ds = parse_body(dataset_to_text(train if d is None else widened(train, d)))
        root = tmp_path_factory.mktemp("weights")
        # a leaf per group: its rows keep the ids of their group's features
        train_small(ds, root / "m", n_trees=1, k=4, d_max=1)
        (root / "data.txt").write_text(dataset_to_text(ds))
        buf = (root / "m" / "tree_0.bin").read_bytes()
        at = tree_file_sections(buf, ds.l, ds.d)
        assert at["id_size"] == id_size and scipy_accepts_weights(buf, at, ds.d)
        return root, buf, ds.l, ds.d

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_agrees_with_scipy(self, saved, tmp_path, capsys, kind):
        root, buf, l, d = saved
        model = tmp_path / "m"
        shutil.copytree(root / "m", model)
        verdicts = []
        for seed in range(8):
            rng = np.random.default_rng([seed, self.KINDS.index(kind)])
            edited = mutate_weights(kind, rng, buf, tree_file_sections(buf, l, d), d)
            (model / "tree_0.bin").write_bytes(edited)
            want = scipy_accepts_weights(edited, tree_file_sections(edited, l, d), d)
            try:
                load_model(model)
                got = True
            except DataFormatError as e:
                assert "bad classifier weights" in str(e)
                got = False
            assert got == want, f"seed {seed}"
            verdicts.append(got)
            if seed == 0:
                rc = main(["predict", "--model", str(model), "--data", str(root / "data.txt"),
                           "--output", str(tmp_path / "pred.txt")])
                assert rc == (0 if got else 2)
        capsys.readouterr()
        assert all(verdicts) if kind in self.VALID else not all(verdicts)


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
        assert tree.ids.dtype == _id_dtype(ens.d) and tree.indptr.dtype == np.int64
        W = tree_csr(tree)
        assert W.shape == (nodes["rows"].sum(), ens.d)
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
    path = tmp_path_factory.mktemp("fuzz") / "m"
    ens = train_model(ds, TrainConfig(n_trees=1, k=3, d_max=2, base_seed=0), model_dir=path)
    files = {name: (path / name).read_bytes() for name in ("meta", "tree_0.bin")}
    return files, prepare_features(ens, ds)


class TestModelFuzz:
    """Every single corruption of a saved model either raises
    DataFormatError or loads as an ensemble that keeps every invariant
    and predicts."""

    @staticmethod
    def load_corrupted(files, name, edit):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in files.items():
                with open(os.path.join(tmp, fname), "wb") as f:
                    f.write(apply_edit(data, edit) if fname == name else data)
            try:
                return load_model(tmp)
            except DataFormatError:
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
