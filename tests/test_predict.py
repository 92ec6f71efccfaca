import numpy as np
import pytest
import scipy.sparse as sp

from labelforest import predict
from labelforest.data import Dataset
from labelforest.metrics import PropensityModel, evaluate
from labelforest.predict import (
    Predictions,
    ScoredLabels,
    logsigmoid,
    predict_batch,
    predict_ensemble,
    prepare_features,
    read_predictions,
    write_predictions,
)
from labelforest.representations import ReprSpace
from labelforest.solver import Weights
from labelforest.sparse import SparseRowMatrix, SparseVec
from labelforest.tree import (
    Ensemble,
    TrainConfig,
    Tree,
    TreeNode,
    load_model,
    save_model,
    train_ensemble,
)

from conftest import grouped_dataset
from helpers import node_child_prob, predict_tree, row, vec_from_pairs, weights_block


def wvec(pairs, dim, bias=0.0):
    # a node stores its biases as float32, like its weights
    return Weights(vec_from_pairs(pairs, dim, dtype=np.float32), float(np.float32(bias)))


def unit_x(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    idx = np.arange(dim, dtype=np.int64)
    return SparseVec(idx, v, dim)


def exhaustive_scores(tree, x):
    """Independent full-tree walk: no beam, every leaf scored."""
    from scipy.special import expit

    out = {}

    def walk(node, logp):
        if node.is_leaf:
            for lab, clf in zip(node.labels, node.classifiers):
                out[int(lab)] = np.exp(logp) * float(expit(clf.margin(x)))
            return
        for child, clf in zip(node.children, node.classifiers):
            walk(child, logp + logsigmoid(clf.margin(x)))

    walk(tree.root, 0.0)
    return out


def exhaustive_top_k(tree, x, k):
    items = sorted(exhaustive_scores(tree, x).items(), key=lambda p: (-p[1], p[0]))
    return items[:k]


def tree_node(depth, labels, children, classifiers):
    """A node whose (W, bias) block stacks ``classifiers``, one per row."""
    W, bias = weights_block(classifiers, classifiers[0].w.dim)
    labels = np.asarray(labels, dtype=np.int64)
    return TreeNode(depth, labels, None, not children, children, W, bias)


def leaf_node(labels, classifiers, depth=0):
    return tree_node(depth, labels, [], classifiers)


def single_leaf_tree(labels, classifiers):
    return Tree(leaf_node(labels, classifiers), 100, 1, ReprSpace.INPUT, 0)


class TestNodeChildProb:
    def test_midpoint(self):
        assert node_child_prob(wvec([], 2, bias=0.0), unit_x(0, 2)) == 0.5

    def test_saturation(self):
        p = node_child_prob(wvec([], 2, bias=20.0), unit_x(0, 2))
        assert p == pytest.approx(1.0, abs=1e-8)

    def test_symmetry_sums_to_one(self):
        x = unit_x(1, 3)
        hi = node_child_prob(wvec([(0, 1.3), (2, -0.4)], 3, bias=0.2), x)
        lo = node_child_prob(wvec([(0, -1.3), (2, 0.4)], 3, bias=-0.2), x)
        assert hi + lo == pytest.approx(1.0, abs=1e-12)


class TestPredictTree:
    def test_depth_zero_tree_is_plain_ova(self):
        from scipy.special import expit

        clfs = [wvec([(0, 1.0)], 2, 0.1), wvec([(1, 1.0)], 2, -0.2), wvec([], 2, 0.0)]
        tree = single_leaf_tree([0, 1, 2], clfs)
        x = unit_x(2, 2)
        res = predict_tree(tree, x, beam=1, k=3)
        expected = {lab: float(expit(clf.margin(x))) for lab, clf in zip([0, 1, 2], clfs)}
        for lab, score in res.pairs():
            assert score == pytest.approx(expected[lab], abs=1e-12)
        assert list(res.scores) == sorted(res.scores, reverse=True)

    def test_beam_at_fanout_equals_exhaustive(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=2, base_seed=2))
        tree = ens.trees[0]
        for trial in range(20):
            x = unit_x(100 + trial, ds.d)
            got = predict_tree(tree, x, beam=ds.l, k=5)
            want = exhaustive_top_k(tree, x, 5)
            assert got.pairs() == [
                (lab, pytest.approx(sc, abs=1e-12)) for lab, sc in want
            ]

    def test_chain_of_sixteen_095_probabilities(self):
        dim = 1
        margin = float(np.log(0.95 / 0.05))
        leaf = leaf_node([0], [wvec([], dim, bias=40.0)], depth=16)
        node = leaf
        for depth in range(15, -1, -1):
            node = tree_node(depth, [0], [node], [wvec([(0, margin)], dim)])
        tree = Tree(node, 2, 16, ReprSpace.INPUT, 0)
        x = SparseVec(np.array([0]), np.array([1.0]), dim)
        res = predict_tree(tree, x, beam=1, k=1)
        # weights are stored float32, so allow that much slack on the product
        assert res.scores[0] == pytest.approx(0.95**16, rel=1e-6)
        assert res.scores[0] == pytest.approx(0.4401, abs=5e-4)
        assert abs(res.scores[0] - 0.46) > 0.01

    def test_shallow_leaf_competes_in_beam(self):
        # root -> (leaf A, internal B -> leaf B'); A routes stronger than B
        dim = 1
        x = SparseVec(np.array([0]), np.array([1.0]), dim)
        leaf_a = leaf_node([0], [wvec([], dim, 5.0)], depth=1)
        leaf_b = leaf_node([1], [wvec([], dim, 5.0)], depth=2)
        internal_b = tree_node(1, [1], [leaf_b], [wvec([], dim, 5.0)])
        root = tree_node(
            0, [0, 1], [leaf_a, internal_b], [wvec([], dim, 2.0), wvec([], dim, -2.0)]
        )
        tree = Tree(root, 2, 2, ReprSpace.INPUT, 0)
        narrow = predict_tree(tree, x, beam=1, k=2)
        assert narrow.labels.tolist() == [0]
        wide = predict_tree(tree, x, beam=2, k=2)
        assert sorted(wide.labels.tolist()) == [0, 1]

    def test_scores_in_unit_interval_and_sorted(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=3))
        for trial in range(10):
            res = predict_tree(ens.trees[0], unit_x(trial, ds.d), beam=3, k=10)
            assert np.all(res.scores > 0) and np.all(res.scores <= 1)
            assert np.all(np.diff(res.scores) <= 0)

    def test_monotone_beam_property(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=2, base_seed=4))
        tree = ens.trees[0]
        for trial in range(10):
            x = unit_x(200 + trial, ds.d)
            small = predict_tree(tree, x, beam=2, k=5)
            large = predict_tree(tree, x, beam=6, k=5)
            floor = large.scores[-1] if len(large) else 0.0
            for lab, sc in small.pairs():
                if sc > floor:
                    assert lab in large.labels


class TestPredictEnsemble:
    def test_single_tree_identity(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=5))
        for trial in range(5):
            x = unit_x(300 + trial, ds.d)
            a = predict_tree(ens.trees[0], x, beam=3, k=5)
            b = predict_ensemble(ens, x, beam=3, k=5)
            assert a.pairs() == b.pairs()

    def test_missing_label_counts_as_zero(self):
        # tree 1 scores label 0 at 0.8; tree 2's only leaf holds label 1
        dim = 1
        bias_08 = float(np.log(0.8 / 0.2))
        t1 = single_leaf_tree([0], [wvec([], dim, bias_08)])
        t2 = single_leaf_tree([1], [wvec([], dim, 0.0)])
        cfg = TrainConfig(n_trees=2, k=100)
        ens = Ensemble([t1, t2], cfg, dim, 2)
        res = predict_ensemble(ens, SparseVec(np.array([0]), np.array([1.0]), dim), beam=1, k=2)
        scores = dict(res.pairs())
        assert scores[0] == pytest.approx(0.4, abs=1e-9)
        assert scores[1] == pytest.approx(0.25, abs=1e-9)

    def test_identical_trees_equal_single(self, grouped_train):
        ds, _ = grouped_train
        one = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=6))
        tripled = Ensemble([one.trees[0]] * 3, one.config, one.d, one.l)
        for trial in range(5):
            x = unit_x(400 + trial, ds.d)
            a = predict_ensemble(one, x, beam=3, k=5)
            b = predict_ensemble(tripled, x, beam=3, k=5)
            assert a.labels.tolist() == b.labels.tolist()
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-12)


class TestPredictBatch:
    def test_matches_reference_route(self, grouped_train, grouped_test):
        train, _ = grouped_train
        test, _ = grouped_test
        ens = train_ensemble(train, TrainConfig(n_trees=3, k=3, d_max=2, base_seed=7))
        for beam, k in [(1, 3), (3, 5), (8, 5)]:
            X = prepare_features(ens, test)
            batch = predict_batch(ens, test, beam=beam, k=k)
            for i in range(test.n):
                x = SparseRowMatrix.from_csr(X[[i]]).row(0)
                ref = predict_ensemble(ens, x, beam=beam, k=k)
                assert batch[i].labels.tolist() == ref.labels.tolist()
                np.testing.assert_allclose(
                    batch[i].scores, ref.scores, rtol=1e-10, atol=1e-12
                )

    def test_accepts_dataset_and_checks_dim(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=8))
        out = predict_batch(ens, ds, beam=3, k=5)
        assert len(out) == ds.n
        bad, _ = grouped_dataset(9, n=5, feats_per_group=9)
        with pytest.raises(ValueError, match="dim"):
            predict_batch(ens, bad, beam=3, k=5)

    def test_load_and_predict_build_no_sparse_vectors(self, grouped_train, tmp_path,
                                                      monkeypatch):
        ds, _ = grouped_train
        save_model(train_ensemble(ds, TrainConfig(n_trees=2, k=3, d_max=2, base_seed=1)),
                   tmp_path / "m")
        built = []
        check = SparseVec.__post_init__

        def counted(self):
            built.append(1)
            check(self)

        monkeypatch.setattr(SparseVec, "__post_init__", counted)
        out = predict_batch(load_model(tmp_path / "m"), ds, beam=3, k=5)
        assert len(out) == ds.n and len(built) == 0
        # the counter does see the per-classifier views
        assert len(load_model(tmp_path / "m").trees[0].root.classifiers) == len(built) > 0

    def test_parameter_validation(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=9))
        with pytest.raises(ValueError):
            predict_batch(ens, ds, beam=0, k=5)
        with pytest.raises(ValueError):
            predict_batch(ens, ds, beam=3, k=0)


    def test_blocks_of_four_match_one_block(self, grouped_train, grouped_test, monkeypatch):
        train, _ = grouped_train
        test, _ = grouped_test
        assert test.n >= 11 and test.n % 4  # several blocks, the last one short
        ens = train_ensemble(train, TrainConfig(n_trees=2, k=3, d_max=2, base_seed=10))
        monkeypatch.setattr(predict, "BLOCK_ROWS", test.n)
        whole = predict_batch(ens, test, beam=3, k=5)
        monkeypatch.setattr(predict, "BLOCK_ROWS", 4)
        blocked = predict_batch(ens, test, beam=3, k=5)
        assert np.array_equal(blocked.labels, whole.labels)
        assert np.array_equal(blocked.scores, whole.scores)
        X = prepare_features(ens, test)
        for i in range(test.n):
            ref = predict_ensemble(ens, SparseRowMatrix.from_csr(X[[i]]).row(0), beam=3, k=5)
            assert blocked[i].labels.tolist() == ref.labels.tolist()
            np.testing.assert_allclose(blocked[i].scores, ref.scores, rtol=1e-10, atol=1e-12)

    def test_empty_dataset_gives_empty_block(self, grouped_train):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=11))
        empty = Dataset(sp.csr_matrix((0, ds.d)), sp.csr_matrix((0, ds.l)), 0, ds.d, ds.l)
        out = predict_batch(ens, empty, beam=3, k=5)
        assert len(out) == 0 and out.labels.shape == (0, 5)

    def test_predict_write_read_evaluate_build_no_scored_labels(
        self, grouped_train, tmp_path, monkeypatch
    ):
        ds, _ = grouped_train
        ens = train_ensemble(ds, TrainConfig(n_trees=2, k=3, d_max=2, base_seed=12))
        built = []
        check = ScoredLabels.__post_init__

        def counted(self):
            built.append(1)
            check(self)

        monkeypatch.setattr(ScoredLabels, "__post_init__", counted)
        preds = predict_batch(ens, ds, beam=3, k=5)
        write_predictions(preds, tmp_path / "pred.txt")
        back = read_predictions(tmp_path / "pred.txt")
        truths = [row(ds.Y, i).indices for i in range(ds.n)]
        evaluate(back, truths, PropensityModel.uniform(ds.l))
        assert len(back) == ds.n and len(built) == 0
        # the counter does see the per-row views
        assert back[0].labels.tolist() == preds[0].labels.tolist() and len(built) == 2


class TestWritePredictions:
    def test_format_five_decimals_descending(self, tmp_path):
        res = Predictions.from_rows(
            [np.array([7, 2]), np.array([], dtype=np.int64)],
            [np.array([0.875, 0.25]), np.array([])],
        )
        write_predictions(res, tmp_path / "pred.txt")
        assert (tmp_path / "pred.txt").read_text() == "7:0.87500 2:0.25000\n\n"
