import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import predict
from labelforest.data import Dataset
from labelforest.metrics import PropensityModel, evaluate
from labelforest.predict import (
    Predictions,
    ScoredLabels,
    predict_batch,
    predict_ensemble,
    prepare_features,
    read_predictions,
    write_predictions,
)
from labelforest.sparse import SparseRowMatrix
from labelforest.tree import Ensemble, TrainConfig, load_model, save_model, train_ensemble

from conftest import grouped_dataset
from helpers import (
    Inner,
    Leaf,
    SparseVec,
    Weights,
    build_tree,
    csr_row,
    dataset_to_text,
    exhaustive_scores,
    node_child_prob,
    predict_tree,
    vec_from_pairs,
)


def wvec(pairs, dim, bias=0.0):
    # a node stores its biases as float32, like its weights
    return Weights(vec_from_pairs(pairs, dim, dtype=np.float32), float(np.float32(bias)))


def unit_x(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    idx = np.arange(dim, dtype=np.int64)
    return SparseVec(idx, v, dim)


def exhaustive_top_k(tree, x, k):
    items = sorted(exhaustive_scores(tree, x).items(), key=lambda p: (-p[1], p[0]))
    return items[:k]


def chain(depth, leaf_clf, route_clf):
    """A one-label tree of ``depth`` single-child nodes above its leaf."""
    spec = Leaf([0], [leaf_clf])
    for _ in range(depth):
        spec = Inner([spec], [route_clf])
    return spec


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
        tree = build_tree(Leaf([0, 1, 2], clfs), 2)
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
        tree = build_tree(chain(16, wvec([], dim, bias=40.0), wvec([(0, margin)], dim)), dim)
        assert tree.nodes["depth"].max() == 16
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
        leaf_a = Leaf([0], [wvec([], dim, 5.0)])
        internal_b = Inner([Leaf([1], [wvec([], dim, 5.0)])], [wvec([], dim, 5.0)])
        tree = build_tree(
            Inner([leaf_a, internal_b], [wvec([], dim, 2.0), wvec([], dim, -2.0)]), dim
        )
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
            b = predict_ensemble(ens, csr_row(x), beam=3, k=5)
            assert a.pairs() == b.pairs()

    def test_missing_label_counts_as_zero(self):
        # tree 1 scores label 0 at 0.8; tree 2's only leaf holds label 1
        dim = 1
        bias_08 = float(np.log(0.8 / 0.2))
        t1 = build_tree(Leaf([0], [wvec([], dim, bias_08)]), dim)
        t2 = build_tree(Leaf([1], [wvec([], dim, 0.0)]), dim)
        cfg = TrainConfig(n_trees=2, k=100)
        ens = Ensemble([t1, t2], cfg, dim, 2)
        res = predict_ensemble(ens, sp.csr_matrix([[1.0]]), beam=1, k=2)
        scores = dict(res.pairs())
        assert scores[0] == pytest.approx(0.4, abs=1e-9)
        assert scores[1] == pytest.approx(0.25, abs=1e-9)

    def test_identical_trees_equal_single(self, grouped_train):
        ds, _ = grouped_train
        one = train_ensemble(ds, TrainConfig(n_trees=1, k=3, d_max=1, base_seed=6))
        tripled = Ensemble([one.trees[0]] * 3, one.config, one.d, one.l)
        for trial in range(5):
            x = csr_row(unit_x(400 + trial, ds.d))
            a = predict_ensemble(one, x, beam=3, k=5)
            b = predict_ensemble(tripled, x, beam=3, k=5)
            assert a.labels.tolist() == b.labels.tolist()
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-12)

    @pytest.mark.parametrize("x", [
        sp.csr_matrix(np.ones((1, 3))),
        sp.csr_matrix(np.ones((1, 5))),
        sp.csr_matrix(np.ones((2, 4))),
        np.ones((1, 4)),
        sp.csr_matrix((np.ones(2), [2, 0], [0, 2]), shape=(1, 4)),
        sp.csr_matrix((np.ones(2), [1, 1], [0, 2]), shape=(1, 4)),
    ], ids=["width 3", "width 5", "two rows", "dense", "unsorted", "duplicate"])
    def test_rejects_a_row_of_another_width_or_order(self, x):
        ens = Ensemble([build_tree(Leaf([0], [wvec([(0, 1.0)], 4)]), 4)], TrainConfig(n_trees=1), 4, 1)
        assert len(predict_ensemble(ens, sp.csr_matrix(np.ones((1, 4))), beam=1, k=1)) == 1
        with pytest.raises(ValueError, match="1 x 4 CSR row with sorted, distinct indices"):
            predict_ensemble(ens, x, beam=1, k=1)


def top_cols_oracle(P, k):
    """(rows, ranks, cols) from one full lexsort of each row's finite entries."""
    out = ([], [], [])
    for i, row in enumerate(P):
        cols = np.flatnonzero(row > -np.inf)
        cols = cols[np.lexsort((cols, -row[cols]))][:k]
        out[0].extend([i] * len(cols))
        out[1].extend(range(len(cols)))
        out[2].extend(cols.tolist())
    return out


@settings(max_examples=300)
@given(data=st.data())
def test_top_cols_matches_lexsort_oracle(data):
    n, m = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 9))
    k = data.draw(st.integers(1, 12))  # above the width too
    # a few repeated values make heavy ties; -inf is padding
    value = st.one_of(
        st.sampled_from([-np.inf, -np.inf, -2.0, 0.0, 0.5, 0.5, 1.0]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    P = np.array(data.draw(st.lists(value, min_size=n * m, max_size=n * m))).reshape(n, m)
    if n:
        P[data.draw(st.lists(st.integers(0, n - 1), max_size=2))] = -np.inf  # all-padding rows
    rows, ranks, cols = predict._top_cols(P, k)
    assert (rows.tolist(), ranks.tolist(), cols.tolist()) == top_cols_oracle(P, k)


def tied_ensemble():
    """Two depth-2 trees over 12 labels with exact ties everywhere: every
    node's children share one classifier, a deep route adds nothing to the
    log probability (bias 40) so a shallow leaf ties with its cousins, and
    every label shares one classifier.  Leaves list labels out of order."""
    dim = 2
    route, sure, label = wvec([(0, 0.3)], dim, 0.2), wvec([], dim, 40.0), wvec([(1, 0.7)], dim, -0.1)

    def leaf(labels):
        return Leaf(labels, [label] * len(labels))

    def node(children, clf):
        return Inner(children, [clf] * len(children))

    a = node([leaf([7, 3]), node([leaf([11, 0]), leaf([5, 9])], sure),
              node([leaf([2, 6]), leaf([1])], sure),
              node([leaf([4, 8]), leaf([10])], sure)], route)
    b = node([node([leaf([3, 11]), leaf([0, 6, 7])], route),
              node([leaf([1, 2, 4]), leaf([5, 8, 9, 10])], route)], route)
    trees = [build_tree(a, dim), build_tree(b, dim)]
    return Ensemble(trees, TrainConfig(n_trees=2), dim, 12)


class TestPredictBatch:
    def test_exact_ties_match_reference_route(self):
        ens = tied_ensemble()
        X = sp.csr_matrix(np.array([[1.0, 0.0], [0.6, -0.8], [0.0, 0.0], [-0.3, 0.2]],
                                   dtype=np.float32))
        ds = Dataset(X, sp.csr_matrix((4, ens.l), dtype=np.float32))
        Xn = prepare_features(ens, ds)
        for beam, k in [(1, 3), (2, 10), (3, 4), (3, 12), (5, 12)]:
            batch = predict_batch(ens, ds, beam=beam, k=k)
            for i in range(ds.n):
                ref = predict_ensemble(ens, SparseRowMatrix.from_csr(Xn[[i]]).row(0), beam, k)
                n_ref = len(ref)
                assert batch.labels[i, :n_ref].tolist() == ref.labels.tolist()
                np.testing.assert_allclose(batch.scores[i, :n_ref], ref.scores, rtol=1e-12)
                assert (batch.labels[i, n_ref:] == -1).all()
                assert (batch.scores[i, n_ref:] == 0).all()
        # the tie rules are exercised: beam 2 keeps the shallow leaf and one
        # cousin in tree a, so a row reaches five labels, four of them tied
        two = predict_batch(ens, ds, beam=2, k=10)
        assert two.labels[0].tolist() == [0, 3, 7, 11, 6] + [-1] * 5

    def test_peak_memory_bounded(self):
        # traced peaks of this run: 26.1 MB when a block's (row, label, score)
        # triplets were merged through a sparse matrix, 6.0 MB with one
        # accumulator over the labels the block reaches
        rng = np.random.default_rng(0)
        d, n_labels, fan_out = 300, 600, 20

        def weights(rows):
            W = sp.random(rows, d, density=0.1, random_state=rng, format="csr", dtype=np.float32)
            return W, rng.normal(size=rows).astype(np.float32)

        def tree():
            perm = rng.permutation(n_labels)
            leaves = [Leaf(np.sort(part), weights(len(part))) for part in np.split(perm, fan_out)]
            return build_tree(Inner(leaves, weights(fan_out)), d)

        ens = Ensemble([tree() for _ in range(3)], TrainConfig(n_trees=3), d, n_labels)
        X = sp.random(512, d, density=0.05, random_state=rng, format="csr", dtype=np.float32)
        ds = Dataset(X, sp.csr_matrix((512, n_labels), dtype=np.float32))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            preds = predict_batch(ens, ds, beam=10, k=5)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert (preds.labels >= 0).all()
        assert peak < 12e6

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

    def test_load_and_predict_build_no_sparse_vectors(self, grouped_train, tmp_path):
        """The commands' route, from ``import labelforest.cli`` through
        load, predict, the prediction file and evaluate, never loads
        ``labelforest.sparse``: it has no sparse type but scipy's."""
        ds, _ = grouped_train
        save_model(train_ensemble(ds, TrainConfig(n_trees=2, k=3, d_max=2, base_seed=1)),
                   tmp_path / "m")
        (tmp_path / "data.txt").write_text(dataset_to_text(ds))
        code = (
            "import sys, labelforest.cli\n"
            "from labelforest.data import parse_dataset\n"
            "from labelforest.metrics import PropensityModel, evaluate\n"
            "from labelforest.predict import predict_batch, read_predictions, write_predictions\n"
            "from labelforest.tree import load_model\n"
            "ds = parse_dataset('data.txt')\n"
            "write_predictions(predict_batch(load_model('m'), ds, beam=3, k=5), 'pred.txt')\n"
            "evaluate(read_predictions('pred.txt'), ds.Y, PropensityModel.uniform(ds.l))\n"
            "print(sorted(m for m in sys.modules if m.startswith('labelforest')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=tmp_path,
                             capture_output=True, text=True).stdout
        assert "'labelforest.predict'" in out and "'labelforest.sparse'" not in out
        assert (tmp_path / "pred.txt").read_text().count("\n") == ds.n

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
        empty = Dataset(sp.csr_matrix((0, ds.d)), sp.csr_matrix((0, ds.l)))
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
        evaluate(back, ds.Y, PropensityModel.uniform(ds.l))
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
