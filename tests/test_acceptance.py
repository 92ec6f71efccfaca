"""Acceptance gate: published-figure reproduction plus structural checks.

The EURLex-4K comparisons need the public dataset on disk and skip with
download instructions otherwise; everything else runs on synthetic data.
"""

import math
import os
import time

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

from conftest import random_dataset
from helpers import predict_tree, row
from labelforest.clustering import _assign, _update
from labelforest.data import build_label_index, parse_dataset
from labelforest.metrics import PropensityModel, evaluate, fit_propensities
from labelforest.predict import logsigmoid, predict_batch
from labelforest.representations import ReprSpace, build_input_repr, build_output_repr
from labelforest.tree import TrainConfig, load_model, save_model, train_ensemble
from metrics_oracle import ndcg_at_k, precision_at_k, psndcg_at_k, psp_at_k
from tron_oracle import BinaryProblem, gradient, objective, train_binary

DATA_DIR = os.environ.get(
    "XMC_DATA_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, "data", "eurlex"),
)
TRAIN_FILE = os.path.join(DATA_DIR, "eurlex_train.txt")
TEST_FILE = os.path.join(DATA_DIR, "eurlex_test.txt")

needs_eurlex = pytest.mark.skipif(
    not (os.path.isfile(TRAIN_FILE) and os.path.isfile(TEST_FILE)),
    reason=(
        "EURLex-4K data not found: download the BoW EUR-Lex 4K split from the "
        "Extreme Classification Repository, place eurlex_train.txt and "
        "eurlex_test.txt under ./data/eurlex (or set XMC_DATA_DIR)"
    ),
)


def truth_rows(ds):
    y = ds.Y
    return [y.indices[s:e] for s, e in zip(y.indptr[:-1], y.indptr[1:])]


@pytest.fixture(scope="module")
def eurlex():
    return parse_dataset(TRAIN_FILE), parse_dataset(TEST_FILE)


def run_eurlex(eurlex, repr_space, d_max=1, k=100):
    train, test = eurlex
    config = TrainConfig(k=k, d_max=d_max, repr_space=repr_space)
    t0 = time.perf_counter()
    ens = train_ensemble(train, config)
    train_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    preds = predict_batch(ens, test, beam=10, k=5)
    ms_per_instance = 1000.0 * (time.perf_counter() - t0) / test.n
    prop = fit_propensities(build_label_index(train), train.n)
    report = evaluate(preds, truth_rows(test), prop)
    return report, train_seconds, ms_per_instance


@pytest.fixture(scope="module")
def eurlex_input_run(eurlex):
    return run_eurlex(eurlex, ReprSpace.INPUT)


@needs_eurlex
def test_eurlex_input_repr_reproduces_published_precision(eurlex_input_run):
    report, train_seconds, ms_per_instance = eurlex_input_run
    assert abs(report.value("P", 1) - 83.0) <= 1.5
    assert abs(report.value("P", 3) - 69.7) <= 1.5
    assert abs(report.value("P", 5) - 58.4) <= 1.5
    # rank-1 nDCG is the same statistic as P@1; deeper cutoffs sit above
    # the precision row on a corpus averaging ~5 labels per instance
    assert report.value("nDCG", 1) == pytest.approx(report.value("P", 1), abs=1e-9)
    assert report.value("nDCG", 3) >= report.value("P", 3) - 0.5
    assert report.value("nDCG", 5) >= report.value("P", 5) - 0.5
    assert train_seconds < 1800.0
    assert ms_per_instance < 5.0


@needs_eurlex
def test_eurlex_output_and_joint_ablations(eurlex):
    # soft gate: a miss here warrants investigation rather than rejection,
    # the published deltas between representations are within seed noise
    report_o, _, _ = run_eurlex(eurlex, ReprSpace.OUTPUT)
    report_j, _, _ = run_eurlex(eurlex, ReprSpace.JOINT)
    for report, targets in (
        (report_o, (82.5, 69.4, 58.1)),
        (report_j, (82.9, 69.4, 58.0)),
    ):
        for k, target in zip((1, 3, 5), targets):
            assert abs(report.value("P", k) - target) <= 2.0


@needs_eurlex
def test_eurlex_coverage_at_five(eurlex_input_run):
    report, _, _ = eurlex_input_run
    assert abs(report.value("coverage", 5) - 55.61) <= 3.0


@needs_eurlex
def test_eurlex_deeper_trees_do_not_beat_shallow(eurlex, eurlex_input_run):
    shallow, _, _ = eurlex_input_run
    deep, _, _ = run_eurlex(eurlex, ReprSpace.INPUT, d_max=4, k=8)
    assert shallow.value("P", 1) >= deep.value("P", 1) - 0.5


def dense_repr_rows(ds, output):
    x = np.zeros((ds.n, ds.d))
    y = np.zeros((ds.n, ds.l))
    for i in range(ds.n):
        r = row(ds.X, i)
        x[i, r.indices] = r.values
        t = row(ds.Y, i)
        y[i, t.indices] = 1.0
    m = y.T @ (y if output else x)
    norms = np.linalg.norm(m, axis=1)
    return m / np.where(norms > 0, norms, 1.0)[:, None]


def exhaustive_tree_scores(tree, x):
    scores = {}

    def walk(node, lp):
        if node.is_leaf:
            for lab, clf in zip(node.labels, node.classifiers):
                scores[int(lab)] = math.exp(lp) * float(expit(clf.margin(x)))
            return
        for child, clf in zip(node.children, node.classifiers):
            walk(child, lp + logsigmoid(clf.margin(x)))

    walk(tree.root, 0.0)
    return scores


def dense_metric_case(rng):
    l = int(rng.integers(5, 30))
    n_pred = int(rng.integers(1, l + 1))
    pred = rng.permutation(l)[:n_pred].astype(np.int64)
    truth = np.flatnonzero(rng.random(l) < 0.3).astype(np.int64)
    p = rng.uniform(0.05, 1.0, size=l)
    return pred, truth, p, int(rng.integers(1, 8))


def dense_p_at_k(pred, truth, k):
    return sum(1.0 for lab in pred[:k] if lab in set(truth)) / k


def dense_dcg_terms(pred, truth, k):
    ts = set(truth)
    return [(r, lab) for r, lab in enumerate(pred[:k], start=1) if lab in ts]


def dense_ndcg_at_k(pred, truth, k):
    if not len(truth):
        return 0.0
    dcg = sum(1.0 / math.log2(r + 1) for r, _ in dense_dcg_terms(pred, truth, k))
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(truth)) + 1))
    return dcg / idcg


def dense_psp_at_k(pred, truth, p, k):
    ts = set(truth)
    return sum(1.0 / p[lab] for lab in pred[:k] if lab in ts) / k


def dense_psndcg_at_k(pred, truth, p, k):
    if not len(truth):
        return 0.0
    num = sum(1.0 / (p[lab] * math.log2(r + 1)) for r, lab in dense_dcg_terms(pred, truth, k))
    idcg = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(truth)) + 1))
    return num / idcg


def test_synthetic_oracle_equivalences_under_sixty_seconds():
    t_start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # label representations against dense cross-product oracles
    for trial in range(20):
        ds = random_dataset(
            1000 + trial,
            n=int(rng.integers(2, 33)),
            d=int(rng.integers(2, 33)),
            l=int(rng.integers(2, 33)),
        )
        for build, output in ((build_input_repr, False), (build_output_repr, True)):
            got = build(ds).matrix.toarray()
            np.testing.assert_allclose(got, dense_repr_rows(ds, output), atol=1e-9)

    # clustering objective is non-increasing across alternating steps
    for trial in range(50):
        n, dim, k = int(rng.integers(4, 40)), int(rng.integers(2, 12)), int(rng.integers(2, 5))
        vecs = rng.normal(size=(n, dim))
        vecs /= np.linalg.norm(vecs, axis=1)[:, None]
        V = sp.csr_matrix(vecs.astype(np.float32), dtype=np.float64)
        centers = vecs[rng.choice(n, size=k, replace=False)].copy()
        prev = None
        for _ in range(6):
            assignments, obj = _assign(V, centers)
            if prev is not None:
                assert obj <= prev + 1e-12
            prev = obj
            centers = _update(V, assignments, k)

    # beam at least as wide as any fan-out reproduces exhaustive scoring
    for trial in range(20):
        ds = random_dataset(2000 + trial, n=40, d=12, l=int(rng.integers(8, 25)))
        config = TrainConfig(n_trees=1, k=4, d_max=2, base_seed=trial)
        ens = train_ensemble(ds, config)
        tree = ens.trees[0]
        x_ds = random_dataset(3000 + trial, n=1, d=12, l=ds.l)
        x = row(x_ds.X, 0)
        got = predict_tree(tree, x, beam=ds.l, k=5)
        scores = exhaustive_tree_scores(tree, x)
        labels = np.array(sorted(scores), dtype=np.int64)
        vals = np.array([scores[int(lab)] for lab in labels])
        order = np.lexsort((labels, -vals))[:5]
        assert got.labels.tolist() == labels[order].tolist()
        np.testing.assert_allclose(got.scores, vals[order], rtol=1e-10)

    # one-point problems have a closed-form optimum
    for c in (0.1, 1.0, 100.0):
        problem = BinaryProblem(sp.csr_matrix(np.array([[1.0]])), np.array([1.0]), c)
        w = train_binary(problem, eps=1e-10)
        assert w.w.to_dense()[0] == pytest.approx(c / (1.0 + c), abs=1e-6)

    # analytic gradient against central finite differences
    for trial in range(10):
        n, d = int(rng.integers(3, 12)), int(rng.integers(2, 6))
        x = rng.normal(size=(n, d))
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        problem = BinaryProblem(sp.csr_matrix(x), signs, float(rng.uniform(0.3, 3.0)))
        while True:
            w = rng.normal(size=d)
            margins = signs * (x @ w)
            if np.min(np.abs(1.0 - margins)) > 1e-3:
                break
        g = gradient(problem, w)
        h = 1e-5
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd = (objective(problem, w + e) - objective(problem, w - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    # ranking metrics against independent dense formulas
    rng_m = np.random.default_rng(77)
    for _ in range(100):
        pred, truth, p, k = dense_metric_case(rng_m)
        prop = PropensityModel(0.55, 1.5, 1000, p)
        uniform = PropensityModel.uniform(len(p))
        assert precision_at_k(pred, truth, k) == pytest.approx(
            dense_p_at_k(pred, truth, k), abs=1e-12
        )
        assert ndcg_at_k(pred, truth, k) == pytest.approx(
            dense_ndcg_at_k(pred, truth, k), abs=1e-12
        )
        assert psp_at_k(pred, truth, prop, k) == pytest.approx(
            dense_psp_at_k(pred, truth, p, k), abs=1e-12
        )
        assert psndcg_at_k(pred, truth, prop, k) == pytest.approx(
            dense_psndcg_at_k(pred, truth, p, k), abs=1e-12
        )
        assert psp_at_k(pred, truth, uniform, k) == precision_at_k(pred, truth, k)
        assert psndcg_at_k(pred, truth, uniform, k) == ndcg_at_k(pred, truth, k)

    assert time.perf_counter() - t_start < 60.0


def test_structural_invariants_and_roundtrip_predictions(tmp_path):
    cases = [
        (random_dataset(41, n=120, d=30, l=60), TrainConfig(k=8, d_max=2, base_seed=1)),
        (random_dataset(42, n=100, d=20, l=30), TrainConfig(k=5, d_max=3, base_seed=2)),
        (random_dataset(43, n=80, d=25, l=24), TrainConfig(d_max=1, base_seed=3)),
    ]
    for case_id, (ds, config) in enumerate(cases):
        ens = train_ensemble(ds, config)
        for tree in ens.trees:
            leaf_labels = np.concatenate([leaf.labels for leaf in tree.leaves()])
            assert len(leaf_labels) == ds.l
            assert np.array_equal(np.sort(leaf_labels), np.arange(ds.l))
            assert max(node.depth for node in tree.iter_nodes()) <= config.d_max

        model_dir = tmp_path / f"model_{case_id}"
        save_model(ens, model_dir)
        loaded = load_model(model_dir)
        probe = random_dataset(90 + case_id, n=100, d=ds.d, l=ds.l)
        before = predict_batch(ens, probe, beam=10, k=5)
        after = predict_batch(loaded, probe, beam=10, k=5)
        for a, b in zip(before, after):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.scores, b.scores)
