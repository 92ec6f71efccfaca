import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import solver, tree
from labelforest.data import Dataset
from labelforest.predict import predict_batch
from labelforest.solver import (
    NodeSolve,
    _Features,
    _Instances,
    _stacked_rows,
    _tron,
    _trcg,
    compact_columns,
    train_nodes,
)
from labelforest.tree import TrainConfig, TrainReport

from conftest import grouped_dataset
from helpers import (
    compact_columns_oracle,
    duality_gaps,
    random_csr,
    row_weights,
    same_csr_bits,
    train_model,
    train_node,
    tree_csr,
    weights_block,
    with_bias_column,
    with_bias_feature_oracle,
)
from tron_oracle import (
    BinaryProblem,
    OracleInfo,
    SolveInfo,
    gradient,
    objective,
    oracle_train_node,
    solve_dense,
    train_binary,
    trcg,
)

# Batched columns against the scalar oracle, relative to the oracle's
# weight norm.  The two sum dot products in different orders, so they
# agree to rounding, which CG amplifies on ill-conditioned problems; the
# seeded problems below are conditioned so that 1e-7 is far from binding.
ORACLE_RTOL = 1e-7


# Float32 classifiers from instance against feature coordinates (and the
# scalar oracle), relative to the reference's weight norm with its bias.
# Both take the same iterates, but K-images and the dot products through
# them round differently: over 1,500 seeded nodes the float64 weights
# parted by at most 1.6e-15 relative, and no float32 weight differed.
INSTANCE_RTOL = 1e-6


def csr(rows):
    return sp.csr_matrix(np.asarray(rows, dtype=np.float64))


def one_point_problem(c):
    return BinaryProblem(csr([[1.0]]), np.array([1.0]), C=c)


def random_node(rng, n, d, m, density=0.3, pos_rate=0.3):
    """Random rows without a bias column, and an n x m sign matrix whose
    first column has no positives and whose second has no negatives."""
    X = sp.random(n, d, density=density, random_state=rng, format="csr")
    X.data = rng.normal(size=X.nnz)
    Y = np.where(rng.random((n, m)) < pos_rate, 1, -1).astype(np.int8)
    Y[:, 0] = -1
    Y[:, 1] = 1
    return X, Y


def sparse_rows_node(rng, n, d, m):
    """n rows of one or two features each over d, and an n x m sign
    matrix.  With nnz <= 2n, n^2 > 4 (nnz + n) from n = 13 on, so such a
    node is solved in feature coordinates."""
    lens = rng.integers(1, 3, n)
    indices = np.concatenate([np.sort(rng.choice(d, k, replace=False)) for k in lens])
    X = sp.csr_matrix((rng.normal(size=lens.sum()), indices, np.concatenate(([0], np.cumsum(lens)))),
                      shape=(n, d))
    return X, np.where(rng.random((n, m)) < 0.3, 1, -1).astype(np.int8)


def random_biased_node(rng, n, d, m):
    """``random_node`` with the bias column appended, for ``_tron`` and the
    scalar oracle, which solve over every column they are given."""
    X, Y = random_node(rng, n, d, m)
    return with_bias_column(X), Y


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def tron(X, Y, C, eps, max_newton_iters=100):
    return _tron(_Features(X, X.T.tocsr(), C), Y, eps, max_newton_iters)[:3]


def weights_of(sol):
    return row_weights(sol.W, sol.bias)


class TestClosedForms:
    @pytest.mark.parametrize("c", [0.1, 1.0, 100.0])
    def test_one_point_optimum(self, c):
        w = train_binary(one_point_problem(c), eps=1e-10)
        assert w.w.to_dense()[0] == pytest.approx(c / (1.0 + c), abs=1e-6)

    def test_one_point_objective_value(self):
        p = one_point_problem(1.0)
        w = train_binary(p, eps=1e-10)
        assert objective(p, w.w.to_dense()) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("c", [0.1, 1.0, 100.0])
    def test_one_point_with_bias_augmentation(self, c):
        X = csr([[1.0]])
        sol = weights_of(train_node(X, np.array([[1]]), C=c, eps=1e-10, delta=0.0))[0]
        expected = c / (1.0 + 2.0 * c)
        assert sol.w.to_dense()[0] == pytest.approx(expected, abs=1e-6)
        assert sol.bias == pytest.approx(expected, abs=1e-6)

    def test_separable_symmetric_pair(self):
        p = BinaryProblem(
            csr([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]), C=1.0
        )
        w = train_binary(p, eps=1e-10).w.to_dense()
        assert w[0] > 0
        margins = np.array([w @ [1.0, 0.0], -(w @ [-1.0, 0.0])])
        assert margins[0] == pytest.approx(margins[1], abs=1e-9)


class TestSolverBehavior:
    def test_objective_never_worse_than_zero_vector(self):
        rng = np.random.default_rng(0)
        X = sp.csr_matrix(rng.normal(size=(30, 8)))
        s = np.sign(rng.normal(size=30))
        s[s == 0] = 1.0
        p = BinaryProblem(X, s, C=2.0)
        w = train_binary(p, eps=0.1)
        assert objective(p, w.w.to_dense()) <= objective(p, np.zeros(8)) + 1e-12

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(1)
        X = sp.csr_matrix(rng.normal(size=(50, 10)))
        s = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        info = SolveInfo()
        train_binary(BinaryProblem(X, s, C=5.0), eps=1e-8, info=info)
        trace = np.array(info.objective_trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-9)

    def test_all_one_sign_problem_converges(self):
        X = csr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        info = SolveInfo()
        w = train_binary(
            BinaryProblem(X, np.array([1.0, 1.0, 1.0]), C=1.0),
            eps=1e-8,
            info=info,
        )
        assert info.converged
        m = X @ w.w.to_dense()
        assert np.all(m > 0)

    def test_gradient_norm_stopping_rule(self):
        rng = np.random.default_rng(2)
        X = sp.csr_matrix(rng.normal(size=(40, 6)))
        s = np.where(rng.random(40) < 0.4, 1.0, -1.0)
        p = BinaryProblem(X, s, C=1.0)
        eps = 1e-6
        info = SolveInfo()
        w = train_binary(p, eps=eps, max_newton_iters=200, info=info)
        g0 = np.linalg.norm(gradient(p, np.zeros(6)))
        g_final = np.linalg.norm(gradient(p, w.w.to_dense()))
        assert info.converged
        assert g_final <= eps * g0

    def test_max_iters_respected(self):
        rng = np.random.default_rng(3)
        X = sp.csr_matrix(rng.normal(size=(60, 12)))
        s = np.where(rng.random(60) < 0.5, 1.0, -1.0)
        info = SolveInfo()
        train_binary(BinaryProblem(X, s, C=100.0), eps=1e-14, max_newton_iters=2, info=info)
        assert info.n_newton_iters <= 2

    @pytest.mark.parametrize("c", [1e140, 1e308])
    def test_overflowing_c_stops_unconverged(self, c):
        # the objective or its reductions overflow; every column must stop
        X, Y = random_node(np.random.default_rng(13), 6, 3, m=3, density=0.5)
        sol = train_node(X, Y, C=c)
        assert sol.in_instances
        assert not sol.converged.any()
        assert np.all(np.isfinite(sol.W.data)) and np.all(np.isfinite(sol.bias))

    @pytest.mark.parametrize("c", [1e140, 1e308])
    def test_overflowing_c_stops_unconverged_in_feature_coordinates(self, c):
        X, Y = random_node(np.random.default_rng(13), 6, 3, m=3, density=0.5)
        with in_feature_coordinates():
            sol = train_node(X, Y, C=c)
        assert not sol.converged.any()
        assert np.all(np.isfinite(sol.W.data)) and np.all(np.isfinite(sol.bias))

    def test_info_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        X = sp.csr_matrix(rng.normal(size=(50, 10)))
        s = np.where(rng.random(50) < 0.5, 1.0, -1.0)
        p = BinaryProblem(X, s, C=1.0)
        info, want = SolveInfo(), OracleInfo()
        w = train_binary(p, eps=1e-6, info=info)
        w_oracle = solve_dense(p, eps=1e-6, info=want)
        assert relative_error(w.w.to_dense(), w_oracle) <= ORACLE_RTOL
        assert (info.n_newton_iters, info.converged) == (want.n_newton_iters, want.converged)
        np.testing.assert_allclose(info.objective_trace, want.objective_trace, rtol=1e-12)


class TestBatchedAgainstOracle:
    @pytest.mark.parametrize(
        "c, eps, steps_to_boundary",
        [(0.1, 1e-3, False), (1.0, 0.1, False), (1.0, 1e-6, True), (10.0, 0.1, True)],
    )
    def test_every_column_matches(self, c, eps, steps_to_boundary):
        rng = np.random.default_rng(int(c * 1000) + int(-np.log10(eps)))
        boundary = 0
        for _ in range(10):
            n, d = int(rng.integers(20, 80)), int(rng.integers(5, 40))
            X, Y = random_biased_node(rng, n, d, m=6)
            W, iters, conv = tron(X, Y, c, eps)
            for j in range(Y.shape[1]):
                info = OracleInfo()
                w = solve_dense(BinaryProblem(X, Y[:, j], c), eps, 100, info)
                boundary += info.boundary_steps
                assert relative_error(W[:, j], w) <= ORACLE_RTOL
                assert (iters[j], conv[j]) == (info.n_newton_iters, info.converged)
        if steps_to_boundary:
            # some CG solves stop on the trust region: that path is covered
            assert boundary > 0

    def test_zero_positive_column_matches(self):
        rng = np.random.default_rng(5)
        X, Y = random_biased_node(rng, 30, 10, m=2)
        W, iters, conv = tron(X, Y, 1.0, 1e-6)
        w = solve_dense(BinaryProblem(X, Y[:, 0].astype(float), 1.0), 1e-6)
        assert conv[0] and relative_error(W[:, 0], w) <= ORACLE_RTOL
        # all negatives: every margin ends below zero
        assert np.all(X @ W[:, 0] < 0)

    def test_cg_steps_onto_trust_region_boundary(self):
        rng = np.random.default_rng(6)
        X, Y = random_biased_node(rng, 40, 15, m=5)
        XT = X.T.tocsr()
        Yf = Y.astype(float)
        G = -2.0 * (XT @ Yf)
        gnorm = np.sqrt(np.sum(G * G, axis=0))
        # radii far inside and far outside each column's Newton step
        delta = gnorm * np.array([1e-3, 1e3, 1e-2, 1e3, 1e-4])
        act = np.ones_like(Yf)
        S, R, _ = _trcg(_Features(X, XT, 1.0), act, G, delta, 0.1 * gnorm, np.arange(5))
        for j in range(Y.shape[1]):

            def hess_vec(v):
                return 2.0 * v + 2.0 * (X.T @ (X @ v))

            s, r, hit = trcg(delta[j], G[:, j].copy(), hess_vec, 0.1 * gnorm[j])
            assert hit == (j in (0, 2, 4))
            np.testing.assert_allclose(S[:, j], s, rtol=1e-10, atol=1e-12 * gnorm[j])
            np.testing.assert_allclose(R[:, j], r, rtol=1e-8, atol=1e-10 * gnorm[j])
            if hit:
                assert np.linalg.norm(S[:, j]) == pytest.approx(delta[j], rel=1e-12)

    def test_iteration_cap(self):
        rng = np.random.default_rng(7)
        X, Y = random_biased_node(rng, 50, 20, m=5)
        W, iters, conv = tron(X, Y, 1.0, 1e-12, max_newton_iters=1)
        assert iters.tolist() == [1] * 5 and not conv.any()
        for j in range(5):
            info = OracleInfo()
            w = solve_dense(BinaryProblem(X, Y[:, j], 1.0), 1e-12, 1, info)
            assert (info.n_newton_iters, info.converged) == (1, False)
            assert relative_error(W[:, j], w) <= ORACLE_RTOL

    def test_ill_conditioned_columns_meet_gradient_test(self):
        # with C = 100 rounding differences grow through CG, so columns may
        # end elsewhere than the oracle; each must still pass its own test
        rng = np.random.default_rng(8)
        eps = 1e-3
        for _ in range(5):
            X, Y = random_biased_node(rng, 40, 30, m=6)
            W, iters, conv = tron(X, Y, 100.0, eps)
            for j in range(6):
                p = BinaryProblem(X, Y[:, j], 100.0)
                g0 = np.linalg.norm(gradient(p, np.zeros(X.shape[1])))
                g = np.linalg.norm(gradient(p, W[:, j]))
                assert conv[j] == (g <= eps * g0)
                assert objective(p, W[:, j]) < objective(p, np.zeros(X.shape[1]))

    def test_chunked_equals_unchunked(self, monkeypatch):
        rng = np.random.default_rng(9)
        X, Y = random_node(rng, 60, 25, m=7)
        whole = train_node(X, Y, eps=1e-6, delta=0.0)
        # room for two columns per batch: four batches, the last of one
        per_column = 8 * solver._ARRAYS_PER_COLUMN * (60 + len(np.unique(X.indices)) + 1)
        monkeypatch.setattr(solver, "CHUNK_BYTES", 2 * per_column)
        chunked = train_node(X, Y, eps=1e-6, delta=0.0)
        assert chunked.newton_iters.tolist() == whole.newton_iters.tolist()
        assert chunked.converged.tolist() == whole.converged.tolist()
        assert chunked.n_pruned == whole.n_pruned == 0
        for a, b in zip(weights_of(chunked), weights_of(whole)):
            assert a.w.indices.tolist() == b.w.indices.tolist()
            np.testing.assert_allclose(a.w.values, b.w.values, rtol=1e-6)
            assert a.bias == pytest.approx(b.bias, rel=1e-6)

    def test_node_weights_match_oracle(self):
        rng = np.random.default_rng(10)
        X, Y = random_node(rng, 70, 30, m=8)
        got = train_node(X, Y, C=1.0, eps=1e-6, delta=0.01)
        want, infos = oracle_train_node(with_bias_column(X), Y, C=1.0, eps=1e-6, delta=0.01)
        assert got.newton_iters.tolist() == [i.n_newton_iters for i in infos]
        assert got.n_pruned == sum(i.n_pruned for i in infos) > 0
        for a, b in zip(weights_of(got), want):
            assert a.w.indices.tolist() == b.w.indices.tolist()
            np.testing.assert_allclose(a.w.values, b.w.values, rtol=1e-6)
            assert a.bias == pytest.approx(b.bias, rel=1e-6)

    def test_featureless_node_gives_oracle_bias_only_classifiers(self):
        rng = np.random.default_rng(11)
        X = sp.csr_matrix((12, 5))
        Y = np.where(rng.random((12, 4)) < 0.3, 1, -1).astype(np.int8)
        Y[:, 0] = -1
        got = train_node(X, Y, eps=1e-8)
        want, infos = oracle_train_node(with_bias_column(X), Y, eps=1e-8)
        assert got.W.shape == (4, 5) and got.W.nnz == 0
        assert got.newton_iters.tolist() == [i.n_newton_iters for i in infos]
        for b, w in zip(got.bias, want):
            assert w.w.nnz == 0
            assert b == pytest.approx(w.bias, rel=1e-6)

    def test_rows_without_features_keep_their_bias(self):
        # empty rows first, last and in a run: each still gets its bias entry
        rng = np.random.default_rng(12)
        X, Y = random_node(rng, 30, 12, m=5)
        X = X.tolil()
        for i in (0, 7, 8, 9, 29):
            X.rows[i], X.data[i] = [], []
        X = X.tocsr()
        got = train_node(X, Y, eps=1e-6, delta=0.01)
        want, infos = oracle_train_node(with_bias_column(X), Y, eps=1e-6, delta=0.01)
        assert got.newton_iters.tolist() == [i.n_newton_iters for i in infos]
        for a, b in zip(weights_of(got), want):
            assert a.w.indices.tolist() == b.w.indices.tolist()
            np.testing.assert_allclose(a.w.values, b.w.values, rtol=1e-6)
            assert a.bias == pytest.approx(b.bias, rel=1e-6)

    def test_ensemble_top5_matches_oracle_trained(self, monkeypatch):
        train, _ = grouped_dataset(31, n=300, groups=6, labels_per_group=5)
        test, _ = grouped_dataset(32, n=80, groups=6, labels_per_group=5)
        config = TrainConfig(n_trees=2, k=3, d_max=2, base_seed=4)
        report = TrainReport()
        ens = train_model(train, config, report)

        oracle_iters = []

        def oracle_node(X, Y, C, eps, delta):
            weights, infos = oracle_train_node(with_bias_column(X), Y, C, eps, delta,
                                               solver.MAX_NEWTON_ITERS)
            iters = np.array([i.n_newton_iters for i in infos], dtype=np.int64)
            oracle_iters.append(iters)
            cg = np.array([i.n_cg_iters for i in infos], dtype=np.int64)
            oracle_cg.append(cg)
            conv = np.array([i.converged for i in infos])
            pruned.append(sum(i.n_pruned for i in infos))
            return NodeSolve(*weights_block(weights, X.shape[1]), iters, cg, conv, pruned[-1],
                             False, np.zeros(len(iters), dtype=np.int64))

        def oracle_nodes(X, problems, C, eps, delta):
            return [oracle_node(tree.take_rows(X, rows), Y, C, eps, delta)
                    for Y, rows in problems]

        pruned, oracle_cg = [], []
        monkeypatch.setattr(tree, "train_nodes", oracle_nodes)
        ref_report = TrainReport()
        ref = train_model(train, config, ref_report)
        assert report.n_newton_iters == int(np.concatenate(oracle_iters).sum())
        assert report.n_cg_iters == int(np.concatenate(oracle_cg).sum()) > 0
        assert report.n_weights_pruned == ref_report.n_weights_pruned == sum(pruned) > 0
        assert report.n_weights_kept == ref_report.n_weights_kept > 0
        for a, b in zip(predict_batch(ens, test, k=5), predict_batch(ref, test, k=5)):
            assert a.labels.tolist() == b.labels.tolist()
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-5)


def in_feature_coordinates():
    """Solve every node in feature coordinates, whatever the rule picks."""
    return mock.patch.object(solver, "_in_instances", lambda n, nnz: False)


def weight_vector(w):
    return np.append(w.w.to_dense(), w.bias)


def assert_instance_path_matches(X, Y, C=1.0, eps=1e-6):
    """``train_node`` takes instance coordinates on ``X`` and matches the
    feature-coordinate path and the scalar oracle step for step."""
    got = train_node(X, Y, C=C, eps=eps)
    assert got.in_instances
    with in_feature_coordinates():
        feat = train_node(X, Y, C=C, eps=eps)
    oracle, infos = oracle_train_node(with_bias_column(X), Y, C=C, eps=eps)
    for sol in (got, feat):
        assert sol.newton_iters.tolist() == [i.n_newton_iters for i in infos]
        assert sol.cg_iters.tolist() == [i.n_cg_iters for i in infos]
        assert sol.converged.tolist() == [i.converged for i in infos]
    # (the count of pruned weights may differ: a weight that is exactly 0
    # on one path can be a rounding-level nonzero on the other)
    for a, b, c in zip(weights_of(got), weights_of(feat), oracle, strict=True):
        assert a.w.indices.tolist() == b.w.indices.tolist() == c.w.indices.tolist()
        assert relative_error(weight_vector(a), weight_vector(b)) <= INSTANCE_RTOL
        assert relative_error(weight_vector(a), weight_vector(c)) <= INSTANCE_RTOL
    return got


class TestInstanceCoordinates:
    """Nodes with n^2 <= 4 nnz are solved on one coefficient per instance;
    the trust-region iterates are the feature path's, so every count and
    the pruned support agree with it and with the scalar oracle."""

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 12),
        extra=st.integers(0, 40),
        m=st.integers(2, 6),
        eps=st.sampled_from([0.1, 1e-6]),
    )
    def test_matches_features_and_oracle(self, seed, n, extra, m, eps):
        rng = np.random.default_rng(seed)
        X, Y = random_node(rng, n, 4 * n + extra, m, density=0.3)
        if X.shape[0] ** 2 > 4 * (X.nnz + n):
            return  # too few nonzeros drawn for the rule to pick instances
        assert_instance_path_matches(X, Y, eps=eps)

    def test_ill_conditioned_columns_meet_gradient_test(self):
        # at C = 100 rounding differences grow through CG, so columns may
        # end elsewhere than the feature path; each must pass its own test
        rng = np.random.default_rng(14)
        eps = 1e-4
        for _ in range(5):
            X, Y = random_node(rng, 10, 60, m=6, density=0.3)
            Xc = with_bias_column(X)
            space = _Instances([(Xc @ Xc.T).toarray()], np.array([10]), np.zeros(6, dtype=int), 100.0)
            B, iters, conv, cg = _tron(space, Y, eps, 100)
            W = Xc.T @ B[:10]
            assert (cg >= iters).all()
            for j in range(6):
                p = BinaryProblem(Xc, Y[:, j], 100.0)
                g0 = np.linalg.norm(gradient(p, np.zeros(Xc.shape[1])))
                g = np.linalg.norm(gradient(p, W[:, j]))
                # the gradient norm is measured through K, so allow rounding
                if conv[j]:
                    assert g <= eps * g0 * (1 + 1e-6)
                else:
                    assert iters[j] == 100 and g > eps * g0 * (1 - 1e-6)
                assert objective(p, W[:, j]) < objective(p, np.zeros(Xc.shape[1]))

    def test_empty_node(self):
        sol = train_node(sp.csr_matrix((0, 4)), np.empty((0, 3), dtype=np.int8))
        assert sol.in_instances and sol.converged.all()
        assert sol.W.shape == (3, 4) and sol.W.nnz == 0 and not sol.bias.any()
        assert not sol.newton_iters.any() and not sol.cg_iters.any()

    def test_empty_node_of_several_chunks_is_packed(self, monkeypatch):
        # a node without rows has no bias row to solve alone with: its
        # chunks of one column each go into one batch
        monkeypatch.setattr(solver, "CHUNK_BYTES", 1)
        sol = train_node(sp.csr_matrix((0, 4)), np.empty((0, 3), dtype=np.int8))
        assert sol.batch.tolist() == [0, 0, 0] and sol.converged.all()
        assert sol.W.shape == (3, 4) and sol.W.nnz == 0 and not sol.bias.any()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_row(self, sign):
        X, t = one_point_node([1.0, 0.5, 0.0, 0.25])
        sol = assert_instance_path_matches(X, np.array([[sign]]))
        out = weights_of(sol)[0]
        np.testing.assert_allclose(out.w.values, sign * t * np.array([1.0, 0.5, 0.25]), rtol=1e-6)
        assert out.bias == pytest.approx(sign * t, rel=1e-6)

    def test_duplicate_rows(self):
        # K is singular: repeated rows, with equal and with opposite signs
        rng = np.random.default_rng(15)
        X, Y = random_node(rng, 8, 40, m=5, density=0.3)
        X = sp.csr_matrix(X[[0, 1, 2, 0, 3, 1, 4, 5, 6, 7, 0, 2]])
        Y = np.where(rng.random((12, 5)) < 0.4, 1, -1).astype(np.int8)
        Y[3, :] = -Y[0, :]
        assert np.linalg.matrix_rank(with_bias_column(X).toarray()) < 12
        assert_instance_path_matches(X, Y)

    def test_featureless_rows(self):
        rng = np.random.default_rng(16)
        X, Y = random_node(rng, 9, 45, m=4, density=0.3)
        X = X.tolil()
        for i in (0, 4, 5, 8):
            X.rows[i], X.data[i] = [], []
        assert_instance_path_matches(X.tocsr(), Y)
        # no features at all: every classifier is a bias alone
        sol = assert_instance_path_matches(sp.csr_matrix((3, 5)), Y[:3])
        assert sol.W.nnz == 0

    def test_all_negative_columns(self):
        rng = np.random.default_rng(17)
        X, Y = random_node(rng, 10, 50, m=4, density=0.3)
        Y[:, :3] = -1
        sol = assert_instance_path_matches(X, Y)
        assert sol.converged.all()

    def test_several_column_batches(self, monkeypatch):
        rng = np.random.default_rng(18)
        X, Y = random_node(rng, 10, 50, m=7, density=0.3)
        whole = assert_instance_path_matches(X, Y)
        # room for two columns per batch, a column holding 3n numbers in
        # the solve: four batches, the last of one.  Weights take n + f + 1
        # numbers a column, so they come one column at a time
        per_column = 8 * solver._ARRAYS_PER_COLUMN * 3 * 10
        monkeypatch.setattr(solver, "CHUNK_BYTES", 2 * per_column)
        assert per_column < 8 * solver._ARRAYS_PER_COLUMN * (10 + len(np.unique(X.indices)) + 1)
        spy = mock.Mock(wraps=_tron)
        monkeypatch.setattr(solver, "_tron", spy)
        dense = mock.Mock(wraps=solver._pruned)
        monkeypatch.setattr(solver, "_pruned", dense)
        chunked = assert_instance_path_matches(X, Y)
        assert [c.args[1].shape[1] for c in spy.call_args_list[:4]] == [2, 2, 2, 1]
        assert isinstance(spy.call_args_list[0].args[0], _Instances)
        assert [c.args[0].shape[1] for c in dense.call_args_list[:7]] == [1] * 7
        assert chunked.newton_iters.tolist() == whole.newton_iters.tolist()
        assert chunked.cg_iters.tolist() == whole.cg_iters.tolist()

    def test_wide_node_solves_in_one_batch(self, monkeypatch):
        """A node of many columns whose weights take several chunks solves
        in one ``_tron`` call, and gets bit for bit the classifiers of the
        same node forced into batches of one column."""
        rng = np.random.default_rng(21)
        X, Y = random_node(rng, 40, 3000, m=60, density=100 / 3000)
        f = len(np.unique(X.indices))
        step = solver.CHUNK_BYTES // (8 * solver._ARRAYS_PER_COLUMN * (40 + f + 1))
        assert 1 < step < 60 <= solver.CHUNK_BYTES // (8 * solver._ARRAYS_PER_COLUMN * 3 * 40)
        spy = mock.Mock(wraps=_tron)
        monkeypatch.setattr(solver, "_tron", spy)
        dense = mock.Mock(wraps=solver._pruned)
        monkeypatch.setattr(solver, "_pruned", dense)
        whole = train_node(X, Y)
        assert whole.in_instances and whole.W.nnz and whole.n_pruned
        assert spy.call_count == 1 and spy.call_args.args[1].shape[1] == 60
        assert not whole.batch.any()
        # its weights still take dense chunks of n + f + 1 numbers a column
        assert [c.args[0].shape[1] for c in dense.call_args_list] == [
            min(step, 60 - lo) for lo in range(0, 60, step)]
        monkeypatch.setattr(solver, "CHUNK_BYTES", 1)
        spy.reset_mock()
        ones = train_node(X, Y)
        assert spy.call_count == 60 and ones.batch.tolist() == list(range(60))
        assert ones.W.data.tobytes() == whole.W.data.tobytes()
        assert ones.W.indices.tobytes() == whole.W.indices.tobytes()
        assert ones.W.indptr.tobytes() == whole.W.indptr.tobytes()
        assert ones.bias.tobytes() == whole.bias.tobytes()
        assert ones.newton_iters.tolist() == whole.newton_iters.tolist()
        assert ones.cg_iters.tolist() == whole.cg_iters.tolist()
        assert ones.n_pruned == whole.n_pruned

    def test_rule_reads_the_node_counts(self, monkeypatch):
        spy = mock.Mock(wraps=_tron)
        monkeypatch.setattr(solver, "_tron", spy)
        rng = np.random.default_rng(19)
        # a root-shaped node: n^2 = 16e6 against 4 nnz = 1.8e6
        X = sp.random(4000, 5000, density=110 / 5000, random_state=rng, format="csr")
        Y = np.where(rng.random((4000, 1)) < 0.1, 1, -1).astype(np.int8)
        assert not train_node(X, Y).in_instances
        # a leaf-shaped node: n^2 = 900 against 4 nnz = 13,320
        X = sp.random(30, 2000, density=110 / 2000, random_state=rng, format="csr")
        assert train_node(X, Y[:30]).in_instances
        assert [type(c.args[0]) for c in spy.call_args_list] == [_Features, _Instances]

    def test_ensemble_takes_the_feature_paths_steps(self):
        ds, _ = grouped_dataset(33, n=300, groups=6, labels_per_group=5)
        # about 20 more features per row, so that nodes below the root
        # fall under the rule and the root does not
        rng = np.random.default_rng(34)
        noise = sp.random(ds.n, 200, density=0.1, random_state=rng, format="csr", dtype=np.float32)
        X = sp.hstack([ds.X, noise], format="csr")
        X.sort_indices()
        train = Dataset(X, ds.Y)
        config = TrainConfig(n_trees=2, k=3, d_max=2, base_seed=6)
        report, feat_report = TrainReport(), TrainReport()
        ens = train_model(train, config, report)
        with in_feature_coordinates():
            feat = train_model(train, config, feat_report)
        assert 0 < report.n_instance_nodes < report.n_nodes
        assert report.n_newton_iters == feat_report.n_newton_iters
        assert report.n_cg_iters == feat_report.n_cg_iters > report.n_newton_iters
        assert report.n_weights_kept == feat_report.n_weights_kept
        for a, b in zip(ens.trees, feat.trees, strict=True):
            assert same_csr_bits(tree_csr(a), tree_csr(b))
            np.testing.assert_allclose(a.bias, b.bias, rtol=1e-6, atol=1e-12)


NODE_KINDS = ["random", "empty", "one-row", "duplicate-rows", "featureless-rows",
              "no-features", "all-negative", "sparse-rows"]


def kind_node(rng, kind, n, d, m):
    """A small node of the given kind: rows over d features and signs.  A
    "sparse-rows" node has 13 + n rows and is solved in feature
    coordinates; every other kind is solved in instance coordinates."""
    if kind == "sparse-rows":
        return sparse_rows_node(rng, 13 + n, d, m)
    n = {"empty": 0, "one-row": 1}.get(kind, n)
    X, Y = random_node(rng, max(n, 2), d, max(m, 2), density=0.3)
    X, Y = X[:n], Y[:n, :m]
    if kind == "duplicate-rows":
        # rows repeated with signs drawn afresh, so equal or opposite: with
        # opposite signs a whole gradient can cancel
        X = X[rng.integers(0, max(n // 2, 1), n)]
    if kind == "featureless-rows":
        X = X.tolil()
        for i in range(0, n, 2):
            X.rows[i], X.data[i] = [], []
        X = X.tocsr()
    if kind == "no-features":
        X = sp.csr_matrix((n, d))
    if kind == "all-negative":
        Y = -np.ones((n, m), dtype=np.int8)
    return sp.csr_matrix(X), Y


def assert_same_solve(got, want):
    """``got`` is ``want``: the same counts, and weights and biases bit for
    bit.  (A looser bias test, zero-up-to-rounding biases within 1e-12,
    would be needed if a column's dot products depended on the columns
    sharing its batch; ``solver._coldot`` and ``solver._cols`` keep them
    from it.)"""
    assert got.newton_iters.tolist() == want.newton_iters.tolist()
    assert got.cg_iters.tolist() == want.cg_iters.tolist()
    assert got.converged.tolist() == want.converged.tolist()
    assert (got.in_instances, got.n_pruned) == (want.in_instances, want.n_pruned)
    assert same_csr_bits(got.W, want.W)
    assert got.bias.dtype == want.bias.dtype and got.bias.tobytes() == want.bias.tobytes()


def stacked(nodes):
    """The rows of the nodes (X, Y) as one matrix, the tree's form, and
    each node's problem over its rows of it."""
    ends = np.cumsum([X.shape[0] for X, _ in nodes])
    X = sp.vstack([X for X, _ in nodes], format="csr")
    return X, [(Y, np.arange(end - len(Y), end)) for (_, Y), end in zip(nodes, ends)]


class TestTrainNodes:
    """Nodes solved together, the instance-coordinate ones in shared padded
    batches, get the solve each gets alone: the same steps and counts, and
    the same float32 weights and biases bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 40])
    def test_sparse_rows_kind_takes_feature_coordinates(self, n):
        rng = np.random.default_rng(n)
        X, Y = kind_node(rng, "sparse-rows", n, 9, 2)
        assert len(Y) ** 2 > 4 * (X.nnz + len(Y))
        assert not train_node(X, Y).in_instances

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        nodes=st.lists(st.tuples(st.sampled_from(NODE_KINDS), st.integers(0, 40),
                                 st.integers(1, 6)), min_size=1, max_size=8),
        eps=st.sampled_from([0.1, 1e-6]),
    )
    def test_together_equals_alone(self, seed, nodes, eps):
        rng = np.random.default_rng(seed)
        d = 4 * max(n for _, n, _ in nodes) + 8
        nodes = [kind_node(rng, kind, n, d, m) for kind, n, m in nodes]
        alone = [train_node(X, Y, eps=eps) for X, Y in nodes]
        X, problems = stacked(nodes)
        together = train_nodes(X, problems, eps=eps)
        assert len(together) == len(alone)
        for got, want, (Xu, Y) in zip(together, alone, nodes):
            assert_same_solve(got, want)
            oracle, _ = oracle_train_node(with_bias_column(Xu), Y, eps=eps)
            for a, c in zip(weights_of(got), oracle, strict=True):
                assert relative_error(weight_vector(a), weight_vector(c)) <= INSTANCE_RTOL
        # every instance-coordinate node shares the one batch these fit in
        batches = {int(b) for sol in together if sol.in_instances for b in sol.batch}
        assert len(batches) <= 1

    def test_small_budget_splits_nodes_and_shares_batches(self, monkeypatch):
        rng = np.random.default_rng(20)
        big = random_node(rng, 12, 60, m=7, density=0.3)
        small = [random_node(rng, n, 60, m=m, density=0.05) for n, m in ((4, 3), (5, 2), (6, 2))]
        wide = sparse_rows_node(rng, 40, 60, m=3)
        nodes = [*small, wide, big]
        X, problems = stacked(nodes)
        whole = train_nodes(X, problems)

        def per_column(X, N):
            return 8 * solver._ARRAYS_PER_COLUMN * (N + len(np.unique(X.indices)) + 1)

        # room for two of the big node's weight columns, for the small nodes
        # together, and for one of the wide node's columns; in the solve a
        # column of the big node holds 3n numbers, so four fit
        budget = max(2 * per_column(big[0], 12) + 8 * 12 * 12,
                     sum(Y.shape[1] * per_column(X, 6) + 8 * len(Y) ** 2 for X, Y in small))
        assert budget < 3 * per_column(big[0], 12)
        assert per_column(wide[0], 40) <= budget < 2 * per_column(wide[0], 40)
        assert budget // (8 * solver._ARRAYS_PER_COLUMN * 3 * 12) == 4
        monkeypatch.setattr(solver, "CHUNK_BYTES", budget)
        spy = mock.Mock(wraps=_tron)
        monkeypatch.setattr(solver, "_tron", spy)
        gathered = mock.Mock(wraps=solver.take_rows)
        monkeypatch.setattr(solver, "take_rows", gathered)
        grams = mock.Mock(wraps=solver._gram_blocks)
        monkeypatch.setattr(solver, "_gram_blocks", grams)
        backs = mock.Mock(wraps=solver._back_projected)
        monkeypatch.setattr(solver, "_back_projected", backs)
        dense = mock.Mock(wraps=solver._pruned)
        monkeypatch.setattr(solver, "_pruned", dense)
        split = train_nodes(X, problems)
        assert [sol.in_instances for sol in split] == [True, True, True, False, True]
        # the wide node's columns span three batches, each that column alone,
        # and the big node's span two, four columns at most each
        assert len(set(split[3].batch.tolist())) == 3
        assert len(set(split[4].batch.tolist())) == 2
        assert np.bincount(split[4].batch).max() == 4
        # no batch of either mixes it with another node
        for u in (3, 4):
            others = np.concatenate([sol.batch for v, sol in enumerate(split) if v != u])
            assert not np.isin(split[u].batch, others).any()
        for b in split[3].batch:
            space, Y = spy.call_args_list[b].args[:2]
            assert isinstance(space, _Features) and Y.shape[1] == 1
        # each has its rows gathered, and its transpose or Gram matrix
        # built, once for all its batches
        rows = [c.args[1] for c in gathered.call_args_list]
        assert len(rows) == 3  # the wide node, the small nodes, the big node
        for u in (3, 4):
            assert sum(np.array_equal(r, problems[u][1]) for r in rows) == 1
        spaces = [spy.call_args_list[b].args[0] for b in np.unique(split[3].batch)]
        assert all(space.XT is spaces[0].XT for space in spaces)
        spaces = [spy.call_args_list[b].args[0] for b in np.unique(split[4].batch)]
        assert all(space.K is spaces[0].K for space in spaces)
        assert [c.args[1].tolist() for c in grams.call_args_list] == [[4, 5, 6], [12]]
        # and one batch holds every small node
        firsts = {int(sol.batch[0]) for sol in split[:3]}
        assert len(firsts) == 1
        assert max(len(c.args[0].K) for c in spy.call_args_list
                   if isinstance(c.args[0], _Instances)) == 3
        # the packed batch alone takes its weights from the sparse
        # back-projection; each batch of the wide and the big node, in
        # order, takes dense blocks of its own columns, two at most
        assert backs.call_count == 1 and backs.call_args.args[1].tolist() == [4, 5, 6]
        assert [c.args[0].shape[1] for c in dense.call_args_list] == [1, 1, 1, 2, 2, 2, 1]
        # one _tron call per batch
        batches = np.unique(np.concatenate([sol.batch for sol in split]))
        assert spy.call_count == len(batches) == batches.max() + 1
        for got, want, (Xu, Y) in zip(split, whole, nodes):
            assert_same_solve(got, want)
            assert_same_solve(got, train_node(Xu, Y))

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 9), min_size=1, max_size=6),
        density=st.sampled_from([0.0, 0.2, 0.6]),
    )
    def test_gram_blocks_are_each_nodes_own_product(self, seed, sizes, density):
        """One sparse product over the stacked, shifted rows gives each
        node's Gram matrix bit for bit, empty rows and featureless nodes
        included."""
        d = 9
        Xs = [random_csr(seed + s, n, d, density) for s, n in enumerate(sizes)]
        n = np.array(sizes, dtype=np.int64)
        A = solver._stacked_rows(sp.vstack(Xs, format="csr"), n, d)
        A, _ = compact_columns(A)
        blocks = solver._gram_blocks(A @ A.T, n)
        for X, K in zip(Xs, blocks, strict=True):
            Xc = with_bias_column(X)
            want = (Xc @ Xc.T).toarray()
            assert K.shape == want.shape and K.tobytes() == want.tobytes()


class TestDualityGap:
    """Each trained column's duality gap (``helpers.duality_gaps``), which
    bounds its distance from its own problem's optimum with no reference
    to the solver or its stop rule, on random nodes of 5-80 rows, 40
    features and 1-5 columns, at C of 1 and 10."""

    @staticmethod
    def node_gaps(eps, delta):
        for seed in range(20):
            rng = np.random.default_rng([seed, 16])
            n, m = int(rng.integers(5, 81)), int(rng.integers(1, 6))
            X, Y = random_node(rng, n, 40, 5)
            for C in (1.0, 10.0):
                sol = train_node(X, Y[:, :m], C=C, eps=eps, delta=delta)
                yield duality_gaps(X, Y[:, :m], sol.W, sol.bias, C)

    @pytest.mark.parametrize("eps, delta", [(0.1, 0.01), (1e-6, 0.0)])
    def test_weak_duality(self, eps, delta):
        """The gap is never negative, pruned or not, however early the
        columns stop."""
        gaps = np.concatenate(list(self.node_gaps(eps, delta)))
        assert len(gaps) > 40 and gaps.min() >= 0

    def test_tight_stop_closes_the_gap(self):
        """At eps = 1e-6 and no pruning every column's gap is at most 1e-6.
        The largest seen is 2.9e-7, on a column of one sign only, and
        other columns stay below 2e-8; at eps = 1e-8 every gap is below
        2e-10.  The default eps = 0.1 leaves a median gap of 6.3 here and
        a largest of 334, a bound that waits for the class-balanced stop
        test."""
        gaps = np.concatenate(list(self.node_gaps(1e-6, 0.0)))
        assert gaps.max() <= 1e-6


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-5
        for trial in range(20):
            n, d = int(rng.integers(5, 25)), int(rng.integers(2, 11))
            X = sp.csr_matrix(rng.normal(size=(n, d)))
            s = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            p = BinaryProblem(X, s, C=float(rng.uniform(0.1, 10)))
            while True:
                w = rng.normal(size=d)
                xi = 1.0 - s * (X @ w)
                if np.min(np.abs(xi)) > 1e-3:
                    break
            g = gradient(p, w)
            g_fd = np.empty(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                g_fd[j] = (objective(p, w + e) - objective(p, w - e)) / (2 * h)
            np.testing.assert_allclose(g, g_fd, rtol=1e-4, atol=1e-7)

    def test_gradient_at_zero(self):
        X = csr([[1.0, 2.0], [0.0, 1.0]])
        s = np.array([1.0, -1.0])
        p = BinaryProblem(X, s, C=3.0)
        expected = -2.0 * p.C * (X.T @ s)
        np.testing.assert_allclose(gradient(p, np.zeros(2)), np.asarray(expected).ravel())


def one_point_node(x, c=1.0):
    """A one-row node with features ``x``.  With its bias, the optimum is
    (w, bias) = t * (x, 1) with t = c / (1 + c * (|x|^2 + 1))."""
    X = csr([x])
    t = c / (1.0 + c * (np.dot(x, x) + 1.0))
    return X, t


class TestFinalize:
    def test_prunes_and_casts(self):
        X, t = one_point_node([1.0, 0.01, 0.06, 0.0])
        out = weights_of(train_node(X, np.array([[1]]), eps=1e-10, delta=0.01))[0]
        # t * 0.01 <= delta is pruned, t * 0.06 and t * 1.0 stay
        assert t * 0.06 > 0.01
        assert out.w.indices.tolist() == [0, 2]
        assert out.w.dim == 4
        assert out.w.values.dtype == np.float32
        np.testing.assert_allclose(out.w.values, [t, 0.06 * t], rtol=1e-6)
        assert out.bias == pytest.approx(t, rel=1e-6)

    def test_bias_never_pruned(self):
        X, t = one_point_node([1.0, 0.5])
        out = weights_of(train_node(X, np.array([[1]]), eps=1e-10, delta=1.0))[0]
        assert out.w.nnz == 0
        assert out.bias == pytest.approx(t, rel=1e-6)

    def test_zero_delta_identity_support(self):
        X, t = one_point_node([1.0, 1e-7])
        out = weights_of(train_node(X, np.array([[1]]), eps=1e-10, delta=0.0))[0]
        assert out.w.indices.tolist() == [0, 1]

    def test_weight_rounding_to_a_float32_zero_is_dropped(self):
        # two features and the bias row, two columns: at delta = 0 a weight
        # of 1e-50 passes |w| > delta but is a float32 zero, so it is
        # dropped and counted as pruned
        W = np.array([[0.5, 1e-50], [1e-50, 0.0], [2.0, -3.0]])
        P, bias, pruned = solver._pruned(W, np.array([3, 7], dtype=np.int32), 10, 0.0)
        assert P.shape == (2, 10) and P.dtype == np.float32
        assert P.indptr.tolist() == [0, 1, 1] and P.indices.tolist() == [3]
        assert P.data.tolist() == [0.5] and bias.tolist() == [2.0, -3.0]
        assert pruned == 2

    def test_negative_delta_rejected(self):
        X, _ = one_point_node([1.0])
        with pytest.raises(ValueError):
            train_node(X, np.array([[1]]), delta=-1.0)

    def test_empty_node_gives_zero_classifiers(self):
        X = sp.csr_matrix((0, 3))
        sol = train_node(X, np.empty((0, 2), dtype=np.int8))
        assert [(w.w.nnz, w.bias, w.w.dim) for w in weights_of(sol)] == [(0, 0.0, 3)] * 2
        assert sol.converged.all() and not sol.newton_iters.any()


class TestCompactColumnsAgainstOracle:
    """``compact_columns`` gives the arrays, dtypes, shape and column ids of
    the ``np.unique`` renumbering it replaced, on A's own data and indptr."""

    @staticmethod
    def check(A):
        got, cols = compact_columns(A)
        want, want_cols = compact_columns_oracle(A)
        assert got.shape == want.shape
        for a, b in [(got.data, want.data), (got.indices, want.indices),
                     (got.indptr, want.indptr), (cols, want_cols)]:
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert cols.dtype == A.indices.dtype
        if A.indptr.dtype == got.indptr.dtype:
            assert np.shares_memory(got.indptr, A.indptr)
            assert not A.nnz or np.shares_memory(got.data, A.data)

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
        d=st.integers(1, 10),
        density=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        empty_cols=st.sampled_from([0.0, 0.3, 0.7]),
        dtype=st.sampled_from([np.float64, np.float32]),
    )
    def test_matches_oracle(self, seed, n, d, density, empty_cols, dtype):
        self.check(random_csr(seed, n, d, density, empty_cols=empty_cols).astype(dtype))

    @pytest.mark.parametrize("shape", [(0, 5), (4, 5), (3, 0)])
    def test_all_empty(self, shape):
        A = sp.csr_matrix(shape)
        self.check(A)
        assert compact_columns(A)[0].shape == (shape[0], 0)

    def test_int64_index_arrays(self):
        A = random_csr(4, 9, 12, density=0.3, empty_cols=0.4)
        A.indices, A.indptr = A.indices.astype(np.int64), A.indptr.astype(np.int64)
        self.check(A)


class TestBiasFeatureAgainstOracle:
    """A node's rows as every batch builds them for one node,
    ``compact_columns(_stacked_rows(X, [n], d))``, are bit for bit the
    arrays of that build's first form (``np.unique``, ``searchsorted`` and
    two ``np.insert`` calls), with the feature ids ``cols[:-1]`` and the
    bias column last.  A node without rows has no columns, not even its
    bias."""

    @staticmethod
    def check(X):
        n, d = X.shape
        A, cols = compact_columns(_stacked_rows(X, np.array([n]), d))
        if n == 0:
            assert A.shape == (0, 0) and len(cols) == 0
            return
        want, want_feats = with_bias_feature_oracle(X.astype(np.float64))
        assert same_csr_bits(A, want)
        np.testing.assert_array_equal(cols[:-1], want_feats)
        assert cols[-1] == d

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 12),
        d=st.integers(1, 10),
        density=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
    )
    def test_matches_oracle(self, seed, n, d, density):
        self.check(random_csr(seed, n, d, density))

    def test_empty_node(self):
        self.check(sp.csr_matrix((0, 5)))

    def test_rows_without_features(self):
        self.check(random_csr(1, 6, 8, density=0.0))
        self.check(sp.csr_matrix(np.array([[0.0, 0.0], [0.0, 2.5], [0.0, 0.0]])))

    def test_every_feature_of_d(self):
        X = random_csr(2, 7, 9, density=1.0, empty_rows=0.0)
        assert len(np.unique(X.indices)) == 9
        self.check(X)

    def test_float32_rows_are_widened_exactly(self):
        # the solve is in float64, which holds every float32 value
        X = random_csr(3, 8, 6, density=0.4).astype(np.float32)
        self.check(X)
        assert _stacked_rows(X, np.array([8]), 6).dtype == np.float64


class TestValidation:
    def test_sign_values_checked(self):
        with pytest.raises(ValueError):
            BinaryProblem(csr([[1.0]]), np.array([0.5]))
        with pytest.raises(ValueError):
            train_node(csr([[1.0, 1.0]]), np.array([[0]]))

    def test_c_positive(self):
        with pytest.raises(ValueError):
            BinaryProblem(csr([[1.0]]), np.array([1.0]), C=0.0)
        with pytest.raises(ValueError):
            train_node(csr([[1.0, 1.0]]), np.array([[1]]), C=0.0)

    def test_row_sign_count_match(self):
        with pytest.raises(ValueError):
            BinaryProblem(csr([[1.0], [2.0]]), np.array([1.0]))

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            train_binary(one_point_problem(1.0), eps=0.0)
        with pytest.raises(ValueError):
            train_node(csr([[1.0, 1.0]]), np.array([[1]]), eps=0.0)

    def test_rows_must_be_csr(self):
        with pytest.raises(TypeError):
            train_node(np.ones((2, 2)), np.array([[1], [-1]]))
        with pytest.raises(TypeError):
            BinaryProblem(sp.csc_matrix(np.ones((1, 1))), np.array([1.0]))

    def test_sign_matrix_shape_checked(self):
        X = csr([[1.0, 1.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            train_node(X, np.array([[1]]))
        with pytest.raises(ValueError):
            train_node(X, np.array([1, -1]))
        for n in (0, 2):
            with pytest.raises(ValueError, match="m >= 1"):
                train_node(sp.csr_matrix((n, 2)), np.ones((n, 0), dtype=np.int8))


def test_peak_memory_bounded():
    """A node the size of the eurlex root: 4,000 unit rows of about 110
    nonzeros over 5,000 features, and 12 columns in three batches."""
    # traced peaks of this run: 14.69 MB when the bias column was added
    # with two np.insert calls and each batch went through a dense-to-CSR
    # step before its features were renumbered back; 14.59 MB with the
    # arrays built in place; 15.09 MB if a batch's dense pruned block and
    # its nonzero ids live on through the next batch's solve; 14.36 MB
    # until each Newton step freed its margins' slacks before CG, 14.20 MB
    # after
    rng = np.random.default_rng(0)
    X = sp.random(4000, 5000, density=110 / 5000, random_state=rng, format="csr")
    X.data = rng.random(X.nnz) + 0.1
    X = sp.csr_matrix(sp.diags(1 / np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())) @ X)
    S = X @ rng.normal(size=(5000, 12))
    Y = np.where(S > np.quantile(S, 0.9, axis=0), 1, -1).astype(np.int8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sol = train_node(X, Y, C=1.0, eps=0.1, delta=0.001)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.W.nnz and sol.n_pruned
    assert peak <= 14.70e6


def test_instance_coordinates_peak_memory_bounded():
    """The largest node the bench's eurlex trees solve in instance
    coordinates: 379 unit rows of about 100 nonzeros over 5,000 features,
    and 30 columns in one batch, whose weights take four chunks."""
    # traced peaks of this run: 3.92 MB with the columns in four batches,
    # of which the 379 x 379 Gram matrix is 1.15 MB; 4.03 MB in one batch,
    # 3.95 MB once each Newton step frees its margins' slacks before CG;
    # 5.90 MB when the node is solved in feature coordinates
    rng = np.random.default_rng(1)
    X = sp.random(379, 5000, density=99 / 5000, random_state=rng, format="csr")
    X.data = rng.random(X.nnz) + 0.1
    X = sp.csr_matrix(sp.diags(1 / np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())) @ X)
    S = X @ rng.normal(size=(5000, 30))
    Y = np.where(S > np.quantile(S, 0.9, axis=0), 1, -1).astype(np.int8)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sol = train_node(X, Y, C=1.0, eps=0.1, delta=0.001)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.in_instances and sol.W.nnz and sol.n_pruned
    assert peak <= 4.00e6
