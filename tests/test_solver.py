import numpy as np
import pytest
import scipy.sparse as sp

from labelforest import solver, tree
from labelforest.predict import predict_batch
from labelforest.solver import NodeSolve, _tron, _trcg, train_node
from labelforest.tree import TrainConfig, TrainReport, train_ensemble

from conftest import grouped_dataset
from helpers import row_weights, weights_block, with_bias_column
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


def random_biased_node(rng, n, d, m):
    """``random_node`` with the bias column appended, for ``_tron`` and the
    scalar oracle, which solve over every column they are given."""
    X, Y = random_node(rng, n, d, m)
    return with_bias_column(X), Y


def relative_error(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def tron(X, Y, C, eps, max_newton_iters=100):
    return _tron(X, X.T.tocsr(), Y, C, eps, max_newton_iters)


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
        S, R = _trcg(X, XT, act, 1.0, G, delta, 0.1 * gnorm)
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
        ens = train_ensemble(train, config, report)

        oracle_iters = []

        def oracle_node(X, Y, C, eps, delta):
            weights, infos = oracle_train_node(with_bias_column(X), Y, C, eps, delta,
                                               solver.MAX_NEWTON_ITERS)
            iters = np.array([i.n_newton_iters for i in infos], dtype=np.int64)
            oracle_iters.append(iters)
            conv = np.array([i.converged for i in infos])
            pruned.append(sum(i.n_pruned for i in infos))
            return NodeSolve(*weights_block(weights, X.shape[1]), iters, conv, pruned[-1])

        pruned = []
        monkeypatch.setattr(tree, "train_node", oracle_node)
        ref_report = TrainReport()
        ref = train_ensemble(train, config, ref_report)
        assert report.n_newton_iters == int(np.concatenate(oracle_iters).sum())
        assert report.n_weights_pruned == ref_report.n_weights_pruned == sum(pruned) > 0
        assert report.n_weights_kept == ref_report.n_weights_kept > 0
        for a, b in zip(predict_batch(ens, test, k=5), predict_batch(ref, test, k=5)):
            assert a.labels.tolist() == b.labels.tolist()
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-5)


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

    def test_negative_delta_rejected(self):
        X, _ = one_point_node([1.0])
        with pytest.raises(ValueError):
            train_node(X, np.array([[1]]), delta=-1.0)

    def test_empty_node_gives_zero_classifiers(self):
        X = sp.csr_matrix((0, 3))
        sol = train_node(X, np.empty((0, 2), dtype=np.int8))
        assert [(w.w.nnz, w.bias, w.w.dim) for w in weights_of(sol)] == [(0, 0.0, 3)] * 2
        assert sol.converged.all() and not sol.newton_iters.any()


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
