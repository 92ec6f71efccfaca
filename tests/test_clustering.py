import numpy as np
import pytest
import scipy.sparse as sp

from labelforest import clustering
from labelforest.clustering import Partition, _assign, _update, kmeans_partition
from labelforest.sparse import SparseVec
from helpers import csr_from_rows, l2_normalize, vec_from_pairs


def vec(pairs, dim):
    return vec_from_pairs(pairs, dim, dtype=np.float64)


def csr(vecs) -> sp.csr_matrix:
    """The float64 CSR matrix with one row per vector."""
    return csr_from_rows(vecs, vecs[0].dim)


def unit_vecs(seed, n, dim):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        out.append(SparseVec(np.arange(dim), v, dim))
    return out


def brute_objective(vecs, centers, assignments):
    total = 0.0
    for v, a in zip(vecs, assignments):
        total += 1.0 - float(np.dot(v.to_dense(), centers[a]))
    return total


class TestAssignStep:
    def test_member_on_center(self):
        c = np.array([[1.0, 0.0], [0.0, 1.0]])
        a, obj = _assign(csr([vec([(0, 1.0)], 2)]), c)
        assert a.tolist() == [0]
        assert obj == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_tie_goes_to_lowest_id(self):
        c = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        a, obj = _assign(csr([vec([(2, 1.0)], 3)]), c)
        assert a.tolist() == [0]
        assert obj == pytest.approx(1.0)

    def test_matches_exhaustive_distance_table(self):
        vecs = unit_vecs(5, 5, 4)
        centers = np.vstack([v.to_dense() for v in unit_vecs(6, 2, 4)])
        a, obj = _assign(csr(vecs), centers)
        dists = np.array(
            [[1.0 - np.dot(v.to_dense(), c) for c in centers] for v in vecs]
        )
        np.testing.assert_array_equal(a, dists.argmin(axis=1))
        assert obj == pytest.approx(dists.min(axis=1).sum(), abs=1e-12)

    def test_empty_centers_rejected(self):
        with pytest.raises(ValueError):
            _assign(csr([vec([(0, 1.0)], 1)]), np.zeros((0, 1)))


class TestUpdateStep:
    def test_single_member_center_is_member(self):
        v = l2_normalize(vec([(0, 1.0), (1, 1.0)], 2))
        centers = _update(csr([v]), np.array([0]), 2)
        np.testing.assert_allclose(centers[0], v.to_dense(), atol=1e-12)

    def test_zero_mean_cluster_reseeds(self):
        vecs = [vec([(0, 1.0)], 2), vec([(0, -1.0)], 2)]
        centers = _update(csr(vecs), np.array([0, 0]), 2)
        norms = np.linalg.norm(centers, axis=1)
        assert norms[0] == pytest.approx(1.0)

    def test_empty_cluster_takes_worst_fit_member(self):
        # two tight groups assigned to one cluster; cluster 1 empty
        vecs = [
            vec([(0, 1.0)], 3),
            vec([(0, 1.0)], 3),
            vec([(2, 1.0)], 3),
        ]
        centers = _update(csr(vecs), np.array([0, 0, 0]), 2)
        # the outlier (index 2) is farthest from the shared mean
        np.testing.assert_allclose(centers[1], [0.0, 0.0, 1.0], atol=1e-9)

    def test_matches_dense_mean_normalize_oracle(self):
        vecs = unit_vecs(7, 12, 6)
        rng = np.random.default_rng(8)
        a = rng.integers(0, 3, size=12)
        a[:3] = [0, 1, 2]  # keep every cluster populated
        centers = _update(csr(vecs), a, 3)
        dense = np.vstack([v.to_dense() for v in vecs])
        for k in range(3):
            mean = dense[a == k].mean(axis=0)
            np.testing.assert_allclose(
                centers[k], mean / np.linalg.norm(mean), atol=1e-9
            )


def update_full_scores(V, assignments, K):
    """The dead-cluster reseeding as first written: score every row against
    every center, then read each row's own-center score."""
    n = V.shape[0]
    ind = sp.csr_matrix((np.ones(n), assignments, np.arange(n + 1)), shape=(n, K))
    sums = np.asarray((ind.T @ V).todense())
    counts = np.bincount(assignments, minlength=K).astype(np.float64)
    means = sums / np.maximum(counts, 1.0)[:, None]
    centers = clustering._normalize_rows_dense(means)
    dead = np.nonzero((counts == 0) | (np.linalg.norm(means, axis=1) == 0))[0]
    if len(dead):
        scores = V @ centers.T
        fit = 1.0 - scores[np.arange(n), assignments]
        order = np.lexsort((np.arange(n), -fit))
        for k, member in zip(dead, order):
            row = np.asarray(V.getrow(member).todense()).ravel()
            centers[k] = clustering._normalize_rows_dense(row[None, :])[0]
    return centers


class TestOwnCenterScores:
    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_dead_clusters_match_full_score_formula(self, monkeypatch, block):
        # blocks of one row, of a few rows, and all rows at once
        monkeypatch.setattr(clustering, "_SCORE_BLOCK_NNZ", block)
        rng = np.random.default_rng(11)
        for trial in range(10):
            n, dim, K = 40, 30, 9
            V = sp.random(n, dim, density=0.2, random_state=rng, format="csr")
            V.data = rng.normal(size=V.nnz)
            a = rng.integers(0, 5, size=n)  # clusters 5..8 are dead
            a[:5] = np.arange(5)
            got = clustering._update(V, a, K)
            np.testing.assert_array_equal(got, update_full_scores(V, a, K))

    def test_scores_equal_dense_diagonal(self):
        rng = np.random.default_rng(12)
        V = sp.random(25, 12, density=0.3, random_state=rng, format="csr")
        centers = rng.normal(size=(4, 12))
        a = rng.integers(0, 4, size=25)
        full = V @ centers.T
        np.testing.assert_array_equal(
            clustering._own_scores(V, centers, a), full[np.arange(25), a]
        )


class TestKmeansPartition:
    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            kmeans_partition(csr(unit_vecs(0, 3, 2)), K=1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans_partition(sp.csr_matrix((0, 3)), K=2)

    def test_singleton_clusters_no_iteration(self):
        vecs = unit_vecs(1, 3, 4)
        part = kmeans_partition(csr(vecs), K=3, seed=0)
        assert part.assignments.tolist() == [0, 1, 2]
        assert part.n_iters_run == 0
        assert part.final_objective == pytest.approx(0.0, abs=1e-9)
        for i, v in enumerate(vecs):
            np.testing.assert_allclose(part.centers[i], v.to_dense(), atol=1e-12)

    def test_fewer_vectors_than_k(self):
        part = kmeans_partition(csr(unit_vecs(2, 2, 3)), K=4, seed=0)
        assert part.assignments.tolist() == [0, 1]
        assert part.centers.shape == (4, 3)

    def test_identical_points_collapse_to_one_cluster(self):
        v = l2_normalize(vec([(0, 1.0), (1, 2.0)], 3))
        part = kmeans_partition(csr([v] * 4), K=2, seed=3)
        sizes = np.bincount(part.assignments, minlength=2)
        assert sorted(sizes.tolist()) == [0, 4]
        assert part.final_objective == pytest.approx(0.0, abs=1e-9)
        # unbalanced result is preserved, not evened out
        assert abs(int(sizes[0]) - int(sizes[1])) > 1

    def test_objective_non_increasing_against_brute_force(self):
        vecs = unit_vecs(9, 20, 8)
        rng = np.random.default_rng(10)
        picks = rng.choice(20, size=4, replace=False)
        centers = np.vstack([vecs[i].to_dense() for i in picks])
        objs = []
        for _ in range(10):
            a, obj = _assign(csr(vecs), centers)
            assert obj == pytest.approx(brute_objective(vecs, centers, a), abs=1e-9)
            objs.append(obj)
            centers = _update(csr(vecs), a, 4)
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-9)

    def test_partition_is_disjoint_cover(self):
        vecs = unit_vecs(11, 25, 5)
        part = kmeans_partition(csr(vecs), K=4, seed=12)
        assert np.all((part.assignments >= 0) & (part.assignments < 4))
        union = np.concatenate([part.members(k) for k in range(4)])
        assert sorted(union.tolist()) == list(range(25))

    def test_deterministic_per_seed(self):
        vecs = unit_vecs(13, 30, 6)
        p1 = kmeans_partition(csr(vecs), K=3, seed=99)
        p2 = kmeans_partition(csr(vecs), K=3, seed=99)
        assert p1.assignments.tolist() == p2.assignments.tolist()
        np.testing.assert_array_equal(p1.centers, p2.centers)

    def test_nonempty_centers_are_unit_norm(self):
        vecs = unit_vecs(15, 40, 7)
        part = kmeans_partition(csr(vecs), K=5, seed=6)
        for k in range(5):
            if len(part.members(k)):
                assert np.linalg.norm(part.centers[k]) == pytest.approx(1.0, abs=1e-6)
