import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import clustering
from labelforest.clustering import _update, kmeans_partition
from helpers import (
    SparseVec,
    csr_from_rows,
    identity_pair,
    l2_normalize,
    random_csr,
    vec_from_pairs,
)
from kmeans_oracle import kmeans_partition_full


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
    """Each round assigns every row to its best-scoring center, read from
    that round's ``V @ centers.T``."""

    def test_member_on_center(self):
        V = csr([vec([(0, 1.0)], 2), vec([(0, 1.0)], 2), vec([(1, 1.0)], 2)])
        part = kmeans_partition(identity_pair(V), K=2, seed=0)
        own = (V @ part.centers.T)[np.arange(3), part.assignments]
        np.testing.assert_allclose(own, 1.0, atol=1e-12)
        assert part.final_objective == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_tie_goes_to_lowest_id(self):
        # a label with no instances has a zero row, which scores 0 against
        # every center
        pairs = [[(0, 1.0)], [(0, 1.0)], [(1, 1.0)], [(1, 1.0)], []]
        for seed in range(4):
            part = kmeans_partition(identity_pair(csr([vec(p, 3) for p in pairs])), K=2, seed=seed)
            assert part.assignments[4] == 0

    def test_matches_exhaustive_distance_table(self):
        vecs = unit_vecs(5, 12, 4)
        part = kmeans_partition(identity_pair(csr(vecs)), K=3, seed=1)
        # converged, so the assignments come from the returned centers
        assert part.n_iters_run < clustering.MAX_ITERS
        dists = np.array(
            [[1.0 - np.dot(v.to_dense(), c) for c in part.centers] for v in vecs]
        )
        np.testing.assert_array_equal(part.assignments, dists.argmin(axis=1))
        assert part.final_objective == pytest.approx(dists.min(axis=1).sum(), abs=1e-12)

    def test_empty_centers_rejected(self):
        with pytest.raises(ValueError):
            kmeans_partition(identity_pair(csr(unit_vecs(0, 3, 2))), K=0)


class TestUpdateStep:
    def test_single_member_center_is_member(self):
        v = l2_normalize(vec([(0, 1.0), (1, 1.0)], 2))
        centers, _, _ = _update(identity_pair(csr([v])), np.array([0]), 2)
        np.testing.assert_allclose(centers[0], v.to_dense(), atol=1e-12)

    def test_zero_mean_cluster_reseeds(self):
        vecs = [vec([(0, 1.0)], 2), vec([(0, -1.0)], 2)]
        centers, _, _ = _update(identity_pair(csr(vecs)), np.array([0, 0]), 2)
        norms = np.linalg.norm(centers, axis=1)
        assert norms[0] == pytest.approx(1.0)

    def test_empty_cluster_takes_worst_fit_member(self):
        # two tight groups assigned to one cluster; cluster 1 empty
        vecs = [
            vec([(0, 1.0)], 3),
            vec([(0, 1.0)], 3),
            vec([(2, 1.0)], 3),
        ]
        centers, _, _ = _update(identity_pair(csr(vecs)), np.array([0, 0, 0]), 2)
        # the outlier (index 2) is farthest from the shared mean
        np.testing.assert_allclose(centers[1], [0.0, 0.0, 1.0], atol=1e-9)

    def test_rescore_in_place_reads_a_dead_cluster_as_worst_fit(self):
        # cluster 0 = {e0, -e0} has a zero mean; the last round's column 0
        # scored it against its seed e0, which is not its members' fit now.
        # It was dead, so it is stale though no member moved
        pairs = [[(0, 1.0)], [(0, -1.0)], [(1, 1.0)], [(1, 1.0)], [(2, 1.0)]]
        V, a = csr([vec(p, 3) for p in pairs]), np.array([0, 0, 1, 1, 2])
        want_centers, want_scores, want_dead = _update(identity_pair(V), a, 3)
        assert want_dead.tolist() == [True, False, False]
        centers, scores, dead = _update(identity_pair(V), a, 3, want_centers.copy(),
                                        want_scores.copy(), want_dead)
        assert centers.tobytes() == want_centers.tobytes()
        assert scores.tobytes() == want_scores.tobytes()
        assert dead.tolist() == want_dead.tolist()

    def test_matches_dense_mean_normalize_oracle(self):
        vecs = unit_vecs(7, 12, 6)
        rng = np.random.default_rng(8)
        a = rng.integers(0, 3, size=12)
        a[:3] = [0, 1, 2]  # keep every cluster populated
        centers, _, _ = _update(identity_pair(csr(vecs)), a, 3)
        dense = np.vstack([v.to_dense() for v in vecs])
        for k in range(3):
            mean = dense[a == k].mean(axis=0)
            np.testing.assert_allclose(
                centers[k], mean / np.linalg.norm(mean), atol=1e-9
            )


def normalize_rows(m):
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def update_full_scores(V, assignments, K):
    """The dead-cluster reseeding as first written: score every row against
    every center, read each row's own-center score, and after reseeding
    score every row against every center again."""
    n = V.shape[0]
    ind = sp.csr_matrix((np.ones(n), assignments, np.arange(n + 1)), shape=(n, K))
    sums = np.asarray((ind.T @ V).todense())
    counts = np.bincount(assignments, minlength=K).astype(np.float64)
    means = sums / np.maximum(counts, 1.0)[:, None]
    centers = normalize_rows(means)
    dead = np.nonzero((counts == 0) | (np.linalg.norm(means, axis=1) == 0))[0]
    if len(dead):
        scores = V @ centers.T
        fit = 1.0 - scores[np.arange(n), assignments]
        order = np.lexsort((np.arange(n), -fit))
        for k, member in zip(dead, order):
            row = np.asarray(V.getrow(member).todense()).ravel()
            centers[k] = normalize_rows(row[None, :])[0]
    return centers, V @ centers.T


class TestOwnCenterScores:
    @pytest.mark.parametrize("seed", [1, 7, 1 << 16])
    def test_dead_clusters_match_full_score_formula(self, seed):
        # three independent draws of ten trials each
        rng = np.random.default_rng(seed)
        for trial in range(10):
            n, dim, K = 40, 30, 9
            V = sp.random(n, dim, density=0.2, random_state=rng, format="csr")
            V.data = rng.normal(size=V.nnz)
            a = rng.integers(0, 5, size=n)  # clusters 5..8 are dead
            a[:5] = np.arange(5)
            centers, scores, _ = _update(identity_pair(V), a, K)
            want_centers, want_scores = update_full_scores(V, a, K)
            np.testing.assert_array_equal(centers, want_centers)
            np.testing.assert_array_equal(scores, want_scores)


def pinned_input(seed, zero_rows=0):
    """90 unit rows, each a copy of one of 14 random sparse vectors, so
    that k-means with K = 10 meets empty clusters; ``zero_rows`` random
    rows are zero instead, like the rows of labels with no instance."""
    rng = np.random.default_rng(seed)
    pool = sp.random(14, 20, density=0.3, random_state=rng, format="csr")
    pool.data = rng.normal(size=pool.nnz)
    V = pool[rng.integers(0, 14, size=90)]
    norms = np.sqrt(np.asarray(V.multiply(V).sum(axis=1)).ravel())
    scale = 1 / np.where(norms == 0, 1, norms)
    scale[rng.choice(90, size=zero_rows, replace=False)] = 0
    return sp.csr_matrix(sp.diags(scale) @ V)


class TestPinnedOutput:
    """``kmeans_partition``'s exact output, recorded when the reseeding
    scored rows with a blocked ``bincount`` kernel of its own: sha256 of the
    assignments' and the centers' bytes, rounds run and final objective."""

    @pytest.mark.parametrize("seed, max_iters, zero_rows, assign_sha, center_sha, iters, objective", [
        (40, 50, 0, "b77d74e2e3260f6739526d7c97fa86cbebea4c7079cf930b1fb84a7ed59b2066",
         "c5094f29bd59ebed19999b48977a2201f99e35e943fa174d785333a82ab88b0e",
         7, 10.868222967689903),
        # centers re-recorded when a run stopped by MAX_ITERS stopped
        # returning the centers of one more, unread update
        (45, 3, 0, "ab9a1d5496900be508668a29b426faaf3984b1f2ffd1aa7d764f6f7a05c139fb",
         "4b04b8ecb6be1a7a60ab957b47af49c45e88b278c7cac79f921457490bc8845d",
         3, 20.42456815537546),
        # 14 of 90 rows zero: they fit every center worst, so they reseed
        # the dead clusters, which stay dead every round
        (52, 50, 14, "b91ef04a0c7ae23ee4e2382b27cff49024a18740cfe1d7fb73960d7534146f7e",
         "b542114154a5d530cf7f6baf150c4a83f70ebbcc4a88f1a2f2f17e744e8f6f9d",
         4, 33.127342816484784),
    ], ids=["reseeds", "max-iters", "zero-rows"])
    def test_matches_recorded_digests(
        self, monkeypatch, seed, max_iters, zero_rows, assign_sha, center_sha, iters, objective
    ):
        monkeypatch.setattr(clustering, "MAX_ITERS", max_iters)
        dead_rounds = []

        def spy(V, assignments, K, *args):
            dead_rounds.append(np.bincount(assignments, minlength=K).min() == 0)
            return _update(V, assignments, K, *args)

        monkeypatch.setattr(clustering, "_update", spy)
        part = kmeans_partition(identity_pair(pinned_input(seed, zero_rows)), K=10, seed=seed)
        assert any(dead_rounds)
        assert part.assignments.dtype == np.int64
        assert hashlib.sha256(part.assignments.tobytes()).hexdigest() == assign_sha
        assert hashlib.sha256(part.centers.tobytes()).hexdigest() == center_sha
        assert part.n_iters_run == iters
        assert part.final_objective == objective


def test_max_iters_run_returns_the_centers_it_assigned_to(monkeypatch):
    """A run stopped by MAX_ITERS returns the centers its last assignment
    was made against: every row sits in its best-scoring returned center
    (ties to the lowest id), with no update after the last assignment."""
    monkeypatch.setattr(clustering, "MAX_ITERS", 3)
    updates = []

    def spy(V, assignments, K, *args):
        updates.append(K)
        return _update(V, assignments, K, *args)

    monkeypatch.setattr(clustering, "_update", spy)
    V = pinned_input(45)
    part = kmeans_partition(identity_pair(V), K=10, seed=45)
    assert part.n_iters_run == 3 and len(updates) == 2
    np.testing.assert_array_equal(np.argmax(V @ part.centers.T, axis=1), part.assignments)


class TestIncrementalRoundsAgainstFullRecompute:
    """An update rescores only the clusters that gained or lost a member and
    the dead ones; every partition must equal, bit for bit, that of the full
    recompute every round (``kmeans_oracle.kmeans_partition_full``)."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        K=st.integers(2, 12),
        extra=st.integers(1, 40),
        d=st.integers(1, 12),
        density=st.sampled_from([0.15, 0.5, 1.0]),
        distinct=st.sampled_from([0.2, 0.5, 1.0]),
        zero_rows=st.sampled_from([0.0, 0.15, 0.5]),
        max_iters=st.sampled_from([3, 50]),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_matches_full_recompute(
        self, seed, K, extra, d, density, distinct, zero_rows, max_iters, dtype
    ):
        # normal values, so negative ones; rows copied from a pool, so
        # duplicates; K + 1 rows at the least, so K near n
        n = K + extra
        pool = random_csr(seed, max(1, int(distinct * n)), d, density, zero_rows)
        rng = np.random.default_rng(seed)
        V = pool[rng.integers(0, pool.shape[0], size=n)].astype(dtype)
        with mock.patch.object(clustering, "MAX_ITERS", max_iters):
            got = kmeans_partition(identity_pair(V), K, seed=seed)
            want = kmeans_partition_full(V, K, seed=seed)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert got.n_iters_run == want.n_iters_run
        assert got.final_objective == want.final_objective


    def test_matches_forced_full_updates(self, monkeypatch):
        """Updates that recompute only the stale clusters' centers and score
        columns give, bit for bit, the run whose every update recomputes
        all K.  This run's second update recomputes three clusters (two
        that traded a member and one reseeded the round before) and its
        third one alone, whose lone row of sums is normed as two copies;
        every update reseeds a dead cluster."""
        V = identity_pair(pinned_input(90, 3))
        rounds = []

        def incremental(V, assignments, K, *args):
            out = _update(V, assignments, K, *args)
            stale = args[2] if args and args[0] is not None else np.ones(K, dtype=bool)
            rounds.append((int(np.count_nonzero(stale)), int(np.count_nonzero(out[2]))))
            return out

        monkeypatch.setattr(clustering, "_update", incremental)
        got = kmeans_partition(V, K=10, seed=90)
        assert rounds == [(10, 1), (3, 1), (1, 1)]
        monkeypatch.setattr(clustering, "_update", lambda V, a, K, *args: _update(V, a, K))
        want = kmeans_partition(V, K=10, seed=90)
        assert got.assignments.tobytes() == want.assignments.tobytes()
        assert got.centers.tobytes() == want.centers.tobytes()
        assert (got.n_iters_run, got.final_objective) == (want.n_iters_run, want.final_objective)


def separated_factors(seed, groups, n, zero_rows):
    """Factors (B, F) of n label vectors in well-separated groups, so that
    no assignment is a near-tie: each group owns a block of F's columns,
    each instance row of F lies in its group's block, and each label sums
    two or three instances of one group with random positive weights,
    scaled to a unit row of B·F.  About ``zero_rows`` of the labels have no
    instance and a zero row, as unused labels do."""
    rng = np.random.default_rng(seed)
    block, per_group = 5, 6
    F = np.zeros((groups * per_group, groups * block))
    for i in range(groups * per_group):
        cols = i // per_group * block + rng.choice(block, size=rng.integers(2, block + 1),
                                                   replace=False)
        F[i, cols] = rng.uniform(0.1, 1.0, size=len(cols))
    B = np.zeros((n, groups * per_group))
    for row in B:
        insts = rng.integers(groups) * per_group + rng.choice(per_group, size=rng.integers(2, 4),
                                                              replace=False)
        row[insts] = rng.uniform(0.5, 1.0, size=len(insts))
    B[rng.random(n) < zero_rows] = 0.0
    norms = np.linalg.norm(B @ F, axis=1)
    B /= np.where(norms == 0, 1.0, norms)[:, None]
    return sp.csr_matrix(B), sp.csr_matrix(F)


class TestFactoredAgainstOracle:
    """k-means on the factors (B, F) never forms V; it must make the same
    partition as the full-recompute oracle on V = B·F, up to rounding."""

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.integers(2, 5),
        K=st.integers(2, 8),
        extra=st.integers(1, 30),
        zero_rows=st.sampled_from([0.0, 0.2]),
        max_iters=st.sampled_from([3, 50]),
    )
    def test_matches_oracle_on_the_product(self, seed, groups, K, extra, zero_rows, max_iters):
        B, F = separated_factors(seed, groups, K + extra, zero_rows)
        with mock.patch.object(clustering, "MAX_ITERS", max_iters):
            got = kmeans_partition((B, F), K, seed=seed)
            want = kmeans_partition_full(B @ F, K, seed=seed)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.n_iters_run == want.n_iters_run
        assert got.final_objective == pytest.approx(want.final_objective, rel=0, abs=1e-9)
        np.testing.assert_allclose(got.centers, want.centers, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("seed, zero_rows", [(40, 0), (45, 0), (52, 14)])
    def test_identity_factor_gives_the_plain_matrix_bits(self, seed, zero_rows):
        """A plain V is the pair (V, identity): passing the identity as F
        gives the partition of the full-recompute oracle on V bit for bit."""
        V = pinned_input(seed, zero_rows)
        got = kmeans_partition(identity_pair(V), K=10, seed=seed)
        want = kmeans_partition_full(V, K=10, seed=seed)
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.centers.tobytes() == want.centers.tobytes()
        assert (got.n_iters_run, got.final_objective) == (want.n_iters_run, want.final_objective)


class ScoredColumns(sp.csr_matrix):
    """A CSR matrix that records how many columns each of its products with
    a dense array has."""

    columns: list

    def __matmul__(self, other):
        if isinstance(other, np.ndarray):
            self.columns.append(other.shape[1])
        return super().__matmul__(other)


def test_update_after_a_still_round_scores_only_dead_columns(monkeypatch):
    """Once no row moves, an update scores the dead clusters' columns (their
    new seeds) and nothing else; the first update scores all K columns."""
    V = ScoredColumns(pinned_input(52, 14))
    V.columns = []
    K = 10
    dense = V.toarray()
    updates = []

    def spy(pair, assignments, K, *args):
        sums = np.zeros((K, dense.shape[1]))
        np.add.at(sums, assignments, dense)
        n_dead = int(np.count_nonzero(~sums.any(axis=1)))
        before = len(V.columns)
        out = _update(pair, assignments, K, *args)
        updates.append((assignments, n_dead, sum(V.columns[before:])))
        return out

    monkeypatch.setattr(clustering, "_update", spy)
    kmeans_partition(identity_pair(V), K=K, seed=52)
    (_, n_dead, scored), *rest = updates
    assert scored == K + n_dead
    still = [
        (n_dead, scored)
        for (prev, _, _), (a, n_dead, scored) in zip(updates, rest)
        if np.array_equal(prev, a)
    ]
    assert still and all(n_dead > 0 for n_dead, _ in still)
    assert all(scored == n_dead for n_dead, scored in still)


def test_peak_memory_bounded():
    # traced peaks of this run: 4.09 MB when each update held the sums,
    # the means and the centers as three dense K x D arrays; 2.89 MB with
    # one, every update scoring into a fresh array.  2.92 MB when an update
    # in which at most half the clusters changed rescores the last round's
    # array in place; 3.74 MB if every update after the first does, 3.72 MB
    # if the old centers live on through the update, and 3.16 MB if the
    # sums are made F-ordered from a second sparse copy.  The identity
    # factor F adds under 2 kB (2.918 MB against 2.917 MB for a plain V)
    rng = np.random.default_rng(0)
    V = identity_pair(sp.random(3000, 2000, density=0.01, random_state=rng, format="csr"))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        kmeans_partition(V, K=50, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3.2e6


class TestKmeansPartition:
    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            kmeans_partition(identity_pair(csr(unit_vecs(0, 3, 2))), K=1)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            kmeans_partition(identity_pair(sp.csr_matrix((0, 3))), K=2)

    def test_fewer_vectors_than_k(self):
        # n <= K leaves no room for k-means; a node that small is a leaf
        for n, K in [(2, 4), (4, 4)]:
            with pytest.raises(ValueError, match="more than K"):
                kmeans_partition(identity_pair(csr(unit_vecs(2, n, 3))), K=K, seed=0)

    def test_identical_points_collapse_to_one_cluster(self):
        v = l2_normalize(vec([(0, 1.0), (1, 2.0)], 3))
        part = kmeans_partition(identity_pair(csr([v] * 4)), K=2, seed=3)
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
        V = csr(vecs)
        scores = V @ centers.T
        objs = []
        for _ in range(10):
            a = np.argmax(scores, axis=1)
            obj = float(np.sum(1.0 - scores[np.arange(20), a]))
            assert obj == pytest.approx(brute_objective(vecs, centers, a), abs=1e-9)
            objs.append(obj)
            centers, scores, _ = _update(identity_pair(V), a, 4)
        diffs = np.diff(objs)
        assert np.all(diffs <= 1e-9)

    def test_partition_is_disjoint_cover(self):
        vecs = unit_vecs(11, 25, 5)
        part = kmeans_partition(identity_pair(csr(vecs)), K=4, seed=12)
        assert np.all((part.assignments >= 0) & (part.assignments < 4))
        union = np.concatenate([np.flatnonzero(part.assignments == k) for k in range(4)])
        assert sorted(union.tolist()) == list(range(25))

    def test_deterministic_per_seed(self):
        vecs = unit_vecs(13, 30, 6)
        p1 = kmeans_partition(identity_pair(csr(vecs)), K=3, seed=99)
        p2 = kmeans_partition(identity_pair(csr(vecs)), K=3, seed=99)
        assert p1.assignments.tolist() == p2.assignments.tolist()
        np.testing.assert_array_equal(p1.centers, p2.centers)

    def test_nonempty_centers_are_unit_norm(self):
        vecs = unit_vecs(15, 40, 7)
        part = kmeans_partition(identity_pair(csr(vecs)), K=5, seed=6)
        for k in range(5):
            if np.any(part.assignments == k):
                assert np.linalg.norm(part.centers[k]) == pytest.approx(1.0, abs=1e-6)
