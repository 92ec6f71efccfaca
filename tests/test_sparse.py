import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest.sparse import SparseRowMatrix, SparseVec, dot
from helpers import add_scaled, l2_normalize, vec_from_pairs
from tron_oracle import prune_threshold


def vec(pairs, dim, dtype=np.float64):
    return vec_from_pairs(pairs, dim, dtype=dtype)


nonzero_floats = st.floats(min_value=-100, max_value=100, allow_nan=False).filter(
    lambda v: abs(v) > 1e-6
)


@st.composite
def sparse_vecs(draw, dim=None, max_dim=32):
    if dim is None:
        dim = draw(st.integers(min_value=1, max_value=max_dim))
    support = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=dim)))
    values = draw(
        st.lists(nonzero_floats, min_size=len(support), max_size=len(support))
    )
    return vec(zip(support, values), dim)


@st.composite
def vec_pairs(draw, max_dim=32):
    dim = draw(st.integers(min_value=1, max_value=max_dim))
    return draw(sparse_vecs(dim=dim)), draw(sparse_vecs(dim=dim))


class TestSparseVec:
    def test_from_pairs_sorts_and_drops_zeros(self):
        v = vec([(5, 2.0), (1, 0.0), (3, -1.0)], 8)
        assert v.indices.tolist() == [3, 5]
        assert v.values.tolist() == [-1.0, 2.0]

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseVec(np.array([4]), np.array([1.0]), 4)

    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVec(np.array([3, 1]), np.array([1.0, 2.0]), 5)

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ValueError):
            SparseVec(np.array([2, 2]), np.array([1.0, 2.0]), 5)

    def test_rejects_nonfinite_values(self):
        with pytest.raises(ValueError):
            SparseVec(np.array([0]), np.array([np.inf]), 1)

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVec(np.array([0]), np.array([0.0]), 1)

    def test_norm_345(self):
        assert vec([(0, 3.0), (7, 4.0)], 9).norm() == pytest.approx(5.0)


class TestDot:
    def test_partial_overlap_example(self):
        a = vec([(0, 2.0), (3, 1.0)], 8)
        b = vec([(3, 4.0), (7, 5.0)], 8)
        assert dot(a, b) == 4.0

    def test_disjoint_supports(self):
        a = vec([(0, 2.0)], 4)
        b = vec([(1, 3.0)], 4)
        assert dot(a, b) == 0.0

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            dot(vec([(0, 1.0)], 3), vec([(0, 1.0)], 4))

    @given(vec_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert dot(a, b) == dot(b, a)

    @given(vec_pairs())
    @settings(max_examples=100)
    def test_matches_dense_oracle(self, pair):
        a, b = pair
        expected = float(np.dot(a.to_dense(), b.to_dense()))
        assert dot(a, b) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestNormalize:
    def test_345_example(self):
        u = l2_normalize(vec([(0, 3.0), (1, 4.0)], 2))
        np.testing.assert_allclose(u.values, [0.6, 0.8])

    def test_zero_vector_passes_through(self):
        z = vec([], 5)
        assert l2_normalize(z) == z

    @given(sparse_vecs())
    def test_unit_norm_after(self, v):
        u = l2_normalize(v)
        if v.nnz:
            assert dot(u, u) == pytest.approx(1.0, abs=1e-9)
        else:
            assert u == v


class TestAddScaled:
    def test_accumulates_in_place(self):
        acc = np.zeros(4)
        add_scaled(acc, vec([(1, 2.0), (3, -1.0)], 4), 0.5)
        np.testing.assert_allclose(acc, [0.0, 1.0, 0.0, -0.5])

    def test_zero_scale_is_noop(self):
        acc = np.ones(3)
        add_scaled(acc, vec([(0, 9.0)], 3), 0.0)
        np.testing.assert_allclose(acc, [1.0, 1.0, 1.0])

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            add_scaled(np.zeros(2), vec([(0, 1.0)], 3), 1.0)

    @given(sparse_vecs(), st.floats(-10, 10, allow_nan=False))
    def test_matches_dense_oracle(self, v, s):
        acc = np.zeros(v.dim)
        add_scaled(acc, v, s)
        np.testing.assert_allclose(acc, s * v.to_dense(), atol=1e-12)


class TestPrune:
    def test_drops_small_magnitudes(self):
        v = vec([(0, 0.005), (1, -0.5), (2, 0.01)], 3)
        p = prune_threshold(v, 0.01)
        assert p.indices.tolist() == [1]
        assert p.values.tolist() == [-0.5]

    def test_zero_delta_is_identity(self):
        v = vec([(0, 1e-30), (1, 1.0)], 2)
        assert prune_threshold(v, 0.0) == v

    def test_negative_delta_raises(self):
        with pytest.raises(ValueError):
            prune_threshold(vec([(0, 1.0)], 1), -0.1)

    @given(sparse_vecs(), st.floats(0, 1, allow_nan=False))
    def test_idempotent(self, v, delta):
        once = prune_threshold(v, delta)
        assert prune_threshold(once, delta) == once
        assert once.dim == v.dim


class TestSparseRowMatrix:
    def test_row_round_trip(self):
        rows = [vec([(0, 1.0), (2, 3.0)], 4), vec([], 4), vec([(3, -2.0)], 4)]
        m = SparseRowMatrix.from_rows(rows, 4)
        assert m.n_rows == 3
        assert m.nnz == 3
        for got, want in zip(m.rows, rows):
            assert got == want

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseRowMatrix.from_rows([vec([(0, 1.0)], 3)], 4)

    def test_csr_round_trip(self):
        rows = [vec([(1, 2.0)], 3), vec([(0, 1.0), (2, 4.0)], 3)]
        m = SparseRowMatrix.from_rows(rows, 3)
        back = SparseRowMatrix.from_csr(m.to_csr())
        assert back == m

    def test_from_csr_removes_explicit_zeros(self):
        import scipy.sparse as sp

        raw = sp.csr_matrix(
            (np.array([0.0, 2.0]), np.array([1, 0]), np.array([0, 1, 2])),
            shape=(2, 3),
        )
        m = SparseRowMatrix.from_csr(raw)
        assert m.nnz == 1
        assert m.row(0).nnz == 0
        assert m.row(1).indices.tolist() == [0]
