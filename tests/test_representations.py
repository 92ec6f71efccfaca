import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest import representations
from labelforest.data import normalize_instances
from labelforest.representations import (
    LabelRepr,
    ReprSpace,
    _inverse_label_norms,
    _inverse_row_norms,
    build_repr,
)
from labelforest.tree import label_rows

from conftest import random_dataset
from helpers import csr_from_rows, parse_body, row, rows, same_csr_bits


def build_input_repr(ds):
    return build_repr(ds.X, ds.Y, ReprSpace.INPUT)


def build_output_repr(ds):
    return build_repr(ds.X, ds.Y, ReprSpace.OUTPUT)


def build_joint_repr(ds):
    return build_repr(ds.X, ds.Y, ReprSpace.JOINT)


def dense_rows(repr_: LabelRepr):
    return np.vstack([r.to_dense() for r in rows(repr_.matrix)])


def normalize_rows(m):
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


class TestInputRepr:
    def test_single_instance_label(self):
        ds = parse_body("1 3 1\n0 0:3.0 2:4.0\n")
        r = build_input_repr(ds)
        np.testing.assert_allclose(row(r.matrix, 0).to_dense(), [0.6, 0.0, 0.8])
        assert r.dim == 3

    def test_two_instance_symmetry(self):
        ds = parse_body("2 2 1\n0 0:1.0\n0 1:1.0\n")
        r = build_input_repr(ds)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(row(r.matrix, 0).to_dense(), [s, s])

    def test_unused_label_zero_vector(self):
        ds = parse_body("1 2 2\n0 0:1.0\n")
        r = build_input_repr(ds)
        assert row(r.matrix, 1).nnz == 0

    def test_matches_dense_oracle(self):
        ds = random_dataset(11, n=10, d=8, l=5)
        X = np.vstack([r.to_dense() for r in rows(ds.X)])
        Y = np.vstack([r.to_dense() for r in rows(ds.Y)])
        expected = normalize_rows(Y.T @ X)
        np.testing.assert_allclose(dense_rows(build_input_repr(ds)), expected, atol=1e-9)

    def test_vectors_lie_in_span_of_positives(self):
        ds = random_dataset(3, n=8, d=6, l=4)
        X = np.vstack([r.to_dense() for r in rows(ds.X)])
        Y = np.vstack([r.to_dense() for r in rows(ds.Y)])
        V = dense_rows(build_input_repr(ds))
        for lab in range(ds.l):
            pos = X[Y[:, lab] == 1]
            if not len(pos):
                continue
            coef, *_ = np.linalg.lstsq(pos.T, V[lab], rcond=None)
            np.testing.assert_allclose(pos.T @ coef, V[lab], atol=1e-9)


class TestOutputRepr:
    def test_always_cooccurring_pair(self):
        ds = parse_body("3 1 2\n0,1 0:1\n0,1 0:1\n0,1 0:1\n")
        r = build_output_repr(ds)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(dense_rows(r), [[s, s], [s, s]])

    def test_isolated_label_is_basis_vector(self):
        ds = parse_body("4 1 3\n0 0:1\n0 0:1\n1,2 0:1\n1,2 0:1\n")
        r = build_output_repr(ds)
        np.testing.assert_allclose(row(r.matrix, 0).to_dense(), [1.0, 0.0, 0.0])

    def test_matches_dense_oracle(self):
        ds = random_dataset(12, n=10, d=4, l=6)
        Y = np.vstack([r.to_dense() for r in rows(ds.Y)])
        expected = normalize_rows(Y.T @ Y)
        np.testing.assert_allclose(
            dense_rows(build_output_repr(ds)), expected, atol=1e-9
        )

    def test_permutation_equivariance(self):
        ds = random_dataset(13, n=9, d=3, l=5)
        perm = np.array([3, 0, 4, 1, 2])
        Y = np.vstack([r.to_dense() for r in rows(ds.Y)])
        from helpers import SparseVec

        y_rows = []
        for i in range(ds.n):
            yp = Y[i][np.argsort(perm)]  # label j moves to position perm[j]
            idx = np.nonzero(yp)[0].astype(np.int64)
            y_rows.append(SparseVec(idx, np.ones(len(idx), dtype=np.float32), ds.l))
        base = dense_rows(build_output_repr(ds))
        permuted = dense_rows(build_repr(ds.X, csr_from_rows(y_rows, ds.l), ReprSpace.OUTPUT))
        # permuted[perm[j], perm[m]] must equal base[j, m]
        np.testing.assert_allclose(permuted[np.ix_(perm, perm)], base, atol=1e-12)


class TestJointRepr:
    def test_zero_input_block_norm(self):
        ds = parse_body("1 2 1\n0\n")
        r = build_joint_repr(ds)
        v = row(r.matrix, 0)
        assert v.norm() == pytest.approx(1.0 / np.sqrt(2.0))
        assert all(j >= ds.d for j in v.indices)

    def test_unit_norm_when_both_blocks_nonzero(self):
        ds = random_dataset(14, n=10, d=8, l=6)
        r = build_joint_repr(ds)
        for lab in range(ds.l):
            v = row(r.matrix, lab)
            has_in = any(j < ds.d for j in v.indices)
            has_out = any(j >= ds.d for j in v.indices)
            if has_in and has_out:
                assert v.norm() == pytest.approx(1.0, abs=1e-6)

    def test_blocks_cross_check_other_builders(self):
        ds = random_dataset(15, n=10, d=8, l=6)
        joint = dense_rows(build_joint_repr(ds))
        vin = dense_rows(build_input_repr(ds))
        vout = dense_rows(build_output_repr(ds))
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(joint[:, : ds.d], s * vin, atol=1e-9)
        np.testing.assert_allclose(joint[:, ds.d :], s * vout, atol=1e-9)

    def test_dims_and_space(self):
        """The joint space has d input then l output coordinates."""
        ds = random_dataset(16, n=5, d=4, l=3)
        r = build_joint_repr(ds)
        assert r.dim == 7 and r.matrix.shape[1] == 7
        assert r.matrix[:, : ds.d].nnz == build_input_repr(ds).matrix.nnz
        assert r.matrix.shape[0] == 3


class TestDispatchAndInvariants:
    def test_build_repr_dispatch(self):
        ds = random_dataset(17, n=6, d=5, l=4)
        X, Y = ds.X.toarray().astype(np.float64), ds.Y.toarray().astype(np.float64)
        vin, vout = normalize_rows(Y.T @ X), normalize_rows(Y.T @ Y)
        s = 1.0 / np.sqrt(2.0)
        for space, dim, blocks in (
            (ReprSpace.INPUT, 5, vin),
            (ReprSpace.OUTPUT, 4, vout),
            (ReprSpace.JOINT, 9, np.hstack([s * vin, s * vout])),
        ):
            r = build_repr(ds.X, ds.Y, space)
            assert r.dim == dim and r.matrix.shape == (4, dim)
            np.testing.assert_allclose(r.matrix.toarray(), blocks, atol=1e-9)

    def test_float32_and_float64_features_agree(self):
        ds = random_dataset(20, n=9, d=6, l=5)
        for space in ReprSpace:
            a = build_repr(ds.X, ds.Y, space).matrix
            b = build_repr(ds.X.astype(np.float64), ds.Y, space).matrix
            assert (a != b).nnz == 0

    def test_matrix_is_float64_csr(self):
        ds = random_dataset(19, n=6, d=5, l=4)
        for space in ReprSpace:
            m = build_repr(ds.X, ds.Y, space).matrix
            assert isinstance(m, sp.csr_matrix) and m.dtype == np.float64
            assert m.has_canonical_format and m.data.all()

    def test_nonzero_rows_are_unit_norm(self):
        ds = random_dataset(18, n=12, d=7, l=9)
        for space in ReprSpace:
            r = build_repr(ds.X, ds.Y, space)
            assert r.matrix.shape[0] == ds.l
            for v in rows(r.matrix):
                if v.nnz and space is not ReprSpace.JOINT:
                    assert v.norm() == pytest.approx(1.0, abs=1e-6)


class TestFactors:
    """V = B·F, the only form of V in training: the product equals V formed
    directly (``unfactored``) to 1e-15 per entry in every space, zero rows
    included, and the label slices ``tree.grow`` hands k-means equal their
    rows of the product."""

    @staticmethod
    def factored(seed, space):
        """X, Y and the representation of a random dataset with sparse
        labels, plus one label that no instance carries, so that at least
        one row of V is zero."""
        ds = random_dataset(seed, n=12, d=7, l=9, label_density=0.15)
        Y = sp.hstack([ds.Y, sp.csr_matrix((ds.n, 1), dtype=ds.Y.dtype)], format="csr")
        X = normalize_instances(ds)
        return X, Y, build_repr(X, Y, space)

    @staticmethod
    def unfactored(X, Y, space):
        """V formed directly, not from the factors: each block's Yᵀ·F with
        rows scaled to unit norm, the joint space's two blocks side by side
        and scaled by 1/√2."""
        Yt = Y.T.astype(np.float64)
        vs = []
        for F in {ReprSpace.INPUT: [X], ReprSpace.OUTPUT: [Y], ReprSpace.JOINT: [X, Y]}[space]:
            V = (Yt @ F.astype(np.float64)).tocsr()
            V.sort_indices()
            norms = np.sqrt(np.asarray(V.multiply(V).sum(axis=1)).ravel())
            vs.append(sp.diags(1.0 / np.where(norms == 0, 1.0, norms)) @ V)
        return vs[0] if len(vs) == 1 else sp.hstack([v * (1.0 / np.sqrt(2.0)) for v in vs])

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(list(ReprSpace)))
    def test_product_is_the_matrix(self, seed, space):
        X, Y, r = self.factored(seed, space)
        (n, l), blocks = Y.shape, 2 if space is ReprSpace.JOINT else 1
        assert r.B.shape == (l, blocks * n) and r.F.shape == (blocks * n, r.dim)
        assert r.B.dtype == r.F.dtype == np.float64
        want = self.unfactored(X, Y, space).toarray()
        np.testing.assert_allclose((r.B @ r.F).toarray(), want, rtol=0, atol=1e-15)
        unused = np.bincount(Y.indices, minlength=l) == 0
        assert unused[-1] and not np.diff(r.B.indptr)[unused].any()

    def test_input_factor_is_x_itself(self):
        ds = random_dataset(22, n=10, d=6, l=5)
        X = normalize_instances(ds)
        assert build_repr(X, ds.Y, ReprSpace.INPUT).F is X

    def test_joint_factors_are_the_scaled_blocks(self):
        ds = random_dataset(23, n=10, d=6, l=5)
        X = normalize_instances(ds)
        vin, vout, joint = (build_repr(X, ds.Y, s) for s in ReprSpace)
        s = 1.0 / np.sqrt(2.0)
        B = np.hstack([s * vin.B.toarray(), s * vout.B.toarray()])
        F = np.block([[X.toarray(), np.zeros((ds.n, ds.l))],
                      [np.zeros((ds.n, ds.d)), ds.Y.toarray()]])
        np.testing.assert_array_equal(joint.B.toarray(), B)
        np.testing.assert_array_equal(joint.F.toarray(), F)

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), space=st.sampled_from(list(ReprSpace)),
           n_rows=st.integers(1, 10))
    def test_label_slices_are_rows_of_the_matrix(self, seed, space, n_rows):
        """``label_rows`` keeps a slice's rows of B with only the instance
        columns they touch, and those rows of F with only the columns they
        touch; the root keeps B and F whole."""
        _, Y, r = self.factored(seed, space)
        rows = np.random.default_rng(seed).permutation(Y.shape[1])[:n_rows]
        B, F = label_rows(r.B, r.F, rows)
        assert B.shape == (n_rows, F.shape[0]) and B.has_canonical_format
        assert np.diff(B.tocsc().indptr).all() and np.diff(F.tocsc().indptr).all()
        insts = np.unique(r.B[rows].indices)
        cols = np.unique(r.F[insts].indices)
        want = r.matrix[rows].toarray()
        assert not np.delete(want, cols, axis=1).any()
        np.testing.assert_allclose((B @ F).toarray(), want[:, cols], rtol=0, atol=1e-15)
        root = label_rows(r.B, r.F, np.arange(Y.shape[1]))
        assert root[0] is r.B and root[1] is r.F


class TestBlockedNorms:
    """A label's norm is taken over a block of labels' rows of Yᵀ·F, and
    equals the norm of the whole product, ``_inverse_row_norms(Yᵀ·F)``, bit
    for bit: in every factor and space, with labels no instance carries,
    and over several blocks."""

    @staticmethod
    def data(seed):
        """X, Y with dense labels, so that their instance counts sum to
        several times N, and a label between the others that no instance
        carries."""
        ds = random_dataset(seed, n=30, d=20, l=14, label_density=0.3)
        empty = sp.csr_matrix((ds.n, 1), dtype=ds.Y.dtype)
        Y = sp.hstack([ds.Y[:, :7], empty, ds.Y[:, 7:]], format="csr")
        return normalize_instances(ds), Y

    @settings(max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_blocks_give_the_whole_products_bits(self, seed):
        X, Y = self.data(seed)
        Yt = Y.T.astype(np.float64)
        assert np.diff(Yt.tocsr().indptr)[7] == 0
        for F in (X.astype(np.float64), Yt.T):
            got = _inverse_label_norms(Yt, F)
            want = _inverse_row_norms((Yt @ F).tocsr())
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_several_blocks_each_at_most_n_instances(self, monkeypatch):
        X, Y = self.data(0)
        blocks = []

        def spy(m):
            blocks.append(m.shape[0])
            return norms(m)

        norms = representations._inverse_row_norms
        monkeypatch.setattr(representations, "_inverse_row_norms", spy)
        _inverse_label_norms(Y.T, X)
        counts = np.bincount(Y.indices, minlength=Y.shape[1])
        ends = np.cumsum(blocks)
        assert len(blocks) >= 2 and ends[-1] == Y.shape[1]
        assert all(counts[end - size : end].sum() <= Y.shape[0]
                   for size, end in zip(blocks, ends))

    def test_joint_factor_b_is_the_whole_products(self):
        """The joint space's B, built with each block's norms from the whole
        product, has the bits of ``build_repr``'s."""
        X, Y = self.data(1)
        Yt = Y.T.astype(np.float64)
        scale = 1.0 / np.sqrt(2.0)
        want = sp.hstack([(sp.diags(_inverse_row_norms((Yt @ F).tocsr())) @ Yt) * scale
                          for F in (X.astype(np.float64), Yt.T)], format="csr")
        want.sort_indices()
        got = build_repr(X, Y, ReprSpace.JOINT).B
        assert not np.diff(got.indptr)[7]
        assert same_csr_bits(got, want)
