import io

import numpy as np
import pytest
import scipy.sparse as sp

from labelforest.data import parse_dataset
from labelforest.representations import LabelRepr, ReprSpace, build_repr

from conftest import random_dataset
from helpers import csr_from_rows, row, rows


def parse_text(text):
    return parse_dataset(io.StringIO(text))


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
        ds = parse_text("1 3 1\n0 0:3.0 2:4.0\n")
        r = build_input_repr(ds)
        np.testing.assert_allclose(row(r.matrix, 0).to_dense(), [0.6, 0.0, 0.8])
        assert r.dim == 3

    def test_two_instance_symmetry(self):
        ds = parse_text("2 2 1\n0 0:1.0\n0 1:1.0\n")
        r = build_input_repr(ds)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(row(r.matrix, 0).to_dense(), [s, s])

    def test_unused_label_zero_vector(self):
        ds = parse_text("1 2 2\n0 0:1.0\n")
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
        ds = parse_text("3 1 2\n0,1 0:1\n0,1 0:1\n0,1 0:1\n")
        r = build_output_repr(ds)
        s = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(dense_rows(r), [[s, s], [s, s]])

    def test_isolated_label_is_basis_vector(self):
        ds = parse_text("4 1 3\n0 0:1\n0 0:1\n1,2 0:1\n1,2 0:1\n")
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
        ds = parse_text("1 2 1\n0\n")
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
