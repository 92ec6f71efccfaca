import io

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from labelforest.data import (
    DataFormatError,
    Dataset,
    build_label_index,
    label_frequency_histogram,
    normalize_instances,
    parse_dataset,
)
from conftest import random_dataset
from helpers import SparseVec, csr_from_rows, dataset_to_text, row, same_dataset

import parse_oracle


def parse_text(text):
    return parse_dataset(io.StringIO(text))


class TestParse:
    def test_two_instance_example(self):
        ds = parse_text("2 3 2\n0 0:1.0 2:0.5\n0,1 1:2.0\n")
        assert (ds.n, ds.d, ds.l) == (2, 3, 2)
        idx = build_label_index(ds)
        assert np.diff(idx.indptr).tolist() == [2, 1]

    def test_matrices_are_float32_csr(self):
        ds = parse_text("2 3 2\n0 2:0.5 0:1.0\n0,1 1:2.0\n")
        for m in (ds.X, ds.Y):
            assert isinstance(m, sp.csr_matrix) and m.dtype == np.float32
        assert ds.X.indptr.tolist() == [0, 2, 3]
        assert ds.X.indices.tolist() == [0, 2, 1]
        assert ds.X.data.tolist() == [1.0, 0.5, 2.0]
        assert (ds.Y.indptr.tolist(), ds.Y.indices.tolist()) == ([0, 1, 3], [0, 0, 1])

    def test_header_count_past_int64_is_rejected(self):
        with pytest.raises(DataFormatError, match="out of range"):
            parse_text(f"0 {2**63} 5\n")
        with pytest.raises(DataFormatError, match="out of range"):
            parse_text(f"{2**63} 1 5\n")

    @pytest.mark.parametrize("header", [f"0 1 {2**32 + 1}", f"0 {2**32 + 1} 1", f"0 1 {2**62}"])
    def test_header_d_or_l_past_u32_ids_is_rejected(self, header):
        with pytest.raises(DataFormatError, match="D or L out of range"):
            parse_text(header + "\n")

    def test_header_d_and_l_of_2_pow_32_are_read(self):
        ds = parse_text(f"0 {2**32} {2**32}\n")
        assert (ds.n, ds.d, ds.l) == (0, 2**32, 2**32)

    def test_minimal_example(self):
        ds = parse_text("1 1 1\n0 0:1\n")
        assert (ds.n, ds.d, ds.l) == (1, 1, 1)
        assert row(ds.X, 0).values.tolist() == [1.0]
        assert row(ds.Y, 0).indices.tolist() == [0]

    def test_byte_stream_and_cr_stripping(self):
        ds = parse_dataset(io.BytesIO(b"1 2 1\r\n0 1:3.5\r\n"))
        assert row(ds.X, 0).indices.tolist() == [1]
        assert row(ds.X, 0).values.tolist() == [3.5]

    def test_empty_label_list_line(self):
        ds = parse_text("2 2 2\n 0:1.0\n1 1:1.0\n")
        assert row(ds.Y, 0).nnz == 0
        assert row(ds.Y, 1).indices.tolist() == [1]

    def test_scientific_notation_values(self):
        ds = parse_text("1 2 1\n0 0:1e-3 1:2.5E2\n")
        np.testing.assert_allclose(
            row(ds.X, 0).values, np.array([1e-3, 250.0], dtype=np.float32)
        )

    def test_duplicate_features_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate feature"):
            parse_text("1 3 1\n0 1:1.0 1:2.0\n")

    def test_duplicate_labels_deduplicated_with_count(self):
        ds = parse_text("1 2 3\n2,0,2 0:1.0\n")
        assert row(ds.Y, 0).indices.tolist() == [0, 2]
        assert ds.stats.duplicate_labels == 1

    def test_unsorted_features_accepted(self):
        ds = parse_text("1 4 1\n0 3:1.0 1:2.0\n")
        assert row(ds.X, 0).indices.tolist() == [1, 3]
        assert row(ds.X, 0).values.tolist() == [2.0, 1.0]

    def test_label_out_of_range(self):
        with pytest.raises(DataFormatError, match="label id out of range"):
            parse_text("1 1 2\n2 0:1.0\n")

    def test_feature_out_of_range(self):
        with pytest.raises(DataFormatError, match="feature id out of range"):
            parse_text("1 2 1\n0 2:1.0\n")

    def test_malformed_header(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_text("2 3\n")

    def test_non_numeric_value(self):
        with pytest.raises(DataFormatError):
            parse_text("1 2 1\n0 1:abc\n")

    def test_missing_lines(self):
        with pytest.raises(DataFormatError, match="expected 3"):
            parse_text("3 2 1\n0 0:1.0\n")

    def test_trailing_content_rejected(self):
        with pytest.raises(DataFormatError, match="trailing"):
            parse_text("1 1 1\n0 0:1\n0 0:1\n")

    def test_explicit_zero_values_dropped(self):
        ds = parse_text("1 3 1\n0 0:0.0 2:1.0\n")
        assert row(ds.X, 0).indices.tolist() == [2]
        assert ds.stats.zero_values == 1


class TestRoundTrip:
    def test_canonical_round_trip(self):
        text = "3 4 3\n0,2 0:1.5 3:-2.25\n 1:0.001\n1\n"
        ds = parse_text(text)
        out = dataset_to_text(ds)
        ds2 = parse_text(out)
        assert same_dataset(ds2, ds)
        assert dataset_to_text(ds2) == out

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_round_trip(self, data):
        n = data.draw(st.integers(0, 6))
        d = data.draw(st.integers(1, 8))
        l = data.draw(st.integers(1, 5))
        lines = [f"{n} {d} {l}"]
        for _ in range(n):
            labels = sorted(data.draw(st.sets(st.integers(0, l - 1), max_size=l)))
            feats = sorted(data.draw(st.sets(st.integers(0, d - 1), max_size=d)))
            vals = data.draw(
                st.lists(
                    st.floats(
                        min_value=-10,
                        max_value=10,
                        allow_nan=False,
                        width=32,
                    ).filter(lambda v: abs(v) > 1e-4),
                    min_size=len(feats),
                    max_size=len(feats),
                )
            )
            pairs = " ".join(f"{j}:{v}" for j, v in zip(feats, vals))
            lines.append(",".join(map(str, labels)) + (" " + pairs if pairs else ""))
        ds = parse_text("\n".join(lines) + "\n")
        assert same_dataset(parse_text(dataset_to_text(ds)), ds)


class TestLabelIndex:
    """``build_label_index`` is Y's transpose: row j holds label j's
    sorted instance ids."""

    def test_inversion_example(self):
        ds = parse_text("2 1 2\n0,1 0:1\n1 0:1\n")
        idx = build_label_index(ds)
        assert isinstance(idx, sp.csr_matrix) and idx.shape == (2, 2)
        assert idx[0].indices.tolist() == [0]
        assert idx[1].indices.tolist() == [0, 1]
        assert np.diff(idx.indptr).tolist() == [1, 2]

    def test_unused_label_has_empty_list(self):
        ds = parse_text("1 1 3\n0 0:1\n")
        idx = build_label_index(ds)
        assert idx[2].indices.tolist() == []
        assert np.diff(idx.indptr)[2] == 0

    def test_total_count_matches_nnz(self):
        ds = parse_text("3 1 4\n0,1 0:1\n2 0:1\n0,3 0:1\n")
        idx = build_label_index(ds)
        assert idx.nnz == ds.Y.nnz
        assert np.bincount(ds.Y.indices, minlength=ds.l).tolist() == np.diff(idx.indptr).tolist()

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_dense_column_sums(self, data):
        n = data.draw(st.integers(1, 12))
        l = data.draw(st.integers(1, 10))
        rows = []
        for _ in range(n):
            labs = sorted(data.draw(st.sets(st.integers(0, l - 1), max_size=l)))
            rows.append(
                SparseVec(
                    np.array(labs, dtype=np.int64),
                    np.ones(len(labs), dtype=np.float32),
                    l,
                )
            )
        Y = csr_from_rows(rows, l)
        X = csr_from_rows(
            [SparseVec(np.array([0]), np.array([1.0], dtype=np.float32), 1)] * n, 1
        )
        ds = Dataset(X, Y)
        idx = build_label_index(ds)
        dense = Y.toarray()
        np.testing.assert_array_equal(np.diff(idx.indptr), dense.sum(axis=0).astype(np.int64))
        assert idx.has_canonical_format
        for lab in range(l):
            assert idx[lab].indices.tolist() == list(np.nonzero(dense[:, lab])[0])


class TestHistogram:
    def test_rank_sorted_output(self):
        ds = parse_text("3 1 2\n0 0:1\n0 0:1\n0,1 0:1\n")
        buf = io.StringIO()
        label_frequency_histogram(np.bincount(ds.Y.indices, minlength=ds.l), buf)
        assert buf.getvalue() == "1 3\n2 1\n"

    def test_empty_dataset(self):
        ds = parse_text("0 0 0\n")
        buf = io.StringIO()
        label_frequency_histogram(np.bincount(ds.Y.indices, minlength=ds.l), buf)
        assert buf.getvalue() == ""


class TestDatasetInvariants:
    def test_label_values_must_be_one(self):
        X = csr_from_rows([SparseVec(np.array([0]), np.array([1.0]), 1)], 1)
        Y = csr_from_rows(
            [SparseVec(np.array([0]), np.array([0.5], dtype=np.float32), 1)], 1
        )
        with pytest.raises(DataFormatError, match="1.0"):
            Dataset(X, Y)

    def test_row_count_mismatch(self):
        X = csr_from_rows([SparseVec(np.array([0]), np.array([1.0]), 1)], 1)
        Y = csr_from_rows([], 1)
        with pytest.raises(DataFormatError, match="row counts"):
            Dataset(X, Y)


class TestNormalizeInstances:
    def test_rows_become_unit_norm(self):
        ds = parse_text("2 2 1\n0 0:3.0 1:4.0\n0 0:2.0\n")
        X = normalize_instances(ds)
        np.testing.assert_array_equal(row(X, 0).values, np.float32([0.6, 0.8]).astype(np.float64))
        np.testing.assert_array_equal(row(X, 1).values, [1.0])

    def test_zero_row_untouched_and_values_stay_f32(self):
        """The values are float64 holding float32 values."""
        ds = parse_text("2 2 1\n 1:5.0\n0\n")
        X = normalize_instances(ds)
        assert row(X, 1).nnz == 0
        assert X.dtype == np.float64 and X.data.tolist() == [1.0]
        assert np.array_equal(X.data, X.data.astype(np.float32))

    def test_float64_csr_on_the_parsed_index_arrays(self):
        ds = random_dataset(4, n=30, d=12, l=3)
        X = normalize_instances(ds)
        assert isinstance(X, sp.csr_matrix) and X.dtype == np.float64 and X.shape == ds.X.shape
        assert np.shares_memory(X.indices, ds.X.indices)
        assert np.shares_memory(X.indptr, ds.X.indptr)
        # each value is a float32, rounded from the float64 quotient
        assert np.array_equal(X.data, X.data.astype(np.float32))
        norms = np.sqrt(np.asarray(ds.X.multiply(ds.X).sum(axis=1), dtype=np.float64)).ravel()
        nonzero = np.repeat(norms, np.diff(ds.X.indptr))
        np.testing.assert_allclose(X.data, ds.X.data / nonzero, rtol=1e-7)


# -- the whole-buffer parser against the per-line oracle ----------------------

VALUE_SPELLINGS = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False, width=32).map(repr),
    st.floats(-1e3, 1e3, allow_nan=False).map(repr),
    st.floats(-50, 50, allow_nan=False).map(lambda v: f"{v:.4f}"),
    st.floats(-1e30, 1e30, allow_nan=False).map(lambda v: f"{v:e}"),
    st.integers(-99, 99).map(str),
    st.sampled_from(["0", "0.0", "-0.0", "+0", ".5", "5.", "+.25", "-7.", "1E3", "2.5e-3",
                     "0.1000000000000000055511151231257827", "00012.50"]),
)

# one token that int() or float() rejects, or a pair without its colon
BAD_TOKENS = ["x", "1:", ":1", "1:2:3", "1", "a:1", "1:abc", "1:1e", "1.5:2", "1:-", "1:."]
NON_FINITE = ["nan", "inf", "-inf", "Infinity", "1e39", "-1e300"]


@st.composite
def data_files(draw):
    """The text of a valid data file, or of one with a single mutation: a
    bad token or label, an id out of range, a non-finite value, a duplicate
    feature, a missing or extra line, or trailing content."""
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 9))
    l = draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        labels = [str(v) for v in draw(st.lists(st.integers(0, l - 1), max_size=4))]
        fids = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        feats = [f"{j}:{draw(VALUE_SPELLINGS)}" for j in fids]
        rows.append([labels, feats])
    header = f"{n} {d} {l}"
    extra_lines = []
    trailer = draw(st.sampled_from(["", "\n", "  \n\n", "\t"]))

    mutation = draw(st.sampled_from(
        ["none", "none", "bad token", "bad label", "feature range", "label range",
         "non-finite", "duplicate", "missing line", "extra line", "trailing"]
    ))
    row = draw(st.integers(0, max(n - 1, 0)))
    if mutation == "bad token" and n:
        rows[row][1].insert(draw(st.integers(0, len(rows[row][1]))), draw(st.sampled_from(BAD_TOKENS)))
    elif mutation == "bad label" and n:
        rows[row][0].append(draw(st.sampled_from(["x", "", "1.0", "0x1"])))
    elif mutation == "feature range" and n:
        rows[row][1].append(f"{draw(st.sampled_from([d, d + 5, -1, 10**30]))}:1.5")
    elif mutation == "label range" and n:
        rows[row][0].append(str(draw(st.sampled_from([l, -1, 10**25]))))
    elif mutation == "non-finite" and n:
        rows[row][1].append(f"{d - 1}:{draw(st.sampled_from(NON_FINITE))}")
    elif mutation == "duplicate" and n and rows[row][1]:
        rows[row][1].append(draw(st.sampled_from(rows[row][1])))
    elif mutation == "missing line" and n:
        rows.pop()
    elif mutation == "extra line":
        extra_lines.append("0 0:1")
    elif mutation == "trailing":
        trailer += draw(st.sampled_from(["junk", "0 0:1\n", "\n\n7"]))

    sep = draw(st.sampled_from([" ", "  ", "\t", " \t"]))
    lines = [header]
    for labels, feats in rows:
        line = ",".join(labels)
        if feats:
            line += " " + sep.join(feats)
        elif draw(st.booleans()):
            line += " "
        lines.append(line)
    lines += extra_lines
    text = "\n".join(lines) + ("\n" if draw(st.booleans()) or trailer else "")
    return text + trailer


def parse_both(source_of):
    """The Dataset or the error from the bulk parser and from the oracle."""
    try:
        new = parse_dataset(source_of())
    except DataFormatError as e:
        new = e
    try:
        old = parse_oracle.parse_dataset(source_of())
    except Exception as e:  # the oracle overflows on ids beyond int64
        old = e
    return new, old


class TestParseOracle:
    """Every file either parses to the oracle's Dataset and ParseStats, or
    is rejected with the oracle's message, which names the same line.  Ids
    beyond int64 crash the oracle with OverflowError; the bulk parser
    rejects them as out of range."""

    def check(self, source_of):
        new, old = parse_both(source_of)
        if isinstance(old, OverflowError):
            assert isinstance(new, DataFormatError) and "out of range" in str(new)
        elif isinstance(old, DataFormatError):
            assert isinstance(new, DataFormatError), f"oracle rejects: {old}"
            assert str(new) == str(old)
        else:
            assert not isinstance(new, DataFormatError), f"oracle accepts: {new}"
            assert same_dataset(new, old)
            assert new.stats == old.stats

    @given(data_files(), st.sampled_from(["\n", "\r\n"]))
    @settings(max_examples=300)
    def test_text_streams(self, text, newline):
        text = text.replace("\n", newline)
        self.check(lambda: io.StringIO(text))

    @given(data_files(), st.sampled_from(["\n", "\r\n", "\r"]))
    @settings(max_examples=300)
    def test_binary_streams_and_files(self, text, newline):
        raw = text.replace("\n", newline).encode()
        self.check(lambda: io.BytesIO(raw))

    def test_path_source(self, tmp_path):
        f = tmp_path / "data.txt"
        f.write_bytes(b"3 4 3\r\n2,0,2 3:1.5 0:0 1:-2e-3\r\n\r\n 2:7\r\n")
        self.check(lambda: str(f))

    @pytest.mark.parametrize("text", [
        "", "\n", "2 3\n", "a 1 1\n", "-1 2 2\n",
        "1 2 2\n0 1:1\n\n\n", "1 2 2\n0 1:1\n x\n", "0 0 0\n", "0 3 3\n  \n",
        "2 5 5\n0\n", "2 5 5\n0 1:1 1:0\n1 7:1\n", "1 5 5\n0,,1 1:1\n",
        "1 5 5\n0 1:1 2:nan 9:1\n", "1 5 5\n0 9:1 2:nan\n", "1 5 5\n9 x\n",
        "2 5 5\n0 1:1 1:2\n0 x\n", "1 3 3\n0 0:1e-50 1:5e-46 2:-1e-39\n",
        "1 30 3\n0 000000000000000000000000000012:1 7:000000000000000000000003.5\n",
        "1 3 3\n0 1:" + "9" * 400 + "\n", "1 3 3\n0 1:1" + "0" * 20 + ".5\n",
        "1 5 100000000000000000000000\n0,99999999999999999999 3:1\n",
        "1 100000000000000000000000 5\n0 3:1 99999999999999999999:1\n",
    ])
    def test_edge_files(self, text):
        self.check(lambda: io.StringIO(text))
        self.check(lambda: io.BytesIO(text.encode()))

    def test_same_result_across_line_blocks(self, monkeypatch):
        """Small blocks split the file between lines; the result and the
        error lines must not depend on where."""
        rng = np.random.default_rng(3)
        lines = ["40 50 9"]
        for i in range(40):
            feats = rng.choice(50, size=rng.integers(0, 8), replace=False)
            labels = rng.integers(0, 9, size=rng.integers(0, 4))
            lines.append(",".join(map(str, labels)) + "".join(f" {j}:{rng.normal():.3f}" for j in feats))
        text = "\n".join(lines) + "\n"
        whole = parse_dataset(io.StringIO(text))
        monkeypatch.setattr("labelforest.data._BLOCK_BYTES", 37)
        assert same_dataset(parse_dataset(io.StringIO(text)), whole)
        bad = text.replace(lines[30], lines[30] + " 1:x")
        with pytest.raises(DataFormatError, match="line 31: bad pair"):
            parse_dataset(io.StringIO(bad))
