"""Multi-label dataset parsing, validation and normalization.

The on-disk format is the plain-text one used by the public extreme
classification benchmark repositories:

    N D L
    label,label,... featureId:value featureId:value ...

with 0-based label and feature ids, a possibly empty label field, UTF-8
text and tolerated CR line endings.  The parser reads the whole body at
once: line, field and token boundaries come from array scans over its
bytes, and ids and values are converted in bulk.  It returns the features
X and the labels Y as float32 scipy CSR matrices, the one sparse matrix
type of the package.  Y is also the one form of label sets: a label's
instances are a row of its transpose, and its frequency a count over
``Y.indices``.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

log = logging.getLogger(__name__)


class DataFormatError(ValueError):
    """Raised when an input file violates the dataset format."""


@dataclass(frozen=True)
class ParseStats:
    """Counters for tolerated irregularities (not part of Dataset identity)."""

    duplicate_labels: int = 0
    zero_values: int = 0


@dataclass(frozen=True, eq=False)
class Dataset:
    """Parallel feature rows X (n x d) and binary label rows Y (n x l), as
    CSR matrices whose rows hold sorted, distinct column ids and no
    explicit zeros; the parser's are float32."""

    X: sp.csr_matrix
    Y: sp.csr_matrix
    stats: ParseStats = ParseStats()

    def __post_init__(self):
        if self.X.shape[0] != self.Y.shape[0]:
            raise DataFormatError("X and Y row counts disagree")
        if not np.all(self.Y.data == 1.0):
            raise DataFormatError("label matrix values must all equal 1.0")

    n = property(lambda self: self.X.shape[0])
    d = property(lambda self: self.X.shape[1])
    l = property(lambda self: self.Y.shape[1])


def _parse_header(line: str) -> tuple[int, int, int]:
    if not line.isascii():
        # str.split() would also split on Unicode spaces, which no body line does
        raise DataFormatError(f"non-integer header field in {line!r}")
    parts = line.split()
    if len(parts) != 3:
        raise DataFormatError(f"header must be 'N D L', got {line!r}")
    try:
        # a field off the ids' grammar ("1_0", "0x1") fails the unpacking
        n, d, l = (int(p) for p in parts if _INT_TOKEN.fullmatch(p.encode()))
    except ValueError as e:
        raise DataFormatError(f"non-integer header field in {line!r}") from e
    if n < 0 or d < 0 or l < 0:
        raise DataFormatError("header counts must be non-negative")
    if n >= 2**63:
        raise DataFormatError("header N out of range [0, 2**63)")
    # the bound of the u32 ids in the model format
    if max(d, l) > 2**32:
        raise DataFormatError("header D or L out of range [0, 2**32]")
    return n, d, l


# The ASCII bytes str.split() separates on: a feature field's tokens are
# the runs between them.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True

# The bulk reader converts up to 18 digits (every such integer fits int64);
# a value's mantissa of at most 15 digits and 10**15 are exact in float64,
# so mantissa / 10**scale is the correctly rounded value float() returns.
_INT_DIGITS = 18
_FLOAT_DIGITS = 15
_POW10 = 10.0 ** np.arange(_FLOAT_DIGITS + 1)
_INT_TOKEN = re.compile(rb"[+-]?[0-9]+")
# Bytes of whole lines tokenized at a time.
_BLOCK_BYTES = 1 << 20


def _scan_decimals(buf: np.ndarray, lo: np.ndarray, hi: np.ndarray, point: bool):
    """Read every span ``buf[lo:hi]`` as ``[+-]digits`` (with ``point``:
    ``[+-]digits[.digits]``), one byte column at a time across all spans.

    Returns (mantissa, scale, digits, clean, long): a clean span's value is
    ``mantissa / 10**scale``; ``long`` marks spans with more than
    ``_INT_DIGITS`` bytes after the sign, which are left unread.  ``buf``
    must extend ``_INT_DIGITS`` bytes past every span.
    """
    n = len(lo)
    mant = np.zeros(n, dtype=np.int64)
    scale = np.zeros(n, dtype=np.int64)
    digits = np.zeros(n, dtype=np.int64)
    if n == 0:
        return mant, scale, digits, np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    first = buf[lo]
    signed = (lo < hi) & ((first == ord("+")) | (first == ord("-")))
    pos = lo + signed
    width = hi - pos
    long = width > _INT_DIGITS
    clean = (width > 0) & ~long
    after_point = np.zeros(n, dtype=bool)
    for j in range(min(int(width.max()), _INT_DIGITS)):
        live = j < width
        c = buf[pos + j]
        v = c - np.uint8(ord("0"))
        digit = live & (v < 10)
        other = live & ~digit
        if point:
            at_point = other & (c == ord(".")) & ~after_point
            scale += digit & after_point
            after_point |= at_point
            other &= ~at_point
        clean &= ~other
        mant = np.where(digit, mant * 10 + v, mant)
        digits += digit
    clean &= digits > 0
    mant[signed & (first == ord("-"))] *= -1
    return mant, scale, digits, clean, long


def _read_ints(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Value and well-formedness of each span read as an integer; a value
    beyond int64 reads as -1, outside every id range.  int() reads at most
    the 19 significant digits of int64, so no id meets int()'s digit limit."""
    mant, _, _, ok, long = _scan_decimals(buf, lo, hi, point=False)
    for i in np.flatnonzero(long):
        tok = buf[lo[i]:hi[i]].tobytes()
        if _INT_TOKEN.fullmatch(tok):
            sign = b"-" if tok.startswith(b"-") else b""
            digits = tok.lstrip(b"+-").lstrip(b"0") or b"0"
            value = int(sign + digits) if len(digits) <= 19 else -1
            mant[i] = value if -(2**63) <= value < 2**63 else -1
            ok[i] = True
    return mant, ok


def _read_floats(buf, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """float() of each span, and whether it converts.  Plain decimals of at
    most ``_FLOAT_DIGITS`` digits are read in bulk; the rest (exponents,
    nan, inf, longer mantissas) go through float() one by one."""
    mant, scale, digits, clean, _ = _scan_decimals(buf, lo, hi, point=True)
    fast = clean & (digits <= _FLOAT_DIGITS)
    values = mant / _POW10[np.where(fast, scale, 0)]
    ok = fast.copy()
    for i in np.flatnonzero(~fast):
        try:
            values[i] = float(buf[lo[i]:hi[i]].tobytes())
            ok[i] = True
        except ValueError:
            pass
    return values, ok


def _text(buf: np.ndarray, lo: int, hi: int) -> str:
    return buf[lo:hi].tobytes().decode("utf-8", "replace")


def parse_dataset(source) -> Dataset:
    """Parse the dataset file at the path ``source``.

    Duplicate feature ids within a line are an error; duplicate labels are
    deduplicated and counted; explicit zero feature values are dropped and
    counted; lines with an empty label list are kept as unlabeled instances.
    CR and CRLF line endings read as LF.  Ids and the header's counts are
    ASCII ``[+-]digits``; values are ASCII spellings that float() accepts.
    """
    with open(source, "rb") as f:
        raw = f.read()
    if not raw:
        raise DataFormatError("empty input: missing header")
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    cut = raw.find(b"\n")
    if cut < 0:
        cut = len(raw)
    try:
        header = raw[:cut].decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataFormatError("header is not UTF-8 text") from e
    n, d, l = _parse_header(header)
    body = np.frombuffer(raw, dtype=np.uint8)[cut + 1:]

    # line i is body[starts[i]:ends[i]]; the last line may lack its newline
    breaks = np.flatnonzero(body == ord("\n"))
    n_lines = len(breaks) + int(len(body) > 0 and body[-1] != ord("\n"))
    m = min(n, n_lines)
    ends = np.append(breaks, len(body))[:m]
    starts = np.concatenate(([0], ends[:-1] + 1))[:m]
    # blocks of whole lines keep the scans' temporary arrays small; the
    # first, empty part gives each indptr its leading 0
    parts = [(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
              np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32),
              np.empty(0, dtype=np.int64), 0, 0)]
    a = 0
    while a < m:
        b = min(max(a + 1, int(np.searchsorted(ends, starts[a] + _BLOCK_BYTES, "right"))), m)
        lo = starts[a]
        parts.append(_parse_lines(body[lo:ends[b - 1]], starts[a:b] - lo, ends[a:b] - lo, a, d, l))
        a = b
    if n_lines < n:
        raise DataFormatError(f"expected {n} instance lines, found {n_lines}")
    trailer = raw[cut + 1 + (ends[-1] + 1 if m else 0):]
    if trailer.decode("utf-8", "replace").strip():
        raise DataFormatError("trailing content after the declared N instance lines")

    x_nnz, y_nnz, fid, fval, labels, dups, zeros = zip(*parts)
    n_dup, n_zero = sum(dups), sum(zeros)
    if n_dup:
        log.warning("deduplicated %d repeated label ids", n_dup)
    if n_zero:
        log.warning("dropped %d explicit zero feature values", n_zero)
    labels = np.concatenate(labels)
    X = sp.csr_matrix(
        (np.concatenate(fval), np.concatenate(fid), np.cumsum(np.concatenate(x_nnz))),
        shape=(n, d),
    )
    Y = sp.csr_matrix(
        (np.ones(len(labels), dtype=np.float32), labels, np.cumsum(np.concatenate(y_nnz))),
        shape=(n, l),
    )
    return Dataset(X, Y, ParseStats(n_dup, n_zero))


def _parse_lines(buf, starts, ends, first_line: int, d: int, l: int):
    """Tokenize the lines ``buf[starts[i]:ends[i]]`` (instance lines
    ``first_line + i``) with array scans and convert all ids and values in
    bulk.

    Returns the entries per line of X and Y, X's feature ids and float32
    values (sorted by id, zeros dropped), Y's label ids (sorted,
    deduplicated), and the counts of repeated labels and dropped zeros.
    Raises on the first bad line; within a line, on the first check it
    fails in the order: label ids, label range, feature tokens (left to
    right), feature range, finiteness, duplicate features.
    """

    lines = np.arange(len(starts))
    bounds = np.append(starts, len(buf))

    def line_of(pos):
        """Line of each of the ascending positions ``pos``."""
        return np.repeat(lines, np.diff(np.searchsorted(pos, bounds)))

    # newline padding lets the number scans read past a span's end
    buf = np.concatenate((buf, np.full(_INT_DIGITS + 1, ord("\n"), dtype=np.uint8)))

    # the label field runs up to the line's first space, the feature field
    # from there to its end
    spaces = np.flatnonzero(buf == ord(" "))
    lab_end = np.minimum(np.append(spaces, len(buf))[np.searchsorted(spaces, starts)], ends)
    del spaces
    commas = np.flatnonzero(buf == ord(","))
    commas = commas[commas < lab_end[line_of(commas)]]
    labeled = lab_end > starts
    lab_lo = np.sort(np.concatenate((starts[labeled], commas + 1)))
    lab_hi = np.sort(np.concatenate((commas, lab_end[labeled])))
    lab_line = line_of(lab_lo)
    labels, lab_ok = _read_ints(buf, lab_lo, lab_hi)

    # tokens are the runs between consecutive whitespace bytes, all of
    # which are <= 32
    gaps = np.flatnonzero(buf <= ord(" "))
    gaps = np.concatenate(([-1], gaps[_SPACE[buf[gaps]]]))
    run = np.flatnonzero(np.diff(gaps) > 1)
    tok_lo, tok_hi = gaps[run] + 1, gaps[run + 1]
    del gaps, run
    tok_line = line_of(tok_lo)
    in_field = tok_lo > lab_end[tok_line]
    tok_lo, tok_hi, tok_line = tok_lo[in_field], tok_hi[in_field], tok_line[in_field]
    colon = np.flatnonzero(buf == ord(":"))
    if len(colon) != len(tok_lo) or np.any((colon < tok_lo) | (colon >= tok_hi)):
        # not one colon per token: take each token's first one, if any
        colon = np.append(colon, len(buf))[np.searchsorted(colon, tok_lo)]
        colon = np.minimum(colon, tok_hi)
    paired = colon < tok_hi
    fid, fid_ok = _read_ints(buf, tok_lo, colon)
    fval, fval_ok = _read_floats(buf, colon + 1, tok_hi)
    with np.errstate(over="ignore"):
        fval = fval.astype(np.float32)
    tok_bad = ~(paired & fid_ok & fval_ok)

    def first_bad_labels():
        i = lab_line[~lab_ok][0]
        return f"bad label id in {_text(buf, starts[i], lab_end[i])!r}"

    def first_bad_token():
        t = np.flatnonzero(tok_bad)[0]
        kind = "bad pair" if paired[t] else "malformed pair"
        return f"{kind} {_text(buf, tok_lo[t], tok_hi[t])!r}"

    # (the lines failing a check in ascending order, the first one's
    # message), in the order the checks run within a line
    checks = [
        (lab_line[~lab_ok], first_bad_labels),
        (lab_line[lab_ok & ((labels < 0) | (labels >= l))],
         lambda: f"label id out of range [0, {l})"),
        (tok_line[tok_bad], first_bad_token),
        (tok_line[fid_ok & ((fid < 0) | (fid >= d))],
         lambda: f"feature id out of range [0, {d})"),
        (tok_line[fval_ok & ~np.isfinite(fval)], lambda: "non-finite feature value"),
    ]
    if np.any((tok_line[1:] == tok_line[:-1]) & (fid[1:] <= fid[:-1])):
        order = np.lexsort((fid, tok_line))
        tok_line, fid, fval = tok_line[order], fid[order], fval[order]
    same_line = tok_line[1:] == tok_line[:-1]
    checks.append(
        (tok_line[1:][same_line & (fid[1:] == fid[:-1])], lambda: "duplicate feature index")
    )
    failed = [(int(bad[0]), k) for k, (bad, _) in enumerate(checks) if len(bad)]
    if failed:
        line, k = min(failed)
        raise DataFormatError(f"line {first_line + line + 2}: {checks[k][1]()}")

    nonzero = fval != 0
    n_zero = len(fval) - int(np.count_nonzero(nonzero))
    if n_zero:
        tok_line, fid, fval = tok_line[nonzero], fid[nonzero], fval[nonzero]

    if np.any((lab_line[1:] == lab_line[:-1]) & (labels[1:] <= labels[:-1])):
        order = np.lexsort((labels, lab_line))
        lab_line, labels = lab_line[order], labels[order]
        first = np.concatenate(
            ([True], (lab_line[1:] != lab_line[:-1]) | (labels[1:] != labels[:-1]))
        )
        lab_line, labels = lab_line[first], labels[first]
    n_dup = len(lab_lo) - len(labels)
    x_nnz = np.bincount(tok_line, minlength=len(starts))
    y_nnz = np.bincount(lab_line, minlength=len(starts))
    return x_nnz, y_nnz, fid, fval, labels, n_dup, n_zero


def build_label_index(ds: Dataset) -> sp.csr_matrix:
    """Y's transpose, the L x N CSR matrix whose row j holds the sorted ids
    of the instances carrying label j."""
    return ds.Y.T.tocsr()


def label_frequency_histogram(counts, sink) -> None:
    """Write (rank, frequency) rows of the per-label ``counts``, sorted by
    descending frequency, to the open text stream ``sink``."""
    freqs = np.sort(np.asarray(counts))[::-1]
    for rank, c in enumerate(freqs, start=1):
        sink.write(f"{rank} {c}\n")


def normalize_instances(ds: Dataset) -> sp.csr_matrix:
    """``ds.X`` with every row scaled to unit L2 norm, as a float64 CSR
    matrix on X's own ``indices`` and ``indptr``.

    Zero rows are left untouched.  The norms are accumulated in float64,
    and the scaled values are rounded to float32, the precision of the
    parsed features.
    """
    X = ds.X
    v64 = X.data.astype(np.float64)
    row_sq = np.zeros(X.shape[0], dtype=np.float64)
    lengths = np.diff(X.indptr)
    nonempty = lengths > 0
    row_sq[nonempty] = np.add.reduceat(v64 * v64, X.indptr[:-1][nonempty])
    norms = np.sqrt(row_sq)
    norms[norms == 0] = 1.0
    scaled = (v64 / np.repeat(norms, lengths)).astype(np.float32).astype(np.float64)
    return sp.csr_matrix((scaled, X.indices, X.indptr), shape=X.shape)
