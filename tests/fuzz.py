"""Hypothesis strategies that corrupt saved files: a tree file, a model's
``meta`` file or a prediction file.  Each strategy draws an edit as a plain
tuple, so that a failing example prints readably, and ``apply_edit`` turns
it into the corrupted bytes.
"""

from __future__ import annotations

import struct

from hypothesis import strategies as st

# u32 values that land on boundaries: zero, small counts, the largest counts
# and indices, and the float32 bit patterns of +-inf and nan.
SPECIAL_U32 = [0, 1, 2, 3, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x7F800000, 0xFF800000, 0x7FC00000]

# tokens a prediction file must reject or read as a valid pair
PREDICTION_TOKENS = [
    "-1:0.5", "0:-0.5", "0:nan", "0:inf", "0:1e999", "99999999999999999999:0.5",
    "0", ":", "0:", ":0.5", "x:0.5", "0:x", "0:0.5:1", "١:0.5", "1_0:0.5",
]


@st.composite
def byte_edits(draw, size: int):
    """One edit of a binary file of ``size`` bytes: overwrite a byte or an
    aligned u32, truncate, or append bytes."""
    kind = draw(st.sampled_from(["byte", "u32", "truncate", "append"]))
    if kind == "byte":
        return ("byte", draw(st.integers(0, size - 1)), draw(st.integers(0, 255)))
    if kind == "u32":
        value = draw(st.one_of(
            st.sampled_from(SPECIAL_U32), st.integers(0, 64), st.integers(0, 2**32 - 1)
        ))
        return ("u32", 4 * draw(st.integers(0, size // 4 - 1)), value)
    if kind == "truncate":
        return ("truncate", draw(st.integers(0, size - 1)))
    return ("append", draw(st.binary(min_size=1, max_size=12)))


@st.composite
def meta_edits(draw, meta: bytes):
    """One edit of a ``meta`` file: set a line's value to a nearby integer
    or to other text, delete or repeat a line, or insert raw bytes."""
    lines = meta.split(b"\n")
    i = draw(st.integers(0, len(lines) - 2))  # the last piece is empty
    kind = draw(st.sampled_from(["int", "text", "delete", "repeat", "insert"]))
    if kind == "int":
        value = lines[i].partition(b"=")[2]
        top = 2 * int(value) + 2 if value.isdigit() else 8
        return ("line", i, lines[i].partition(b"=")[0] + b"=%d" % draw(st.integers(-2, top)))
    if kind == "text":
        text = draw(st.text(max_size=6)).encode("utf-8")
        return ("line", i, lines[i].partition(b"=")[0] + b"=" + text)
    if kind == "delete":
        return ("line", i, None)
    if kind == "repeat":
        return ("line", i, lines[i] + b"\n" + lines[i])
    return ("insert", draw(st.integers(0, len(meta))), draw(st.binary(min_size=1, max_size=6)))


@st.composite
def prediction_edits(draw, text: bytes):
    """One edit of a prediction file: a byte-level edit, inserted raw
    bytes, or one `label:score` token replaced."""
    kind = draw(st.sampled_from(["bytes", "insert", "token"]))
    if kind == "bytes":
        return draw(byte_edits(len(text)))
    if kind == "insert":
        return ("insert", draw(st.integers(0, len(text))), draw(st.binary(min_size=1, max_size=6)))
    lines = text.split(b"\n")
    i = draw(st.integers(0, len(lines) - 2))
    tokens = lines[i].split(b" ")
    j = draw(st.integers(0, len(tokens) - 1))
    return ("token", i, j, draw(st.sampled_from(PREDICTION_TOKENS)).encode("utf-8"))


def apply_edit(buf: bytes, edit: tuple) -> bytes:
    kind = edit[0]
    if kind == "byte":
        _, pos, value = edit
        return buf[:pos] + bytes([value]) + buf[pos + 1:]
    if kind == "u32":
        _, pos, value = edit
        return buf[:pos] + struct.pack("<I", value) + buf[pos + 4:]
    if kind == "truncate":
        return buf[: edit[1]]
    if kind == "append":
        return buf + edit[1]
    if kind == "insert":
        _, pos, raw = edit
        return buf[:pos] + raw + buf[pos:]
    lines = buf.split(b"\n")
    if kind == "line":
        _, i, new = edit
        lines[i : i + 1] = [] if new is None else [new]
    else:
        _, i, j, token = edit
        tokens = lines[i].split(b" ")
        tokens[j] = token
        lines[i] = b" ".join(tokens)
    return b"\n".join(lines)
