"""Every integer a file spells is read by ``data.read_int``, so a file
loads or fails with one message whatever Python's int() digit limit.

Each case puts an integer of 5,000 digits in one place of one file and
runs the CLI at the lowest limit ``sys.set_int_max_str_digits`` takes
(640), with no limit (0) and at the default (4300).  The integer is out of
range at all three: the command exits 2 with the same message.  A flag's
integer is read by ``read_int`` too, and one out of range exits 1.
"""

import shutil
import sys

import pytest

from labelforest.cli import main
from labelforest.tree import META_KEYS, TrainConfig

LONG = "9" * 5000
LIMITS = [640, 0, 4300]
DATA = ["4 3 2", "0 0:1.0", "1 1:1.0", "0 0:0.5 2:1.0", "1 1:0.5 2:1.0"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A data file and a one-tree model trained on it."""
    root = tmp_path_factory.mktemp("boundary")
    (root / "data.txt").write_text("\n".join(DATA) + "\n")
    assert main(["train", "--data", str(root / "data.txt"), "--model", str(root / "model"),
                 "--trees", "1", "--branch", "2"]) == 0
    return root


def outcomes(argv, capsys) -> list[tuple[int, str]]:
    """``main(argv)``'s exit code and stderr at each of ``LIMITS``."""
    default = sys.get_int_max_str_digits()
    capsys.readouterr()
    seen = []
    try:
        for limit in LIMITS:
            sys.set_int_max_str_digits(limit)
            seen.append((main(argv), capsys.readouterr().err))
    finally:
        sys.set_int_max_str_digits(default)
    return seen


def assert_data_error_at_every_limit(argv, capsys, message):
    seen = outcomes(argv, capsys)
    assert f"data error: {message}\n" in seen[0][1]
    assert seen == [(2, seen[0][1])] * len(LIMITS)


@pytest.mark.parametrize("field", [0, 1, 2], ids=["N", "D", "L"])
def test_header_count(tmp_path, capsys, field):
    counts = DATA[0].split()
    counts[field] = LONG
    path = tmp_path / "data.txt"
    path.write_text("\n".join([" ".join(counts), *DATA[1:]]) + "\n")
    assert_data_error_at_every_limit(["stats", "--data", str(path)], capsys,
                                     f"{path}: header count out of range [0, 2**63)")


@pytest.mark.parametrize("line, message", [
    (f"{LONG} 0:1.0", "line 2: label id out of range [0, 2)"),
    (f"0 {LONG}:1.0", "line 2: feature id out of range [0, 3)"),
], ids=["label id", "feature id"])
def test_body_id(tmp_path, capsys, line, message):
    path = tmp_path / "data.txt"
    path.write_text("\n".join([DATA[0], line, *DATA[2:]]) + "\n")
    assert_data_error_at_every_limit(["stats", "--data", str(path)], capsys, f"{path}: {message}")


def test_prediction_label_id(files, tmp_path, capsys):
    path = tmp_path / "pred.txt"
    path.write_text(f"{LONG}:0.5\n0:0.5\n1:0.5\n0:0.5\n")
    assert_data_error_at_every_limit(
        ["eval", "--predictions", str(path), "--data", str(files / "data.txt")], capsys,
        f"{path}: line 1: label id out of range")


def test_unedited_model_predicts_at_every_limit(files, tmp_path, capsys):
    argv = ["predict", "--model", str(files / "model"), "--data", str(files / "data.txt"),
            "--output", str(tmp_path / "pred.txt")]
    assert [rc for rc, _ in outcomes(argv, capsys)] == [0] * len(LIMITS)


@pytest.mark.parametrize("key", ["version", "T", "K", "d_max", "D", "L", "base_seed"])
def test_meta_integer(files, tmp_path, capsys, key):
    model = tmp_path / "model"
    shutil.copytree(files / "model", model)
    lines = (model / "meta").read_text().splitlines()
    assert [line.partition("=")[0] for line in lines] == list(META_KEYS)
    (model / "meta").write_text("".join(
        f"{k}={LONG}\n" if k == key else f"{k}={v}\n"
        for k, _, v in (line.partition("=") for line in lines)))
    assert_data_error_at_every_limit(
        ["predict", "--model", str(model), "--data", str(files / "data.txt"),
         "--output", str(tmp_path / "pred.txt")], capsys,
        "bad meta file: integer out of range [-2**63, 2**63)")


@pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 1e19, LONG],
                         ids=["2**63", "-2**63 - 1", "1e19", "5,000 digits"])
def test_train_config_takes_int64_only(value):
    """``train`` cannot write a meta file ``load_model`` rejects."""
    with pytest.raises(ValueError, match="out of range"):
        TrainConfig(k=value)
    assert TrainConfig(k=2**63 - 1).k == 2**63 - 1


def test_train_flag_past_int64_is_usage(files, tmp_path, capsys):
    assert main(["train", "--data", str(files / "data.txt"), "--model", str(tmp_path / "m"),
                 "--seed", str(2**63)]) == 1
    assert "integer out of range" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_flag_of_a_thousand_digits_is_usage_at_every_limit(tmp_path, capsys):
    """int() refuses 1,000 digits at the limit 640 and reads them with no
    limit, so a ``--branch`` of that length once exited 1 or, past the
    flags, 2 on the missing data file."""
    argv = ["train", "--data", str(tmp_path / "absent.txt"), "--model", str(tmp_path / "m"),
            "--branch", "9" * 1000]
    seen = outcomes(argv, capsys)
    assert "train: argument --branch: integer out of range [-2**63, 2**63)\n" in seen[0][1]
    assert seen == [(1, seen[0][1])] * len(LIMITS)
