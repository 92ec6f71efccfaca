"""End-to-end tests for the command-line interface."""

import hashlib
import logging
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grouped_dataset, random_dataset
from fuzz import apply_edit, byte_edits, prediction_edits
from helpers import (
    children,
    dataset_to_text,
    node_weights,
    put_id,
    row,
    tree_file_sections,
    widened,
    write_model,
)
from metrics_oracle import evaluate_oracle
from labelforest import cli, solver, tree
from labelforest.cli import main
from labelforest.data import DataFormatError, normalize_instances, parse_dataset
from labelforest.metrics import evaluate, fit_propensities
from labelforest.predict import (
    Predictions,
    predict_ensemble,
    read_predictions,
    write_predictions,
)
from labelforest.tree import (
    FORMAT_VERSION,
    NODE,
    TrainConfig,
    TrainReport,
    load_model,
    train_ensemble,
)


def parse_table(text: str) -> dict[str, list[float]]:
    lines = text.strip().splitlines()
    assert lines[0].split() == ["metric", "@1", "@3", "@5"]
    return {ln.split()[0]: [float(v) for v in ln.split()[1:]] for ln in lines[1:]}


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """A 50-label synthetic train/test pair on disk plus scratch space."""
    root = tmp_path_factory.mktemp("cli")
    train, _ = grouped_dataset(7, n=400, groups=10, labels_per_group=5)
    test, _ = grouped_dataset(8, n=150, groups=10, labels_per_group=5)
    (root / "train.txt").write_text(dataset_to_text(train))
    (root / "test.txt").write_text(dataset_to_text(test))
    return {
        "root": root,
        "train": str(root / "train.txt"),
        "test": str(root / "test.txt"),
        "model": str(root / "model"),
        "pred": str(root / "pred.txt"),
    }


@pytest.fixture(scope="module")
def trained(paths):
    rc = main(
        ["train", "--data", paths["train"], "--model", paths["model"],
         "--branch", "8", "--seed", "3"]
    )
    assert rc == 0
    return paths["model"]


@pytest.fixture(scope="module")
def predicted(paths, trained):
    """The test split's prediction file at ``paths["pred"]``, written once
    by ``predict`` from the trained model."""
    assert main(["predict", "--model", trained, "--data", paths["test"],
                 "--output", paths["pred"]]) == 0
    return paths["pred"]


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """A train/test pair with D = 65,537 in its header and its features at
    the top of that range, and a one-tree model trained on it, which
    stores 4-byte feature ids."""
    root = tmp_path_factory.mktemp("wide")
    out = {"model": str(root / "model")}
    for name, seed, n in [("train", 7, 200), ("test", 8, 40)]:
        ds, _ = grouped_dataset(seed, n=n, groups=4, labels_per_group=4)
        out[name] = str(root / f"{name}.txt")
        Path(out[name]).write_text(dataset_to_text(widened(ds, 65537)))
    assert main(["train", "--data", out["train"], "--model", out["model"], "--trees", "1",
                 "--branch", "3", "--seed", "1"]) == 0
    return out


class TestPipeline:
    def test_under_ten_seconds_and_beats_majority(self, paths, trained, capsys):
        t0 = time.perf_counter()
        assert main(["predict", "--model", trained, "--data", paths["test"],
                     "--output", paths["pred"]]) == 0
        assert main(["eval", "--predictions", paths["pred"], "--data", paths["test"],
                     "--train-data", paths["train"]]) == 0
        assert time.perf_counter() - t0 < 10.0

        table = parse_table(capsys.readouterr().out)
        train = parse_dataset(paths["train"])
        test = parse_dataset(paths["test"])
        counts = np.zeros(train.l, dtype=np.int64)
        np.add.at(counts, train.Y.indices, 1)
        majority = int(np.argmax(counts))
        hits = sum(
            majority in row(test.Y, i).indices.tolist() for i in range(test.n)
        )
        baseline = 100.0 * hits / test.n
        assert table["P"][0] >= baseline

    def test_prediction_file_matches_library_route(self, paths, trained, predicted, tmp_path):
        ens = load_model(trained)
        X = normalize_instances(parse_dataset(paths["test"]))
        results = [predict_ensemble(ens, X[i : i + 1], beam=10, k=5) for i in range(X.shape[0])]
        ref = tmp_path / "ref.txt"
        write_predictions(
            Predictions.from_rows([r.labels for r in results], [r.scores for r in results]), ref
        )
        got = Path(paths["pred"]).read_text(encoding="utf-8")
        want = ref.read_text(encoding="utf-8")
        # the batched and per-instance routes agree to many more digits
        # than the 5 printed decimals, so the files must match exactly
        assert got == want

    def test_eps_survives_save_and_load(self, paths, tmp_path):
        model = tmp_path / "m"
        assert main(["train", "--data", paths["train"], "--model", str(model),
                     "--trees", "1", "--branch", "8", "--eps", "0.5"]) == 0
        assert "eps=0.5\n" in (model / "meta").read_text()
        assert load_model(model).config.eps == 0.5

    def test_every_setting_reaches_the_model(self, paths, tmp_path):
        """A flag for each setting, each off its default, comes back from the
        saved model's meta file."""
        want = TrainConfig(n_trees=2, k=4, d_max=2, repr_space="joint", c=2.5, eps=0.05,
                           delta=0.02, base_seed=7)
        for field in fields(TrainConfig):
            assert getattr(want, field.name) != getattr(TrainConfig(), field.name)
        model = tmp_path / "m"
        assert main(["train", "--data", paths["train"], "--model", str(model),
                     "--trees", "2", "--branch", "4", "--max-depth", "2", "--repr", "joint",
                     "--c", "2.5", "--eps", "0.05", "--delta", "0.02", "--seed", "7"]) == 0
        assert load_model(model).config == want

    def test_bare_train_parses_into_the_config_defaults(self):
        """``--max-depth`` aside, whose default waits for L."""
        args = cli.build_parser().parse_args(["train", "--data", "d", "--model", "m"])
        assert args.d_max is None
        got = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if f.name != "d_max"}
        assert got == {k: v for k, v in asdict(TrainConfig()).items() if k != "d_max"}

    def test_deterministic_given_seed(self, paths, trained, predicted):
        other = str(paths["root"] / "model2")
        assert main(["train", "--data", paths["train"], "--model", other,
                     "--branch", "8", "--seed", "3"]) == 0
        for name in ("meta", "tree_0.bin", "tree_1.bin", "tree_2.bin"):
            a = Path(trained, name).read_bytes()
            b = Path(other, name).read_bytes()
            assert a == b, name
        pred2 = str(paths["root"] / "pred2.txt")
        assert main(["predict", "--model", other, "--data", paths["test"],
                     "--output", pred2]) == 0
        assert Path(pred2).read_text() == Path(paths["pred"]).read_text()

    def test_summary_reports_newton_counters(self, paths, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="labelforest")
        assert main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"),
                     "--branch", "8", "--trees", "1"]) == 0
        summary = [r.getMessage() for r in caplog.records if "classifiers (" in r.getMessage()]
        assert len(summary) == 1
        m = re.search(r"(\d+) Newton steps, (\d+) classifiers stopped at the Newton cap",
                      summary[0])
        assert m and int(m.group(1)) > 0 and int(m.group(2)) == 0
        m = re.search(r"(\d+) weights kept, (\d+) pruned", summary[0])
        ens = load_model(tmp_path / "m")
        kept = len(ens.trees[0].ids)
        assert m and int(m.group(1)) == kept > 0 and int(m.group(2)) > 0

    def test_summary_reports_cg_steps_and_instance_nodes(self, paths, tmp_path, caplog,
                                                         monkeypatch):
        caplog.set_level(logging.INFO, logger="labelforest")
        solves = []

        def spy(X, problems, **kwargs):
            solves.extend(train_nodes(X, problems, **kwargs))
            return solves[len(solves) - len(problems):]

        train_nodes = tree.train_nodes
        monkeypatch.setattr(tree, "train_nodes", spy)
        assert main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"),
                     "--branch", "2", "--max-depth", "6", "--trees", "1"]) == 0
        summary = [r.getMessage() for r in caplog.records if "classifiers (" in r.getMessage()]
        m = re.search(r"(\d+) CG steps, (\d+) nodes solved in instance coordinates",
                      summary[0])
        assert m and int(m.group(1)) == sum(int(s.cg_iters.sum()) for s in solves) > 0
        assert int(m.group(2)) == sum(s.in_instances for s in solves) > 0

    def test_summary_reports_solve_batches(self, paths, tmp_path, caplog, monkeypatch):
        """The solve batches at the end of the summary are the run's
        ``_tron`` calls, fewer than its nodes once small nodes share them."""
        caplog.set_level(logging.INFO, logger="labelforest")
        calls = []

        def spy(space, Y, *args):
            calls.append(Y.shape[1])
            return tron(space, Y, *args)

        tron = solver._tron
        monkeypatch.setattr(solver, "_tron", spy)
        assert main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"),
                     "--branch", "2", "--max-depth", "6", "--trees", "1"]) == 0
        summary = [r.getMessage() for r in caplog.records if "classifiers (" in r.getMessage()]
        m = re.search(r"^trained 1 trees: (\d+) nodes.*; (\d+) solve batches$", summary[0])
        assert m and int(m.group(2)) == len(calls) < int(m.group(1))

    def test_summary_reports_kmeans_splits_and_rounds(self, paths, tmp_path, caplog,
                                                      monkeypatch):
        """The k-means splits and Lloyd rounds in the summary are those of
        the splits the run made."""
        caplog.set_level(logging.INFO, logger="labelforest")
        parts = []

        def spy(V, K, seed):
            parts.append(split(V, K=K, seed=seed))
            return parts[-1]

        split = tree.kmeans_partition
        monkeypatch.setattr(tree, "kmeans_partition", spy)
        assert main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"),
                     "--branch", "4", "--max-depth", "2", "--trees", "2"]) == 0
        summary = [r.getMessage() for r in caplog.records if "classifiers (" in r.getMessage()]
        m = re.search(r"(\d+) k-means splits in (\d+) Lloyd rounds", summary[0])
        assert m and int(m.group(1)) == len(parts) > 2
        assert int(m.group(2)) == sum(p.n_iters_run for p in parts) > len(parts)


class TestStreamedTrain:
    """``train`` writes each tree's file as soon as the tree is trained, and
    meta last: its directory has the bytes that ``train_ensemble`` alone
    writes, and a run that stops part-way leaves no loadable model."""

    @pytest.mark.parametrize("n_trees", [1, 2, 3])
    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("space", ["input", "joint"])
    def test_directory_is_the_library_routes_bytes(self, paths, tmp_path, space, depth,
                                                   n_trees):
        streamed, saved = tmp_path / "streamed", tmp_path / "saved"
        assert main(["train", "--data", paths["train"], "--model", str(streamed),
                     "--trees", str(n_trees), "--branch", "4", "--max-depth", str(depth),
                     "--repr", space, "--seed", "5"]) == 0
        config = TrainConfig(n_trees=n_trees, k=4, d_max=depth, repr_space=space, base_seed=5)
        train_ensemble(parse_dataset(paths["train"]), config, TrainReport(), saved)
        assert max(t.nodes["depth"].max() for t in load_model(saved).trees) == depth
        assert sorted(os.listdir(streamed)) == sorted(os.listdir(saved)) == \
            ["meta"] + [f"tree_{t}.bin" for t in range(n_trees)]
        assert _sha256_of_dir(streamed) == _sha256_of_dir(saved)

    def test_library_route_writes_a_loadable_model(self, paths, tmp_path):
        """``train_ensemble`` alone writes the whole model, meta included,
        and returns nothing: the directory loads with no further call."""
        model = tmp_path / "m"
        config = TrainConfig(n_trees=2, k=8, base_seed=3)
        ds = parse_dataset(paths["train"])
        assert train_ensemble(ds, config, TrainReport(), model) is None
        assert sorted(os.listdir(model)) == ["meta", "tree_0.bin", "tree_1.bin"]
        ens = load_model(model)
        assert (ens.config, ens.d, ens.l, len(ens.trees)) == (config, ds.d, ds.l, 2)

    def test_fewer_trees_leave_no_tree_of_the_older_model(self, paths, tmp_path):
        model = tmp_path / "m"
        for n_trees in (3, 1):
            assert main(["train", "--data", paths["train"], "--model", str(model),
                         "--trees", str(n_trees), "--branch", "4"]) == 0
        assert sorted(os.listdir(model)) == ["meta", "tree_0.bin"]
        assert len(load_model(model).trees) == 1

    def test_interrupted_train_leaves_no_loadable_model(self, paths, trained, tmp_path,
                                                         monkeypatch, capsys):
        """A run that fails while solving its second tree, over a directory
        holding an older model, leaves tree_0 written and no meta."""
        model = tmp_path / "m"
        shutil.copytree(trained, model)
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("stopped")
            return train_nodes(*args, **kwargs)

        train_nodes = tree.train_nodes
        monkeypatch.setattr(tree, "train_nodes", fail_second)
        old = (model / "tree_0.bin").read_bytes()
        assert main(["train", "--data", paths["train"], "--model", str(model),
                     "--branch", "4", "--seed", "9"]) == 3
        assert len(calls) == 2 and (model / "tree_0.bin").read_bytes() != old
        assert not (model / "meta").exists()
        with pytest.raises(DataFormatError, match="no meta file"):
            load_model(model)
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--data", paths["test"],
                     "--output", str(tmp_path / "pred.txt")]) == 2
        assert "data error: no meta file" in capsys.readouterr().err

    def test_save_timing_counts_every_tree_write(self, paths, tmp_path, monkeypatch, caplog):
        """The ``timings:`` line's save is the time spent writing the tree
        files during training plus meta after it."""
        def slow_write(*args):
            time.sleep(0.1)
            write(*args)

        write = tree._write_tree
        monkeypatch.setattr(tree, "_write_tree", slow_write)
        caplog.set_level(logging.INFO, logger="labelforest")
        assert main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"),
                     "--trees", "3", "--branch", "8"]) == 0
        line = next(r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("timings:"))
        assert float(re.search(r"save (\d+\.\d+)s", line).group(1)) >= 0.3


class TestBeamFlag:
    def test_beam_above_fanout_equals_exhaustive(self, paths, tmp_path):
        model = str(tmp_path / "wide")
        pred = str(tmp_path / "wide_pred.txt")
        assert main(["train", "--data", paths["train"], "--model", model,
                     "--branch", "25", "--max-depth", "1", "--seed", "5"]) == 0
        assert main(["predict", "--model", model, "--data", paths["test"],
                     "--output", pred, "--beam", "100"]) == 0

        ens = load_model(model)
        assert all(len(children(t, 0)) <= 25 for t in ens.trees)
        X = normalize_instances(parse_dataset(paths["test"]))
        got = read_predictions(pred)
        for i in range(0, X.shape[0], 10):
            x = row(X, i)
            sums: dict[int, float] = {}
            for tree in ens.trees:
                for leaf, clf in zip(children(tree, 0), node_weights(tree, 0), strict=True):
                    lp = -math.log1p(math.exp(-clf.margin(x))) if clf.margin(x) > -30 else clf.margin(x)
                    for lab, leaf_clf in zip(tree.node_labels(leaf), node_weights(tree, leaf)):
                        m = leaf_clf.margin(x)
                        s = math.exp(lp) / (1.0 + math.exp(-m))
                        sums[int(lab)] = sums.get(int(lab), 0.0) + s
            scores = np.array([sums[l] / len(ens.trees) for l in sorted(sums)])
            labels = np.array(sorted(sums))
            order = np.lexsort((labels, -scores))[:5]
            assert got[i].labels.tolist() == labels[order].tolist()
            np.testing.assert_allclose(got[i].scores, scores[order], atol=5e-6)


class TestEval:
    def test_uniform_propensity_reduces_to_unscored(self, tmp_path, capsys):
        # every instance carries 5 true labels so the propensity-scored
        # oracle gain is exactly 1 per instance and the normalized PS rows
        # can collapse onto the plain ones
        rng = np.random.default_rng(11)
        lines = ["30 4 12"]
        truths = []
        for i in range(30):
            t = sorted(rng.choice(12, size=5, replace=False).tolist())
            truths.append(t)
            lines.append(",".join(map(str, t)) + f" 0:1.0 2:{1 + i % 3}.5")
        data = tmp_path / "truth.txt"
        data.write_text("\n".join(lines) + "\n")
        pred = tmp_path / "pred.txt"
        with open(pred, "w") as f:
            for t in truths:
                picks = rng.permutation(12)[:5]
                f.write(" ".join(f"{p}:{0.9 - 0.1 * j:.5f}" for j, p in enumerate(picks)) + "\n")

        assert main(["eval", "--predictions", str(pred), "--data", str(data),
                     "--uniform-propensity"]) == 0
        table = parse_table(capsys.readouterr().out)
        assert table["PSP"] == table["P"]
        assert table["PSnDCG"] == table["nDCG"]

    def test_output_file_matches_stdout(self, paths, predicted, capsys):
        out = str(paths["root"] / "report.txt")
        assert main(["eval", "--predictions", paths["pred"], "--data", paths["test"],
                     "--train-data", paths["train"], "--output", out]) == 0
        stdout = capsys.readouterr().out
        assert Path(out).read_text().strip() == stdout.strip()

    def test_row_count_mismatch_is_data_error(self, paths, predicted, tmp_path):
        short = tmp_path / "short.txt"
        short.write_text("".join(Path(paths["pred"]).read_text().splitlines(True)[:10]))
        rc = main(["eval", "--predictions", str(short), "--data", paths["test"]])
        assert rc == 2

    @pytest.mark.parametrize("edit, message", [
        (lambda pairs: [pairs[0]] * 5, "line 3: repeated label id"),
        (lambda pairs: pairs[:1] + [pairs[0].split(":")[0] + ":0.1"], "line 3: repeated label id"),
        (lambda pairs: [pairs[0].split(":")[0] + ":nan"] + pairs[1:], "line 3: non-finite score"),
        (lambda pairs: pairs[:-1] + [pairs[-1].split(":")[0] + ":inf"], "line 3: non-finite score"),
    ], ids=["label five times", "label twice", "nan score", "inf score"])
    def test_bad_prediction_row_is_data_error(self, paths, predicted, tmp_path, capsys,
                                              edit, message):
        lines = Path(paths["pred"]).read_text().splitlines()
        lines[2] = " ".join(edit(lines[2].split()))
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--predictions", str(bad), "--data", paths["test"]])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_repeated_true_label_scores_cannot_pass_100(self, paths, trained, tmp_path, capsys):
        """Repeating each row's first true label used to score P@5 = 100."""
        test = parse_dataset(paths["test"])
        rows = [f"{row(test.Y, i).indices[0]}:0.9 " * 5 for i in range(test.n)]
        bad = tmp_path / "repeat.txt"
        bad.write_text("\n".join(r.strip() for r in rows) + "\n")
        assert main(["eval", "--predictions", str(bad), "--data", paths["test"]]) == 2
        assert "line 1: repeated label id" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--a", "nan"], ["--b", "-5"]], ids=["a nan", "b -5"])
    def test_bad_propensity_parameters_are_usage(self, paths, predicted, capsys, flags):
        rc = main(["eval", "--predictions", paths["pred"], "--data", paths["test"], *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--a" in captured.err and "--b" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags", [
        ["--train-data", "/nonexistent"], ["--a", "nan"], ["--b", "1.5"],
        ["--train-data", "/nonexistent", "--a", "nan"],
    ], ids=["train-data", "a", "b", "train-data and a"])
    def test_uniform_propensity_with_fit_flags_is_usage(self, paths, predicted, capsys, flags):
        rc = main(["eval", "--predictions", paths["pred"], "--data", paths["test"],
                   "--uniform-propensity", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert "--uniform-propensity takes no " + flags[0] in captured.err
        assert captured.out == ""

    def test_propensity_parameters_keep_their_outputs(self, paths, predicted, capsys):
        """Leaving out --a and --b fits with 0.55 and 1.5; other values fit
        with those values."""
        base = ["eval", "--predictions", paths["pred"], "--data", paths["test"]]
        tables = []
        for flags in ([], ["--a", "0.55", "--b", "1.5"], ["--a", "0.6"], ["--b", "2.5"]):
            assert main(base + flags) == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]
        test = parse_dataset(paths["test"])
        freqs = np.bincount(test.Y.indices, minlength=test.l)
        preds = read_predictions(paths["pred"])
        for table, (a, b) in zip(tables[2:], [(0.6, 1.5), (0.55, 2.5)]):
            prop = fit_propensities(freqs, test.n, a, b)
            assert table == evaluate(preds, test.Y, prop, (1, 3, 5)).format() + "\n"
            assert table != tables[0]

    @pytest.mark.parametrize("pair, message", [
        ("\uff11:0.5", "line 3: non-ASCII character '\uff11'"),
        ("1_0:0.5", "line 3: bad label id in '1_0:0.5'"),
        ("3:0.5\u00a04:0.25", "line 3: non-ASCII character '\\xa0'"),
    ], ids=["fullwidth digit", "underscore", "no-break space"])
    def test_label_id_spelled_as_the_data_parser_reads(self, paths, predicted, tmp_path, capsys,
                                                        pair, message):
        lines = Path(paths["pred"]).read_text().splitlines()
        lines[2] = pair
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["eval", "--predictions", str(bad), "--data", paths["test"]])
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_form_feed_in_a_prediction_row_is_not_a_row_break(self, tmp_path, capsys):
        """A form feed inside a row once split it in two, and the file then
        held 4 rows for 3 instances."""
        truth = tmp_path / "truth.txt"
        truth.write_text("3 2 2\n0 0:1.0\n1 1:1.0\n0 0:1.0\n")
        pred = tmp_path / "pred.txt"
        pred.write_bytes(b"0:0.9\x0c1:0.5\n1:0.5\n0:0.3\n")
        assert main(["eval", "--predictions", str(pred), "--data", str(truth),
                     "--uniform-propensity"]) == 0
        assert parse_table(capsys.readouterr().out)["P"][0] == 100.0

    def test_negative_label_id_is_data_error(self, paths, predicted, tmp_path, capsys):
        lines = Path(paths["pred"]).read_text().splitlines()
        lines[0] = "-1:0.9 " + " ".join(lines[0].split()[1:])
        bad = tmp_path / "negative.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--predictions", str(bad), "--data", paths["test"]])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err


    def test_label_id_past_l_is_data_error(self, paths, predicted, tmp_path, capsys):
        l = parse_dataset(paths["test"]).l
        lines = Path(paths["pred"]).read_text().splitlines()
        lines[1] = f"{l}:0.9 " + " ".join(lines[1].split()[1:])
        bad = tmp_path / "past_l.txt"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["eval", "--predictions", str(bad), "--data", paths["test"]])
        assert rc == 2
        assert f"line 2: predicted label id out of range [0, {l})" in capsys.readouterr().err

    def test_propensity_source_of_another_l_is_data_error(self, paths, predicted, tmp_path,
                                                          capsys):
        other = tmp_path / "other.txt"
        other.write_text("2 3 7\n0 0:1.0\n6 1:1.0\n")
        rc = main(["eval", "--predictions", paths["pred"], "--data", paths["test"],
                   "--train-data", str(other)])
        assert rc == 2
        l = parse_dataset(paths["test"]).l
        assert f"propensity source has L=7, ground truth has L={l}" in capsys.readouterr().err

    def test_truth_without_labels_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text("2 3 4\n 0:1.0\n 1:2.0\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("0:0.9\n1:0.5\n")
        assert main(["eval", "--predictions", str(pred), "--data", str(truth)]) == 2
        assert "data error: oracle gain is zero" in capsys.readouterr().err

    def test_empty_test_set_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text("0 3 4\n")
        pred = tmp_path / "pred.txt"
        pred.write_text("")
        assert main(["eval", "--predictions", str(pred), "--data", str(truth)]) == 2
        assert "data error: empty test set" in capsys.readouterr().err


class TestDegenerateSplit:
    @pytest.mark.parametrize("max_depth", ["5", "1100"])
    def test_labels_in_one_cluster_make_a_leaf(self, tmp_path, max_depth):
        """Every row carries the same 10 labels, so the labels' vectors are
        equal and k-means puts them all in one cluster.  Each tree is then
        one leaf, not a chain of single-child nodes down to the depth cap."""
        rng = np.random.default_rng(4)
        rows = [" ".join(f"{j}:{v:.3f}" for j, v in enumerate(rng.random(6) + 0.1))
                for _ in range(40)]
        data = tmp_path / "same.txt"
        data.write_text("40 6 10\n" + "".join(f"0,1,2,3,4,5,6,7,8,9 {r}\n" for r in rows))
        assert main(["train", "--data", str(data), "--model", str(tmp_path / "m"),
                     "--branch", "2", "--max-depth", max_depth]) == 0
        ens = load_model(tmp_path / "m")
        assert sum(len(tree.nodes) for tree in ens.trees) == 3


class TestStats:
    def test_hand_checked_counts(self, tmp_path, capsys):
        f = tmp_path / "toy.txt"
        f.write_text("2 4 2\n0,1 0:1.0 3:2.0\n 1:2.0\n")
        assert main(["stats", "--data", str(f)]) == 0
        out = capsys.readouterr().out.splitlines()
        # the unlabeled instance counts toward N but adds no occurrences
        assert out[:5] == ["N 2", "D 4", "L 2", "APpL 1.00", "ALpP 1.00"]
        assert out[5:] == ["1 1", "2 1"]

    def test_pooled_files_sum(self, tmp_path, capsys):
        f = tmp_path / "toy.txt"
        f.write_text("2 4 2\n0,1 0:1.0 3:2.0\n 1:2.0\n")
        h = tmp_path / "hist.txt"
        assert main(["stats", "--data", str(f), str(f), "--output", str(h)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["N 4", "D 4", "L 2", "APpL 2.00", "ALpP 1.00"]
        assert h.read_text() == "1 2\n2 2\n"

    def test_dimension_disagreement_is_data_error(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1 2 2\n0 0:1.0\n")
        b.write_text("1 3 2\n0 0:1.0\n")
        assert main(["stats", "--data", str(a), str(b)]) == 2


class TestExitCodes:
    def test_missing_required_flag_is_usage(self, paths):
        assert main(["train", "--data", paths["train"]]) == 1

    def test_unknown_subcommand_is_usage(self):
        assert main(["frobnicate"]) == 1

    def test_bad_cutoff_list_is_usage(self, paths, trained):
        rc = main(["predict", "--model", trained, "--data", paths["test"],
                   "--output", "/dev/null", "--k", "0,3"])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["train", "--data", "train", "--model", "m", "--threads", "2"],
        ["predict", "--model", "m", "--data", "test", "--output", "p", "--seed", "1"],
        ["eval", "--predictions", "p", "--data", "test", "--seed", "1"],
    ], ids=["train --threads", "predict --seed", "eval --seed"])
    def test_removed_flags_are_usage(self, argv):
        assert main(argv) == 1

    @pytest.mark.parametrize("flags", [["--c", "inf"], ["--delta", "nan"], ["--eps", "inf"]],
                             ids=["c inf", "delta nan", "eps inf"])
    def test_non_finite_solver_setting_is_usage(self, paths, tmp_path, capsys, flags):
        rc = main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"), *flags])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    def test_branch_below_two_is_usage(self, paths, tmp_path):
        rc = main(["train", "--data", paths["train"],
                   "--model", str(tmp_path / "m"), "--branch", "1"])
        assert rc == 1

    def test_training_data_without_labels_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "nolabels.txt"
        f.write_text("2 3 0\n 0:1.0\n 1:2.0 2:0.5\n")
        assert main(["train", "--data", str(f), "--model", str(tmp_path / "m")]) == 2
        assert "data error: training needs at least one label" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("command, header", [
        ("stats", f"0 1 {2**62}"),
        ("eval", f"0 1 {2**62}"),
        ("train", f"0 {2**62} 3"),
    ], ids=["stats", "eval", "train"])
    def test_header_count_past_u32_ids_is_data_error(self, tmp_path, capsys, command, header):
        """A D or L the model format's u32 ids cannot hold is rejected on
        read, before anything is sized by it."""
        data, pred = tmp_path / "huge.txt", tmp_path / "pred.txt"
        data.write_text(header + "\n")
        pred.write_text("")
        argv = {
            "stats": ["stats", "--data", str(data)],
            "eval": ["eval", "--predictions", str(pred), "--data", str(data)],
            "train": ["train", "--data", str(data), "--model", str(tmp_path / "m")],
        }[command]
        assert main(argv) == 2
        assert "D or L out of range" in capsys.readouterr().err

    def test_header_off_the_id_grammar_is_data_error(self, tmp_path, capsys):
        """int() reads "\u0661" (an Arabic-Indic one) as 1; the header takes
        the ids' ASCII grammar only."""
        f = tmp_path / "digits.txt"
        f.write_text("\u0661 3 2\n0 0:1.0\n", encoding="utf-8")
        assert main(["stats", "--data", str(f)]) == 2
        assert "data error: non-integer header field" in capsys.readouterr().err

    def test_header_with_a_unicode_space_is_data_error(self, tmp_path, capsys):
        """str.split() reads "1\u20033 2" as three fields; a body line takes
        ASCII spaces only, and so does the header."""
        f = tmp_path / "emspace.txt"
        f.write_text("1\u20033 2\n0 0:1.0\n", encoding="utf-8")
        assert main(["stats", "--data", str(f)]) == 2
        assert "data error: non-integer header field" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("9" * 5000 + " 0:1.0", "label id out of range"),
        ("0 " + "9" * 5000 + ":1.0", "feature id out of range"),
    ], ids=["label id", "feature id"])
    def test_id_past_int_digit_limit_is_data_error(self, tmp_path, capsys, line, message):
        """An id of 5,000 digits is out of range, not past int()'s limit."""
        f = tmp_path / "long.txt"
        f.write_text("1 2 2\n" + line + "\n")
        assert main(["stats", "--data", str(f)]) == 2
        assert f"data error: line 2: {message}" in capsys.readouterr().err

    def test_header_not_utf8_is_data_error(self, tmp_path, capsys):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"\xff 3 4\n0 0:1.0\n")
        assert main(["stats", "--data", str(f)]) == 2
        assert "data error: header is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["train", "--data", "d", "--model", "m", "--trees", "0"],
         "labelforest train: argument --trees: expected a positive integer, got 0"),
        (["eval", "--predictions", "p", "--data", "d", "--k", "a,b"],
         "labelforest eval: argument --k: expected comma-separated integers, got 'a,b'"),
    ], ids=["train --trees 0", "eval --k a,b"])
    def test_bad_flag_value_is_usage(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_missing_data_file_is_data_error(self, tmp_path):
        assert main(["stats", "--data", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_data_file_is_data_error(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("1 2\n0 0:1.0\n")
        assert main(["stats", "--data", str(f)]) == 2

    @pytest.mark.parametrize("command", [
        "train --model F", "train --data F/x", "predict --model F",
        "predict --output F/x", "stats --output F/x",
    ])
    def test_unusable_path_is_data_error(self, paths, trained, tmp_path, capsys, command):
        """A path that cannot be read or written, here for a regular file
        F standing where a directory must be, exits 2, not 3."""
        f = tmp_path / "F"
        f.write_text("a regular file\n")
        model, pred, test = str(tmp_path / "m"), str(tmp_path / "pred.txt"), paths["test"]
        argv = {
            "train --model F": ["train", "--data", paths["train"], "--model", str(f)],
            "train --data F/x": ["train", "--data", str(f / "x"), "--model", model],
            "predict --model F": ["predict", "--model", str(f), "--data", test, "--output", pred],
            "predict --output F/x": ["predict", "--model", trained, "--data", test,
                                     "--output", str(f / "x")],
            "stats --output F/x": ["stats", "--data", test, "--output", str(f / "x")],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "data error: [Errno" in err and str(f) in err

    def test_missing_model_is_data_error(self, paths, tmp_path):
        rc = main(["predict", "--model", str(tmp_path / "absent"),
                   "--data", paths["test"], "--output", "/dev/null"])
        assert rc == 2

    def test_dimension_mismatch_is_data_error(self, paths, trained, tmp_path):
        f = tmp_path / "wide.txt"
        f.write_text("1 999 50\n0 0:1.0\n")
        rc = main(["predict", "--model", trained, "--data", str(f),
                   "--output", "/dev/null"])
        assert rc == 2

    def test_bad_weight_index_in_model_is_data_error(self, paths, trained, wide, tmp_path, capsys):
        """At each id width, the largest id it holds: >= D, and for 4-byte
        ids >= 2**31 too, where a cast that reinterprets it reads a negative."""
        for id_size, files in [(2, dict(paths, model=trained)), (4, wide)]:
            model = tmp_path / f"model{id_size}"
            shutil.copytree(files["model"], model)
            train = parse_dataset(files["train"])
            buf = bytearray((model / "tree_0.bin").read_bytes())
            at = tree_file_sections(buf, train.l, train.d)
            assert at["id_size"] == id_size
            nnz = (at["values"] - at["indices"]) // id_size
            if not nnz:
                pytest.fail("the tree has no stored weights to corrupt")
            # the last index of the last row that has any
            put_id(buf, at, nnz - 1, 2 ** (8 * id_size) - 1)
            (model / "tree_0.bin").write_bytes(bytes(buf))
            with pytest.raises(DataFormatError, match="bad classifier weights"):
                load_model(model)
            rc = main(["predict", "--model", str(model), "--data", files["test"],
                       "--output", str(tmp_path / "pred.txt")])
            assert rc == 2
            assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["copy a leaf label", "label past L"])
    def test_leaves_not_partitioning_labels_is_data_error(
        self, paths, trained, tmp_path, capsys, edit
    ):
        ens = load_model(trained)
        tree = ens.trees[0]
        second_leaf = np.flatnonzero(tree.nodes["leaf"])[1]
        if edit == "copy a leaf label":
            tree.labels[tree.nodes["label_lo"][second_leaf]] = tree.labels[0]
        else:
            tree.labels[0] = ens.l + 7
        write_model(ens, tmp_path / "model")
        rc = main(["predict", "--model", str(tmp_path / "model"), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_dimension_mismatch_names_both_dims(self, paths, trained, tmp_path, capsys):
        f = tmp_path / "narrow.txt"
        f.write_text("1 7 50\n0 0:1.0\n")
        rc = main(["predict", "--model", trained, "--data", str(f), "--output", "/dev/null"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "D=7" in err and f"D={load_model(trained).d}" in err

    def test_value_error_inside_predict_is_internal(self, paths, trained, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("bug inside predict_batch")

        monkeypatch.setattr(cli, "predict_batch", broken)
        rc = main(["predict", "--model", trained, "--data", paths["test"],
                   "--output", "/dev/null"])
        assert rc == 3

    def test_v1_model_is_data_error(self, paths, trained, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        meta = (model / "meta").read_text()
        assert f"version={FORMAT_VERSION}\n" in meta
        meta = meta.replace(f"version={FORMAT_VERSION}", "version=1")
        (model / "meta").write_text(meta)
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "unsupported model version 1" in capsys.readouterr().err

    def test_invalid_utf8_in_meta_is_data_error(self, paths, trained, tmp_path, capsys):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        meta = (model / "meta").read_bytes()
        (model / "meta").write_bytes(meta.replace(b"T=3\n", b"T=3\xff\n"))
        with pytest.raises(DataFormatError):
            load_model(model)
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert f"data error: {model / 'meta'}: not UTF-8" in capsys.readouterr().err

    def test_negative_seed_is_usage(self, paths, tmp_path, capsys):
        rc = main(["train", "--data", paths["train"], "--model", str(tmp_path / "m"),
                   "--seed", "-1"])
        assert rc == 1
        assert "base_seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("edit, match", [
        (lambda meta: meta.replace("base_seed=3\n", "base_seed=-1\n"), "base_seed must be >= 0"),
        (lambda meta: meta + "T=1\n", "repeated key 'T'"),
        (lambda meta: meta.replace("eps=0.1\n", ""), "'eps'"),
        (lambda meta: meta + "normalize=1\n", r"unknown keys \['normalize'\]"),
        # values are spelled as in a data file: no "_", non-ASCII digits or spaces
        (lambda meta: meta.replace("K=8\n", "K=0_8\n"), "'0_8' is not an integer"),
        (lambda meta: meta.replace("T=3\n", "T=\uff11\n"), "T value '\uff11'"),
        (lambda meta: re.sub(r"^D=([0-9]+)$", r"D= \1 ", meta, flags=re.M), "D value ' "),
        (lambda meta: meta.replace("C=1.0\n", "C=\uff11.0\n"), "C value '\uff11.0'"),
        (lambda meta: meta.replace("T=3\n", "T=3\x85\n"), "T value '3"),
    ], ids=["negative base_seed", "repeated key", "missing eps", "normalize key",
            "K underscore", "T fullwidth", "D spaces", "C fullwidth", "T next line"])
    def test_bad_meta_value_is_data_error(self, paths, trained, tmp_path, capsys, edit, match):
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        meta = (model / "meta").read_text()
        assert "base_seed=3\n" in meta and "T=3\n" in meta and "K=8\n" in meta
        assert edit(meta) != meta
        (model / "meta").write_text(edit(meta), encoding="utf-8")
        with pytest.raises(DataFormatError, match=match):
            load_model(model)
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "data error: bad meta file" in capsys.readouterr().err

    def test_invalid_utf8_in_predictions_is_data_error(self, paths, predicted, tmp_path, capsys):
        bad = tmp_path / "pred.txt"
        bad.write_bytes(b"\xff" + Path(paths["pred"]).read_bytes())
        rc = main(["eval", "--predictions", str(bad), "--data", paths["test"]])
        assert rc == 2
        assert f"data error: {bad}: not UTF-8" in capsys.readouterr().err

    @staticmethod
    def write_chain_model(model, d, d_max, links=1200):
        """A one-label tree of ``links`` single-child nodes above one leaf:
        the node table, the label, a row per node with no weights, and a
        bias per row."""
        model.mkdir()
        (model / "meta").write_text(
            f"version={FORMAT_VERSION}\nT=1\nK=2\nd_max={d_max}\nrepr_space=input\nD={d}\n"
            "L=1\nC=1.0\neps=0.1\ndelta=0.01\nbase_seed=0\n"
        )
        n = links + 1
        nodes = np.zeros(n, dtype=NODE)
        nodes["parent"] = np.arange(n) - 1
        nodes["depth"] = np.arange(n)
        nodes["leaf"][-1] = 1
        nodes["label_hi"] = nodes["rows"] = 1
        (model / "tree_0.bin").write_bytes(
            b"LFT1" + struct.pack("<Iq", FORMAT_VERSION, n) + nodes.tobytes()
            + struct.pack("<I", 0) + bytes(4 * n) + np.full(n, 0.5, dtype="<f4").tobytes()
        )

    def test_chain_model_loads_and_predicts(self, paths, tmp_path):
        model = tmp_path / "chain"
        self.write_chain_model(model, parse_dataset(paths["test"]).d, d_max=1200, links=3)
        tree = load_model(model).trees[0]
        assert len(tree.nodes) == 4 and len(tree.indptr) == 5 and len(tree.ids) == 0
        pred = tmp_path / "pred.txt"
        assert main(["predict", "--model", str(model), "--data", paths["test"],
                     "--output", str(pred)]) == 0
        # three routing steps and the leaf, each at probability sigmoid(0.5)
        score = (1.0 / (1.0 + math.exp(-0.5))) ** 4
        assert read_predictions(pred)[0].pairs() == [(0, pytest.approx(score, abs=5e-6))]

    def test_v2_model_is_data_error(self, paths, tmp_path, capsys):
        model = tmp_path / "v2"
        self.write_chain_model(model, parse_dataset(paths["test"]).d, d_max=2, links=1)
        meta = (model / "meta").read_text()
        (model / "meta").write_text(meta.replace(f"version={FORMAT_VERSION}", "version=2"))
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "unsupported model version 2" in capsys.readouterr().err

    def test_v3_model_is_data_error(self, paths, trained, tmp_path, capsys):
        """A directory in format v3 (a ``normalize`` key, no ``eps``) fails
        on its version, before any other meta check."""
        model = tmp_path / "v3"
        shutil.copytree(trained, model)
        meta = (model / "meta").read_text()
        meta = meta.replace(f"version={FORMAT_VERSION}\n", "version=3\n")
        (model / "meta").write_text(meta.replace("eps=0.1\n", "") + "normalize=1\n")
        for t in range(3):
            tree = model / f"tree_{t}.bin"
            tree.write_bytes(b"LFT1" + struct.pack("<I", 3) + tree.read_bytes()[8:])
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "unsupported model version 3" in capsys.readouterr().err

    def test_v4_model_is_data_error(self, paths, trained, tmp_path, capsys):
        """A directory in format v4, its feature ids stored in 4 bytes,
        fails on its version."""
        model = tmp_path / "v4"
        shutil.copytree(trained, model)
        meta = (model / "meta").read_text()
        (model / "meta").write_text(meta.replace(f"version={FORMAT_VERSION}\n", "version=4\n"))
        train = parse_dataset(paths["train"])
        for t in range(3):
            tree = model / f"tree_{t}.bin"
            buf = tree.read_bytes()
            at = tree_file_sections(buf, train.l, train.d)
            ids = np.frombuffer(buf, "<u2", count=(at["values"] - at["indices"]) // 2,
                                offset=at["indices"])
            tree.write_bytes(b"LFT1" + struct.pack("<I", 4) + buf[8:at["indices"]]
                             + ids.astype("<u4").tobytes() + buf[at["values"]:])
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "unsupported model version 4" in capsys.readouterr().err

    def test_node_deeper_than_d_max_is_data_error(self, paths, tmp_path, capsys):
        model = tmp_path / "chain"
        self.write_chain_model(model, parse_dataset(paths["test"]).d, d_max=2)
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc == 2
        assert "exceeds d_max=2" in capsys.readouterr().err

    def test_deep_chain_within_d_max_never_exits_3(self, paths, tmp_path):
        model = tmp_path / "chain"
        self.write_chain_model(model, parse_dataset(paths["test"]).d, d_max=1200)
        rc = main(["predict", "--model", str(model), "--data", paths["test"],
                   "--output", str(tmp_path / "pred.txt")])
        assert rc in (0, 2)

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


def _base_chain(a):
    """``a``, its base, that one's base and so on, through memoryviews too."""
    while a is not None:
        yield a
        a = a.base if isinstance(a, np.ndarray) else getattr(a, "obj", None)


def _traced_peak(fn, *args):
    """``fn(*args)``'s result, and the most memory that tracemalloc saw it
    hold at once beyond what was held before the call."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    """Loading a model reads each tree file's arrays straight into their
    final dtype: no file's bytes outlive the load, and no section is
    allocated before its size is checked against the file."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        """Three trees of about 44,000 weights each (no pruning), so that
        their arrays outweigh the load's Python objects."""
        ds = random_dataset(0, n=200, d=1000, l=40, density=0.1, label_density=0.1)
        path = tmp_path_factory.mktemp("dense") / "m"
        train_ensemble(ds, TrainConfig(k=4, d_max=1, base_seed=0, delta=0.0), TrainReport(),
                       path)
        return str(path)

    def test_loaded_arrays_hold_no_file_bytes(self, model):
        for tree in load_model(model).trees:
            for a in (tree.nodes, tree.labels, tree.indptr, tree.ids, tree.values, tree.bias):
                assert not any(isinstance(b, (bytes, bytearray)) for b in _base_chain(a))

    def test_load_peak_is_the_arrays_and_one_file(self, model):
        ens, peak = _traced_peak(load_model, model)
        arrays = sum(a.nbytes for t in ens.trees for a in (
            t.nodes, t.labels, t.indptr, t.ids, t.values, t.bias, t.row_ptr, t.child))
        largest = max(os.path.getsize(os.path.join(model, f"tree_{t}.bin"))
                      for t in range(len(ens.trees)))
        assert peak < arrays + largest

    def test_a_kept_weight_costs_six_bytes(self, model):
        """At D <= 65,536 a loaded tree holds each kept weight in 6 bytes, a
        2-byte feature id and a float32 value, beside a row pointer of 8
        bytes a row."""
        for t in load_model(model).trees:
            nnz, m = int(t.indptr[-1]), len(t.bias)
            assert nnz > 40000
            assert sum(a.nbytes for a in (t.indptr, t.ids, t.values)) == 6 * nnz + 8 * (m + 1)

    @pytest.mark.parametrize("claim", ["2**40 nodes", "L=2**32"])
    def test_sizes_checked_before_allocation(self, paths, tmp_path, capsys, claim):
        model = tmp_path / "m"
        TestExitCodes.write_chain_model(model, parse_dataset(paths["test"]).d, d_max=1,
                                        links=0)
        path = model / "tree_0.bin"
        if claim == "2**40 nodes":
            buf = bytearray(path.read_bytes())
            struct.pack_into("<q", buf, 8, 2**40)
            path.write_bytes(bytes(buf))
        else:
            (model / "meta").write_text((model / "meta").read_text().replace("L=1", f"L={2**32}"))
            nodes = np.zeros(1, dtype=NODE)
            nodes["parent"], nodes["leaf"], nodes["label_hi"], nodes["rows"] = -1, 1, 2**32, 2**32
            path.write_bytes(b"LFT1" + struct.pack("<Iq", FORMAT_VERSION, 1) + nodes.tobytes()
                             + bytes(16))

        def load():
            with pytest.raises(DataFormatError, match="truncated"):
                load_model(model)

        _, peak = _traced_peak(load)
        assert peak < 1 << 20
        rc, peak = _traced_peak(main, ["predict", "--model", str(model), "--data",
                                       paths["test"], "--output", str(tmp_path / "pred.txt")])
        assert rc == 2 and peak < 1 << 20
        assert "data error" in capsys.readouterr().err

    def test_predict_logs_the_load(self, paths, trained, tmp_path, caplog):
        """The size logged is that of meta and the tree files alone, not
        of other files or directories kept beside them."""
        model = tmp_path / "model"
        shutil.copytree(trained, model)
        size = sum((model / name).stat().st_size
                   for name in ["meta", "tree_0.bin", "tree_1.bin", "tree_2.bin"])
        (model / "notes.txt").write_bytes(bytes(30_000))
        (model / "old").mkdir()
        (model / "old" / "tree_0.bin").write_bytes(bytes(30_000))
        caplog.set_level(logging.INFO, logger="labelforest")
        assert main(["predict", "--model", str(model), "--data", paths["test"],
                     "--output", str(model / "pred.txt")]) == 0
        assert main(["predict", "--model", str(model), "--data", paths["test"],
                     "--output", str(model / "pred.txt")]) == 0
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("loaded ")]
        assert len(lines) == 2
        for line in lines:
            assert re.fullmatch(rf"loaded 3 trees: {size / 1e6:.2f} MB on disk in \d+\.\d{{3}}s",
                                line)


def _sha256_of_dir(path) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode() + b"\0")
        h.update((Path(path) / name).read_bytes())
    return h.hexdigest()


class TestPinnedBytes:
    """Models and prediction files are byte-for-byte those of the code
    that last changed them on purpose: a refactor that moves a single
    weight or score shows here.  A change that means to alter the model
    or the file format records the new digests in the same change."""

    @pytest.mark.parametrize("flags, depth, model_sha, pred_sha", [
        (["--trees", "2", "--branch", "8", "--max-depth", "1", "--repr", "input", "--seed", "3"],
         1, "40fa403744d5c291d2598dd4be083cee823dc1355226431f5be405cac5156f9a",
         "15d2b3491dbc48d3650ce042ff2144636c8236aa2c65452012e84f83bf8ee660"),
        (["--trees", "2", "--branch", "4", "--max-depth", "2", "--repr", "joint", "--seed", "5"],
         2, "8a4c8b6d73e1f370185eca1a8395f2c186de23be19f17815de3f03db5aa561fb",
         "63d33605df84839a77e5722ac421af5ebb21c14562d616b97b332cabcfe58377"),
    ], ids=["input-depth1", "joint-depth2"])
    def test_model_and_predictions_match_recorded_digests(
        self, paths, tmp_path, flags, depth, model_sha, pred_sha
    ):
        model, pred = tmp_path / "m", tmp_path / "pred.txt"
        assert main(["train", "--data", paths["train"], "--model", str(model), *flags]) == 0
        self._check_digests(paths, model, pred, depth, model_sha, pred_sha)

    def test_multi_batch_nodes_match_recorded_digests(self, paths, tmp_path, monkeypatch):
        """A chunk bound this small solves half the nodes in several column
        batches and the rest in one.  The prediction digest was recorded
        before the node inputs were built by index arithmetic; on this data
        both digests equal the one-batch digests of the joint-depth2 case."""
        monkeypatch.setattr(solver, "CHUNK_BYTES", 1 << 14)
        batches = []

        def spy(space, Y, *args):
            # columns, and nodes sharing the batch (none in feature coordinates)
            batches.append((Y.shape[1], len(getattr(space, "K", ()))))
            return tron(space, Y, *args)

        tron = solver._tron
        monkeypatch.setattr(solver, "_tron", spy)
        model, pred = tmp_path / "m", tmp_path / "pred.txt"
        flags = ["--trees", "2", "--branch", "4", "--max-depth", "2", "--repr", "joint", "--seed", "5"]
        assert main(["train", "--data", paths["train"], "--model", str(model), *flags]) == 0
        n_nodes = sum(len(t.nodes) for t in load_model(model).trees)
        assert len(batches) > n_nodes + 20 and max(c for c, _ in batches) > 1
        assert max(k for _, k in batches) > 1
        self._check_digests(
            paths, model, pred, 2,
            "8a4c8b6d73e1f370185eca1a8395f2c186de23be19f17815de3f03db5aa561fb",
            "63d33605df84839a77e5722ac421af5ebb21c14562d616b97b332cabcfe58377",
        )

    @staticmethod
    def _check_digests(paths, model, pred, depth, model_sha, pred_sha):
        assert main(["predict", "--model", str(model), "--data", paths["test"],
                     "--output", str(pred)]) == 0
        trees = load_model(model).trees
        assert max(t.nodes["depth"].max() for t in trees) == depth
        assert _sha256_of_dir(model) == model_sha
        assert hashlib.sha256(pred.read_bytes()).hexdigest() == pred_sha

    @pytest.mark.parametrize("train_data, table", [
        (False, "metric          @1      @3      @5\n"
             "P            40.67   41.11   42.13\n"
             "nDCG         40.67   48.54   64.43\n"
             "PSP          38.13   54.44   85.35\n"
             "PSnDCG       38.13   47.87   63.87\n"
             "coverage     76.60  100.00  100.00\n"),
        (True, "metric          @1      @3      @5\n"
               "P            40.67   41.11   42.13\n"
               "nDCG         40.67   48.54   64.43\n"
               "PSP          37.76   52.16   82.96\n"
               "PSnDCG       37.76   46.21   62.18\n"
               "coverage     90.00  100.00  100.00\n"),
    ], ids=["test-propensities", "train-propensities"])
    def test_eval_table_matches_recorded_text(
        self, paths, trained, tmp_path, capsys, train_data, table
    ):
        pred = tmp_path / "pred.txt"
        assert main(["predict", "--model", trained, "--data", paths["test"],
                     "--output", str(pred)]) == 0
        capsys.readouterr()
        extra = ["--train-data", paths["train"]] if train_data else []
        assert main(["eval", "--predictions", str(pred), "--data", paths["test"], *extra]) == 0
        assert capsys.readouterr().out == table + "\n"

    def test_stats_output_matches_recorded_digest(self, paths, capsys):
        assert main(["stats", "--data", paths["train"], paths["test"]]) == 0
        out = capsys.readouterr().out
        assert out.startswith("N 550\nD 84\nL 50\nAPpL 28.10\nALpP 2.55\n1 41\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "be82c01413925b5e63092418ad2e852c229c31d29fe78046018bbaf4d4f14802"
        )


class TestPredictFlags:
    def test_cutoff_list_bounds_line_width(self, paths, trained, tmp_path):
        pred = tmp_path / "narrow.txt"
        assert main(["predict", "--model", trained, "--data", paths["test"],
                     "--output", str(pred), "--k", "1,3"]) == 0
        rows = read_predictions(pred)
        assert all(len(r.labels) <= 3 for r in rows)
        assert any(len(r.labels) == 3 for r in rows)

    def test_short_rows_evaluate_at_wider_cutoffs(self, paths, trained, tmp_path, capsys):
        """Rows of 3 labels scored at k = 5 count their missing slots as
        misses, as the per-instance metrics do."""
        pred = tmp_path / "narrow.txt"
        assert main(["predict", "--model", trained, "--data", paths["test"],
                     "--output", str(pred), "--k", "1,3"]) == 0
        capsys.readouterr()
        assert main(["eval", "--predictions", str(pred), "--data", paths["test"],
                     "--k", "1,3,5"]) == 0
        test = parse_dataset(paths["test"])
        truths = [row(test.Y, i).indices for i in range(test.n)]
        prop = fit_propensities(np.bincount(test.Y.indices, minlength=test.l), test.n)
        want = evaluate_oracle(list(read_predictions(pred)), truths, prop, (1, 3, 5))
        assert capsys.readouterr().out == want.format() + "\n"


    def test_k_above_l_writes_every_reached_label(self, paths, trained, tmp_path):
        """A cutoff far above L ranks at most L labels a row; the file is the
        one a cutoff of L writes."""
        huge, exact = tmp_path / "huge.txt", tmp_path / "exact.txt"
        l = load_model(trained).l
        for k, out in ((10**11, huge), (l, exact)):
            assert main(["predict", "--model", trained, "--data", paths["test"],
                         "--output", str(out), "--k", str(k)]) == 0
        assert huge.read_bytes() == exact.read_bytes()
        assert max(len(r) for r in read_predictions(huge)) > 5

    def test_eval_at_k_above_l(self, paths, trained, tmp_path, capsys):
        """P@k still divides by k: a cutoff of 10**11 reads as a fraction of
        a percent, and nDCG and the PS metrics as at k = L."""
        pred = tmp_path / "pred.txt"
        assert main(["predict", "--model", trained, "--data", paths["test"],
                     "--output", str(pred), "--k", "60"]) == 0
        capsys.readouterr()
        l = load_model(trained).l
        tables = []
        for k in (l, 10**11):
            assert main(["eval", "--predictions", str(pred), "--data", paths["test"],
                         "--k", str(k)]) == 0
            tables.append(capsys.readouterr().out.splitlines())
        at_l, huge = ({ln.split()[0]: float(ln.split()[1]) for ln in t[1:] if ln} for t in tables)
        assert tables[1][0].split() == ["metric", f"@{10**11}"]
        assert huge["P"] == pytest.approx(at_l["P"] * l / 10**11, abs=0.005)
        for metric in ("nDCG", "PSP", "PSnDCG", "coverage"):
            assert huge[metric] == at_l[metric]


class TestFuzz:
    """A corrupted model or prediction file exits 0 or 2, never 3."""

    @settings(max_examples=40)
    @given(data=st.data())
    def test_corrupted_tree_file_predicts_or_exits_2(self, paths, trained, data):
        tree = Path(trained, "tree_0.bin").read_bytes()
        edit = data.draw(byte_edits(len(tree)))
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp, "model")
            shutil.copytree(trained, model)
            (model / "tree_0.bin").write_bytes(apply_edit(tree, edit))
            rc = main(["predict", "--model", str(model), "--data", paths["test"],
                       "--output", str(Path(tmp, "pred.txt"))])
        assert rc in (0, 2)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_corrupted_prediction_file_evaluates_or_exits_2(self, paths, predicted, data):
        pred = Path(paths["pred"]).read_bytes()
        edit = data.draw(prediction_edits(pred))
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp, "pred.txt")
            bad.write_bytes(apply_edit(pred, edit))
            rc = main(["eval", "--predictions", str(bad), "--data", paths["test"],
                       "--train-data", paths["train"]])
        assert rc in (0, 2)


def test_cli_import_leaves_out_scipy_special():
    """Every command imports ``labelforest.cli``; importing scipy.special
    would add a tenth of a second or more to each one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, labelforest.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out == "False\n"
