"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMOKE = WORKLOADS["smoke"].shape


def _bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _generate(shape, seed, out_dir):
    os.makedirs(out_dir)
    return gen.write_train(shape, out_dir), gen.write_test(shape, seed, out_dir)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class TestGenerator:
    def test_same_seed_gives_identical_files(self, tmp_path):
        a = _generate(SMOKE, 5, str(tmp_path / "a"))
        b = _generate(SMOKE, 5, str(tmp_path / "b"))
        for x, y in zip(a, b):
            assert filecmp.cmp(x, y, shallow=False)

    def test_other_seed_gives_other_test_rows_only(self, tmp_path):
        a = _generate(SMOKE, 5, str(tmp_path / "a"))
        b = _generate(SMOKE, 6, str(tmp_path / "b"))
        assert filecmp.cmp(a[0], b[0], shallow=False)
        assert not filecmp.cmp(a[1], b[1], shallow=False)

    def test_test_rows_do_not_depend_on_train_size(self, tmp_path):
        _, a = _generate(SMOKE, 5, str(tmp_path / "a"))
        _, b = _generate(replace(SMOKE, n_train=SMOKE.n_train + 7), 5, str(tmp_path / "b"))
        assert filecmp.cmp(a, b, shallow=False)

    def test_files_parse_with_declared_shape(self, tmp_path):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from labelforest import parse_dataset

        train, test = _generate(SMOKE, 5, str(tmp_path / "d"))
        for path, n in ((train, SMOKE.n_train), (test, SMOKE.n_test)):
            ds = parse_dataset(path)
            assert (ds.n, ds.d, ds.l) == (n, SMOKE.d, SMOKE.l)
            assert ds.Y.nnz >= n  # every row has at least one label


class TestSelfTimes:
    # root [0, 100] > a [10, 40] > g [15, 25]; root > b [50, 70]
    SPANS = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["g", 15, 25, 1],
        ["b", 50, 70, 0],
    ]

    def test_self_is_duration_minus_children(self):
        got = tracing.self_times(self.SPANS)
        assert got == pytest.approx([50e-9, 20e-9, 10e-9, 20e-9])

    def test_self_times_sum_to_top_level_duration(self):
        assert sum(tracing.self_times(self.SPANS)) == pytest.approx(100e-9)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [["p", 0, 100, -1], ["c", 10, 40, 0], ["c", 30, 60, 0], ["c", 90, 120, 0]]
        assert tracing.self_times(spans)[0] == pytest.approx(40e-9)

    def test_recursive_name_counts_outermost_span_only(self):
        spans = [["grow", 0, 100, -1], ["grow", 10, 50, 0], ["kmeans", 20, 30, 1]]
        assert tracing.total_by_name(spans) == pytest.approx({"grow": 100e-9, "kmeans": 10e-9})
        assert tracing.self_by_name(spans) == pytest.approx({"grow": 90e-9, "kmeans": 10e-9})

    def test_covered_share(self):
        assert tracing.covered_share(self.SPANS, 200e-9) == pytest.approx(0.5)

    def test_pool_shifts_parents_and_merges_counters(self):
        a = {"spans": [["x", 0, 10, -1], ["y", 1, 2, 0]],
             "counters": {"solver.calls": 2, "solver.newton_iters_max": 4}}
        b = {"spans": [["x", 20, 30, -1], ["y", 21, 22, 0]],
             "counters": {"solver.calls": 3, "solver.newton_iters_max": 3}}
        spans, counters = tracing.pool([a, b])
        assert [s[3] for s in spans] == [-1, 0, -1, 2]
        assert counters == {"solver.calls": 5, "solver.newton_iters_max": 4}

    def test_layer_metrics_from_spans_and_counters(self):
        spans = [
            ["cli.main", 0, 4_000_000_000, -1],
            ["data.parse", 0, 1_000_000_000, 0],
            ["predict.batch", 1_000_000_000, 3_000_000_000, 0],
            ["predict.prepare", 1_000_000_000, 1_500_000_000, 2],
        ]
        counters = {
            "data.parse_bytes": 4e6, "predict.rows": 100,
            "solver.calls": 10, "solver.objective_calls": 30, "solver.newton_iters_total": 15,
        }
        m = tracing.layer_metrics(spans, counters)
        assert m["cli.self_s"] == pytest.approx(1.0)
        assert m["data.parse_mb_per_s"] == pytest.approx(4.0)
        assert m["predict.batch_self_s"] == pytest.approx(1.5)
        assert m["predict.inst_per_s"] == pytest.approx(50.0)
        assert m["solver.step_accept_ratio"] == pytest.approx(0.75)
        assert set(m) <= set(tracing.LAYER_UNITS)

    def test_load_adds_dump_and_exit(self, tmp_path):
        rec = tracing.Recorder()
        rec.span("cli.main", lambda: None)
        path = str(tmp_path / "spans.json")
        rec.dump(path)
        loaded = tracing.load(path, reaped_ns=rec.spans[0][2] + 10**9)
        names = [s[0] for s in loaded["spans"]]
        assert names == ["cli.main", "trace.dump", "cli.exit"]
        dump, exit_ = loaded["spans"][1], loaded["spans"][2]
        assert rec.spans[0][2] <= dump[1] <= dump[2] == exit_[1] < exit_[2]


class TestBenchmarkJson:
    def test_workloads_match(self):
        listed = {w["name"]: w["why"] for w in _bench_json()["workloads"]}
        assert listed == {n: w.why for n, w in WORKLOADS.items() if n != "smoke"}

    def test_per_layer_metrics_match(self):
        listed = {m["name"]: m["unit"] for m in _bench_json()["per_layer"]}
        assert listed == tracing.LAYER_UNITS


@pytest.fixture(scope="module")
def smoke_runs():
    """A plain run long enough for two rounds, and a traced run."""
    return {trace: _run("--workload", "smoke", "--seed", "3", "--seconds", "5",
                        "--trace", str(trace)) for trace in (0, 1)}


class TestSmokeRun:
    @pytest.mark.parametrize("trace", [0, 1])
    def test_runs_correctly(self, smoke_runs, trace):
        proc = smoke_runs[trace]
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stderr
        assert result["attempted"] >= 1

    @pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
    def test_prints_every_metric_of_benchmark_json(self, smoke_runs, trace, section):
        result = json.loads(smoke_runs[trace].stdout.strip().splitlines()[-1])
        printed = {n: m["unit"] for n, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in _bench_json()[section]}

    def test_plain_run_repeats_rounds(self, smoke_runs):
        # later rounds retrain the model, which the run checks is identical
        rounds = re.search(r"^(\d+) rounds,", smoke_runs[0].stdout, re.M)
        assert rounds and int(rounds.group(1)) >= 2


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eurlex", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
