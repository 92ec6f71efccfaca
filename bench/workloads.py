"""The benchmark's workloads: a data shape plus the flags of ``train``.

Every workload predicts with beam 10, as in ``repro/run_eurlex.sh``.  No
workload passes ``--threads``: every command runs at the CLI default.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Shape


@dataclass(frozen=True)
class Workload:
    shape: Shape
    train_flags: tuple[str, ...]
    why: str


WORKLOADS = {
    "eurlex": Workload(
        Shape(n_train=4000, n_test=2000, d=5000, l=3993, labels_per_row=5.3, nnz_per_row=110),
        ("--trees", "3", "--branch", "100", "--repr", "input"),
        why="EURLex-4K shape at the paper's reference configuration: a few "
        "large solves, about 12k classifiers and a beam over 100 leaves",
    ),
    "deep-joint": Workload(
        Shape(n_train=6000, n_test=2500, d=5000, l=3000, labels_per_row=4.0, nnz_per_row=50),
        ("--trees", "2", "--branch", "32", "--max-depth", "2", "--repr", "joint"),
        why="depth-2 joint trees: two-level k-means over D+L dense centers, "
        "many tiny classifiers and a two-level beam",
    ),
    # A tiny workload for the benchmark's own tests; not in BENCHMARK.json.
    "smoke": Workload(
        Shape(n_train=400, n_test=200, d=300, l=120, labels_per_row=3.0, nnz_per_row=20),
        ("--trees", "2", "--branch", "8", "--repr", "input"),
        why="end-to-end smoke run in seconds",
    ),
}
