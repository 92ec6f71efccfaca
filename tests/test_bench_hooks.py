"""The benchmark tracer's hooks name attributes that labelforest has, and
its per-node counters count the nodes of the model it traced.

``bench/tracing.py::install`` wraps module attributes by name and skips a
name it cannot find, so a rename in ``src/`` silently turns that layer
metric into a constant 0.  This test reads every ``(module, "attr")``
hook in ``install`` and fails on one that is missing, unless it is on the
list of hooks known to be dead, which must itself stay exact.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import grouped_dataset
from helpers import dataset_to_text
from labelforest.data import normalize_instances, parse_dataset
from labelforest.representations import ReprSpace, build_repr
from labelforest.tree import load_model

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Hooks whose functions left labelforest; their metrics read 0 until the
# benchmark drops or remaps them.
KNOWN_DEAD = {
    ("solver", "objective"),
    ("tree", "finalize_weights"),
    ("tree", "train_binary"),
    ("predict", "_tree_index"),
    ("metrics", "ps_report"),
    ("metrics", "coverage_at_k"),
    # eval and stats count labels on Y directly
    ("cli", "build_label_index"),
    # train_ensemble writes meta too, inside the tree.train_ensemble span
    ("cli", "save_model"),
}


def install_hooks() -> set[tuple[str, str]]:
    """(module, attr) of every ``rec.wrap``, ``rec.count_calls`` and
    ``hasattr`` call in ``install``."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    install = next(
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    )
    hooks = set()
    for call in ast.walk(install):
        if not isinstance(call, ast.Call) or len(call.args) < 2:
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        module, attr = call.args[:2]
        if (name in ("wrap", "count_calls", "hasattr") and isinstance(module, ast.Name)
                and isinstance(attr, ast.Constant)):
            hooks.add((module.id, attr.value))
    return hooks


def is_live(module: str, attr: str) -> bool:
    return hasattr(importlib.import_module(f"labelforest.{module}"), attr)


def test_install_hooks_are_found():
    hooks = install_hooks()
    # every layer the tracer reports on is seen, not just a few
    assert {"cli", "tree", "predict", "metrics", "solver"} <= {m for m, _ in hooks}
    assert len(hooks) > 20


def test_every_live_hook_names_an_attribute():
    missing = sorted(h for h in install_hooks() - KNOWN_DEAD if not is_live(*h))
    assert not missing, f"bench/tracing.py wraps attributes labelforest lacks: {missing}"


def test_known_dead_hooks_are_exact():
    hooks = install_hooks()
    assert KNOWN_DEAD <= hooks, f"not hooks in install: {sorted(KNOWN_DEAD - hooks)}"
    alive = sorted(h for h in KNOWN_DEAD if is_live(*h))
    assert not alive, f"listed as dead but present: {alive}"


def traced_train(tmp_path, ds, *flags):
    """Train on ``ds`` through ``bench/tracing.py``; return the data file,
    the model directory and the traced counters."""
    data, model, spans = tmp_path / "train.txt", tmp_path / "m", tmp_path / "spans.json"
    data.write_text(dataset_to_text(ds))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run(
        [sys.executable, str(TRACING), str(spans), "train", "--data", str(data),
         "--model", str(model), *flags],
        check=True, env=env, capture_output=True,
    )
    return data, model, json.loads(spans.read_text(encoding="utf-8").splitlines()[0])["counters"]


def test_traced_node_counters_match_the_saved_model(tmp_path):
    """``tree.nodes``, ``tree.leaves`` and ``tree.leaf_labels_max`` count the
    calls of ``train_node_classifiers``; a traced depth-2 training run gives
    the counts that its saved model holds."""
    ds, _ = grouped_dataset(3, n=150, groups=6, labels_per_group=4)
    _, model, counters = traced_train(
        tmp_path, ds, "--trees", "2", "--branch", "3", "--max-depth", "2"
    )
    trees = load_model(model).trees
    leaves = [np.flatnonzero(t.nodes["leaf"]) for t in trees]
    assert max(t.nodes["depth"].max() for t in trees) == 2
    assert counters["tree.nodes"] == sum(len(t.nodes) for t in trees)
    assert counters["tree.leaves"] == sum(len(u) for u in leaves)
    assert counters["tree.leaf_labels_max"] == max(
        len(t.node_labels(u)) for t, us in zip(trees, leaves) for u in us
    )


def test_traced_repr_counters_match_build_repr(tmp_path):
    """``representations.nnz`` and ``representations.dim`` are those of the
    one label representation a training run builds."""
    ds, _ = grouped_dataset(3, n=150, groups=6, labels_per_group=4)
    data, _, counters = traced_train(tmp_path, ds, "--trees", "2", "--repr", "joint")
    ds = parse_dataset(data)
    V = build_repr(normalize_instances(ds), ds.Y, ReprSpace.JOINT).matrix
    assert V.shape[1] == ds.d + ds.l
    assert counters["representations.nnz"] == V.nnz
    assert counters["representations.dim"] == V.shape[1]
