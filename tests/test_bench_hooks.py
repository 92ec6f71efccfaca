"""The benchmark tracer's hooks name attributes that labelforest has.

``bench/tracing.py::install`` wraps module attributes by name and skips a
name it cannot find, so a rename in ``src/`` silently turns that layer
metric into a constant 0.  This test reads every ``(module, "attr")``
hook in ``install`` and fails on one that is missing, unless it is on the
list of hooks known to be dead, which must itself stay exact.
"""

import ast
import importlib
from pathlib import Path

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
