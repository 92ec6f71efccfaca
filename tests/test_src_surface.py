"""``src/`` holds no code that only tests call: every top-level function and
class of the package is referred to by the package or the benchmark
outside its own definition."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "labelforest"


def references(tree: ast.AST) -> Counter:
    """The names the code under ``tree`` refers to: names, attribute names,
    imported names, and strings spelled as one identifier (as in
    ``__all__`` or a hook installed by attribute name)."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            out[node.value] += 1
    return out


def test_every_top_level_definition_is_used_outside_itself():
    paths = sorted([*PACKAGE.glob("*.py"), *(ROOT / "bench").rglob("*.py")])
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    used = sum((references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{path.name}: {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and used[node.name] == references(node)[node.name]
    ]
    assert not unused, f"referred to only at their own definition: {unused}"
