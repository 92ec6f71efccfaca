"""Spans around the calls into each labelforest layer, and the layer
metrics derived from them.

Run as a script, this file is a traced ``labelforest`` command line:

    python3 bench/tracing.py SPANS.json train --data ... --model ...

It wraps the module attributes that labelforest's own code looks up at
call time (``labelforest.cli.parse_dataset``, ``labelforest.tree.grow``,
...), runs ``labelforest.cli.main`` with the remaining arguments, and
writes every span and counter to SPANS.json when the command ends.  The
recursive ``grow`` and ``train_node_classifiers`` call themselves through
the module attribute, so they give one span per node.  Nothing is wrapped
unless this script runs; an untraced command is the plain CLI.

A span is ``[name, start_ns, end_ns, parent]`` on the monotonic clock,
which every process on the machine shares.  The parent passes the moment
it spawned this process in ``BENCH_SPAWN_NS``, so interpreter start-up, up
to the first line of this file, is a span (``cli.boot``) as well, and so
is interpreter exit (``cli.exit``), up to the moment the parent reaped it.
"""

from __future__ import annotations

import time

# Read before any other import, so that ``cli.boot`` ends here.
ENTRY_NS = time.monotonic_ns()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402


class Recorder:
    """Spans kept in memory and counters summed at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None):
        sid = len(self.spans)
        self.spans.append([name, 0, 0, self.stack[-1] if self.stack else -1])
        self.stack.append(sid)
        t0 = time.monotonic_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            t1 = time.monotonic_ns()
            self.stack.pop()
            self.spans[sid][1:3] = [t0, t1]

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a spanned call; ``after(rec, args,
        kwargs, result)`` updates counters once the call has returned."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def traced(*args, **kwargs):
            result = self.span(name, fn, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def count_calls(self, module, attr: str, counter: str) -> None:
        """Count calls to a hot function without a span per call."""
        fn = getattr(module, attr, None)
        if fn is None:
            return

        def counted(*args, **kwargs):
            self.counters[counter] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)

    def dump(self, path: str) -> None:
        """Write spans and counters, then a second line with the interval
        the first one took to write."""
        t0 = time.monotonic_ns()
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, f)
            f.write("\n")
            f.flush()
            f.write(json.dumps({"dump": [t0, time.monotonic_ns()]}) + "\n")


def load(path: str, reaped_ns: int) -> dict:
    """Read a span file; add the dump and the interpreter exit, which
    lasts from the end of the dump until the parent reaped the process."""
    with open(path, encoding="utf-8") as f:
        rec = json.loads(f.readline())
        t0, t1 = json.loads(f.readline())["dump"]
    rec["spans"] += [["trace.dump", t0, t1, -1], ["cli.exit", t1, reaped_ns, -1]]
    return rec


# -- counters taken from the wrapped calls' arguments and returns -----------

def _after_parse(rec, args, kwargs, ds):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, os.PathLike)):
        rec.counters["data.parse_bytes"] += os.path.getsize(source)
    rec.counters["data.parse_rows"] += ds.n


def _after_repr(rec, args, kwargs, repr_):
    rec.counters["representations.nnz"] += repr_.matrix.nnz
    rec.counters["representations.dim"] = max(rec.counters["representations.dim"], repr_.dim)


def _after_kmeans(rec, args, kwargs, part):
    # imported here, so that numpy's import falls inside the cli.import span
    import numpy as np

    c = rec.counters
    sizes = np.bincount(part.assignments, minlength=part.k)
    nonempty = sizes[sizes > 0]
    c["clustering.splits"] += 1
    c["clustering.iters_total"] += part.n_iters_run
    c["clustering.iters_max"] = max(c["clustering.iters_max"], part.n_iters_run)
    c["clustering.center_bytes"] = max(c["clustering.center_bytes"], part.centers.size * 8)
    c["clustering.size_ratio_sum"] += float(nonempty.max() / nonempty.mean())
    c["clustering.empty_dropped"] += int(part.k - len(nonempty))
    c["clustering.objective_sum"] += part.final_objective


def _after_node(rec, args, kwargs, result):
    node = args[0] if args else kwargs["node"]
    c = rec.counters
    c["tree.nodes"] += 1
    if node.is_leaf:
        c["tree.leaves"] += 1
        c["tree.leaf_labels_max"] = max(c["tree.leaf_labels_max"], len(node.labels))


def _after_ensemble(rec, args, kwargs, ens):
    report = args[2] if len(args) > 2 else kwargs.get("report")
    if report is not None:
        rec.counters["solver.zero_positive"] += report.n_zero_positive


def _after_finalize(rec, args, kwargs, weights):
    before = args[0] if args else kwargs["weights"]
    rec.counters["solver.weights_kept"] += weights.w.nnz
    rec.counters["solver.weights_pruned"] += before.w.nnz - weights.w.nnz


def _after_batch(rec, args, kwargs, results):
    rec.counters["predict.rows"] += len(results)


def _traced_train_binary(rec, train_binary, info_type):
    """Span each solve, passing a ``SolveInfo`` the caller did not."""

    def wrapped(p, *args, **kwargs):
        info = kwargs.get("info")
        if info is None:
            info = kwargs["info"] = info_type()
        result = rec.span("solver.train_binary", train_binary, (p,) + args, kwargs)
        c = rec.counters
        cap = kwargs.get("max_newton_iters", 100)
        c["solver.calls"] += 1
        c["solver.problem_nnz_total"] += p.X.nnz
        c["solver.newton_iters_total"] += info.n_newton_iters
        c["solver.newton_iters_max"] = max(c["solver.newton_iters_max"], info.n_newton_iters)
        c["solver.not_converged"] += int(not info.converged and info.n_newton_iters >= cap)
        return result

    return wrapped


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from labelforest import cli, metrics, predict, solver, tree

    rec.wrap(cli, "parse_dataset", "data.parse", _after_parse)
    rec.wrap(tree, "normalize_instances", "data.normalize")
    rec.wrap(predict, "normalize_instances", "data.normalize")
    rec.wrap(tree, "build_label_index", "data.label_index")
    rec.wrap(cli, "build_label_index", "data.label_index")

    rec.wrap(tree, "build_repr", "representations.build", _after_repr)
    rec.wrap(tree, "kmeans_partition", "clustering.kmeans", _after_kmeans)

    rec.wrap(cli, "train_ensemble", "tree.train_ensemble", _after_ensemble)
    rec.wrap(tree, "grow", "tree.grow")
    rec.wrap(tree, "train_node_classifiers", "tree.node_train", _after_node)
    rec.wrap(cli, "save_model", "tree.save")
    rec.wrap(cli, "load_model", "tree.load")

    if hasattr(tree, "train_binary"):
        tree.train_binary = _traced_train_binary(rec, tree.train_binary, solver.SolveInfo)
    rec.count_calls(solver, "objective", "solver.objective_calls")
    rec.wrap(tree, "finalize_weights", "solver.finalize", _after_finalize)

    rec.wrap(cli, "predict_batch", "predict.batch", _after_batch)
    rec.wrap(predict, "prepare_features", "predict.prepare")
    rec.wrap(predict, "_tree_index", "predict.index")
    rec.wrap(cli, "write_predictions", "predict.write")
    rec.wrap(cli, "read_predictions", "predict.read")

    rec.wrap(cli, "evaluate", "metrics.evaluate")
    rec.wrap(metrics, "ps_report", "metrics.ps_report")
    rec.wrap(metrics, "coverage_at_k", "metrics.coverage")
    rec.wrap(cli, "fit_propensities", "metrics.fit_propensities")


# -- derived metrics ---------------------------------------------------------

def self_times(spans) -> list[float]:
    """Per span: its duration in seconds minus the part of its interval
    that its direct children cover."""
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        for c0, c1 in sorted(children[sid]):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out.append((end - start - covered) / 1e9)
    return out


def self_by_name(spans) -> dict[str, float]:
    totals = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        totals[name] += s
    return dict(totals)


def total_by_name(spans) -> dict[str, float]:
    """Inclusive time per name, counting a recursive name only at its
    outermost span."""
    names = [s[0] for s in spans]
    totals = defaultdict(float)
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and names[p] != name:
            p = spans[p][3]
        if p < 0:
            totals[name] += (end - start) / 1e9
    return dict(totals)


# Every per-layer metric, with its unit, in the order the benchmark prints.
LAYER_UNITS = {
    "data.parse_s": "s",
    "data.parse_mb_per_s": "MB/s",
    "data.parse_rows": "count",
    "data.normalize_s": "s",
    "data.label_index_s": "s",
    "representations.build_s": "s",
    "representations.nnz": "count",
    "representations.dim": "count",
    "clustering.kmeans_s": "s",
    "clustering.splits": "count",
    "clustering.iters_total": "count",
    "clustering.iters_max": "count",
    "clustering.center_mb": "MB",
    "clustering.size_max_over_mean": "ratio",
    "clustering.empty_dropped": "count",
    "clustering.objective_sum": "dist",
    "tree.ensemble_self_s": "s",
    "tree.grow_self_s": "s",
    "tree.node_train_self_s": "s",
    "tree.nodes": "count",
    "tree.leaves": "count",
    "tree.leaf_labels_max": "count",
    "tree.save_s": "s",
    "tree.load_s": "s",
    "solver.train_binary_s": "s",
    "solver.calls": "count",
    "solver.problem_nnz_total": "count",
    "solver.newton_iters_total": "count",
    "solver.newton_iters_max": "count",
    "solver.not_converged": "count",
    "solver.step_accept_ratio": "ratio",
    "solver.zero_positive": "count",
    "solver.finalize_s": "s",
    "solver.weights_kept": "count",
    "solver.weights_pruned": "count",
    "predict.prepare_s": "s",
    "predict.index_s": "s",
    "predict.batch_self_s": "s",
    "predict.inst_per_s": "1/s",
    "predict.write_s": "s",
    "predict.read_s": "s",
    "metrics.evaluate_s": "s",
    "metrics.ps_report_s": "s",
    "metrics.coverage_s": "s",
    "metrics.fit_propensities_s": "s",
    "cli.self_s": "s",
    "cli.boot_s": "s",
    "cli.import_s": "s",
    "cli.exit_s": "s",
    "cli.train_cpu_s": "s",
    "trace.dump_s": "s",
    "trace.train_overhead_s": "s",
    "trace.predict_overhead_s": "s",
    "trace.eval_overhead_s": "s",
    "trace.covered_share_min": "ratio",
}

# Self time of each span name, reported under the layer metric it feeds.
_SELF_METRICS = {
    "data.parse": "data.parse_s",
    "data.normalize": "data.normalize_s",
    "data.label_index": "data.label_index_s",
    "representations.build": "representations.build_s",
    "clustering.kmeans": "clustering.kmeans_s",
    "tree.train_ensemble": "tree.ensemble_self_s",
    "tree.grow": "tree.grow_self_s",
    "tree.node_train": "tree.node_train_self_s",
    "tree.save": "tree.save_s",
    "tree.load": "tree.load_s",
    "solver.train_binary": "solver.train_binary_s",
    "solver.finalize": "solver.finalize_s",
    "predict.prepare": "predict.prepare_s",
    "predict.index": "predict.index_s",
    "predict.batch": "predict.batch_self_s",
    "predict.write": "predict.write_s",
    "predict.read": "predict.read_s",
    "metrics.evaluate": "metrics.evaluate_s",
    "metrics.ps_report": "metrics.ps_report_s",
    "metrics.coverage": "metrics.coverage_s",
    "metrics.fit_propensities": "metrics.fit_propensities_s",
    "cli.main": "cli.self_s",
    "cli.boot": "cli.boot_s",
    "cli.import": "cli.import_s",
    "cli.exit": "cli.exit_s",
    "trace.dump": "trace.dump_s",
}


# Counters that hold a maximum; every other counter is a sum.
MAX_COUNTERS = {
    "representations.dim", "clustering.iters_max", "clustering.center_bytes",
    "tree.leaf_labels_max", "solver.newton_iters_max",
}


def pool(records) -> tuple[list, dict]:
    """Merge the span files of several commands into one span list (parent
    ids shifted) and one counter dict."""
    spans, counters = [], defaultdict(float)
    for rec in records:
        offset = len(spans)
        spans += [[n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in rec["spans"]]
        for k, v in rec["counters"].items():
            counters[k] = max(counters[k], v) if k in MAX_COUNTERS else counters[k] + v
    return spans, dict(counters)


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one or more commands' pooled spans and counters.

    Spans of different commands never share a parent, so pooling them
    keeps every self time intact.
    """
    c = defaultdict(float, counters)
    selfs = self_by_name(spans)
    totals = total_by_name(spans)
    out = {metric: selfs.get(name, 0.0) for name, metric in _SELF_METRICS.items()}
    parse_s = out["data.parse_s"]
    out["data.parse_mb_per_s"] = c["data.parse_bytes"] / 1e6 / parse_s if parse_s else 0.0
    batch_s = totals.get("predict.batch", 0.0)
    out["predict.inst_per_s"] = c["predict.rows"] / batch_s if batch_s else 0.0
    # every solve calls the objective once at w = 0, then once per
    # trust-region step it tries
    attempts = c["solver.objective_calls"] - c["solver.calls"]
    out["solver.step_accept_ratio"] = c["solver.newton_iters_total"] / attempts if attempts else 0.0
    splits = c["clustering.splits"]
    out["clustering.size_max_over_mean"] = c["clustering.size_ratio_sum"] / splits if splits else 0.0
    out["clustering.center_mb"] = c["clustering.center_bytes"] / 1e6
    for name in (
        "data.parse_rows", "representations.nnz", "representations.dim",
        "clustering.splits", "clustering.iters_total", "clustering.iters_max",
        "clustering.empty_dropped", "clustering.objective_sum",
        "tree.nodes", "tree.leaves", "tree.leaf_labels_max",
        "solver.calls", "solver.problem_nnz_total", "solver.newton_iters_total",
        "solver.newton_iters_max", "solver.not_converged", "solver.zero_positive",
        "solver.weights_kept", "solver.weights_pruned",
    ):
        out[name] = c[name]
    return out


def covered_share(spans, wall_s: float) -> float:
    """Share of a command's wall time that its top-level spans account for
    (the sum of every span's self time equals the top-level spans' sum)."""
    return sum(self_times(spans)) / wall_s if wall_s > 0 else 0.0


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    spawn_ns = os.environ.get("BENCH_SPAWN_NS")
    if spawn_ns is not None:
        rec.spans.append(["cli.boot", int(spawn_ns), ENTRY_NS, -1])
    cli = rec.span("cli.import", importlib.import_module, ("labelforest.cli",))
    install(rec)
    try:
        return rec.span("cli.main", cli.main, (cli_args,))
    finally:
        rec.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
