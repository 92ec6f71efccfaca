"""The labelforest benchmark: train, predict and eval through the real CLI.

    python3 bench/run.py --workload eurlex --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's data is generated from
``--seed`` (once, outside the timed region, and cached under
``.bench_work/``).  Each command runs in a fresh process.

``--trace 0`` repeats rounds of ``train``, ``predict`` and ``eval`` until
``--seconds`` have passed (so at least one), then starts ``SETUP_PROBES`` fresh processes that each time ``load_model`` plus
a first one-row ``predict_batch``.  It prints the medians of the
end-to-end metrics.

``--trace 1`` runs one plain round and one traced round (see
``tracing.py``) and prints the per-layer metrics of the traced round, with
the traced-minus-plain wall time of each command as tracing overhead.

Every command's exit code and every output check counts as one operation.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

import gen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TOP_K = 5              # predict writes max(--k) labels; the CLI default is 1,3,5
BEAM = 10
SETUP_PROBES = 5       # fresh processes timing load_model + first predict
SAMPLE_ROWS = 24       # test rows checked against the per-instance reference
RUN_DEADLINE_S = 170   # every process of a run is killed after this
MIN_COVERED_SHARE = 0.95
CACHED_DATASETS = 40

END_TO_END_UNITS = {
    "train_s": "s",
    "predict_s": "s",
    "eval_s": "s",
    "setup_s": "s",
    "train_rss_mb": "MB",
    "predict_rss_mb": "MB",
    "model_mb": "MB",
    "p_at_1": "%",
    "p_at_3": "%",
    "p_at_5": "%",
    "psp_at_5": "%",
}


@dataclass
class Proc:
    """One finished child process, measured from outside."""

    rc: int
    end_ns: int
    wall_s: float
    rss_mb: float
    cpu_s: float
    stdout: str
    stderr: str


class Ops:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED {what}: {detail}", file=sys.stderr)
        return ok

    def exited(self, what: str, proc: Proc) -> bool:
        tail = proc.stderr.strip().splitlines()[-3:]
        return self.check(f"{what} exits 0", proc.rc == 0, f"exit {proc.rc}: {tail}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(len(os.sched_getaffinity(0)))
    return env


def run_proc(argv: list[str], log_base: str, deadline: float, traced: bool = False) -> Proc:
    """Run ``argv`` to completion; peak RSS and CPU come from its own
    ``wait4`` rusage.  The child is killed at ``deadline``.  A traced child
    learns when it was spawned, to span its interpreter start-up."""
    env = child_env()
    with open(log_base + ".out", "wb") as out, open(log_base + ".err", "wb") as err:
        t0 = time.monotonic_ns()
        if traced:
            env["BENCH_SPAWN_NS"] = str(t0)
        p = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), p.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        t1 = time.monotonic_ns()
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(log_base + ".out", encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    with open(log_base + ".err", encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Proc(p.returncode, t1, (t1 - t0) / 1e9, ru.ru_maxrss * 1024 / 1e6,
                ru.ru_utime + ru.ru_stime, stdout, stderr)


def _digest(paths: list[str], extra: str = "") -> str:
    h = hashlib.sha256(extra.encode())
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def model_hash(model_dir: str) -> str:
    return _digest([os.path.join(model_dir, n) for n in os.listdir(model_dir)])


def source_hash() -> str:
    pkg = os.path.join(SRC, "labelforest")
    return _digest([os.path.join(pkg, n) for n in os.listdir(pkg) if n.endswith(".py")])


# -- data ---------------------------------------------------------------------

@dataclass
class Data:
    key: str           # names the training data, which every seed shares
    train: str
    test: str
    row: str           # the first sample row, for the set-up probe
    sample: str        # SAMPLE_ROWS test rows, for the reference check
    indices: list[int]
    truth: list[set]   # true labels per test row
    prior_p1: float    # P@1 of always predicting the most frequent train label
    l: int


def _label_lines(path: str) -> tuple[str, list[str]]:
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    return lines[0], lines[1:]


def _labels(line: str) -> set:
    field = line.split(" ", 1)[0]
    return {int(t) for t in field.split(",")} if field else set()


def _generated(path: str, write) -> str:
    """Return the directory ``path``, first filling it by ``write(dir)``
    (under a temporary name) if it does not exist yet."""
    if not os.path.isdir(path):
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        write(tmp)
        os.rename(tmp, path)
    return path


def _write_test(name: str, seed: int, indices: list[int], out_dir: str) -> None:
    shape = WORKLOADS[name].shape
    _, rows = _label_lines(gen.write_test(shape, seed, out_dir))
    with open(os.path.join(out_dir, "sample.txt"), "w", encoding="utf-8") as f:
        f.write(f"{len(indices)} {shape.d} {shape.l}\n" + "".join(rows[i] + "\n" for i in indices))
    with open(os.path.join(out_dir, "row.txt"), "w", encoding="utf-8") as f:
        f.write(f"1 {shape.d} {shape.l}\n{rows[indices[0]]}\n")


def prepare_data(name: str, seed: int) -> Data:
    """Generate (or reuse) the workload's fixed training file and the test
    files of ``seed``."""
    shape = WORKLOADS[name].shape
    key = _digest([os.path.join(BENCH, "gen.py"), os.path.join(BENCH, "workloads.py")], name)
    wdir = _generated(os.path.join(WORK, "data", f"{name}-{key[:12]}"),
                      lambda d: gen.write_train(shape, d))
    indices = sorted({int(i) for i in np.linspace(0, shape.n_test - 1, SAMPLE_ROWS)})
    sdir = _generated(os.path.join(wdir, f"seed-{seed}"),
                      lambda d: _write_test(name, seed, indices, d))
    _prune(wdir)

    train = os.path.join(wdir, "train.txt")
    _, train_rows = _label_lines(train)
    _, test_rows = _label_lines(os.path.join(sdir, "test.txt"))
    truth = [_labels(r) for r in test_rows]
    counts = np.bincount(
        np.fromiter((lab for r in train_rows for lab in _labels(r)), dtype=np.int64),
        minlength=shape.l,
    )
    top = int(np.argmax(counts))
    prior = 100.0 * sum(top in t for t in truth) / len(truth)
    path = lambda n: os.path.join(sdir, n)  # noqa: E731
    return Data(os.path.basename(wdir), train, path("test.txt"), path("row.txt"),
                path("sample.txt"), indices, truth, prior, shape.l)


def _prune(wdir: str) -> None:
    seeds = [os.path.join(wdir, n) for n in os.listdir(wdir) if n.startswith("seed-")]
    for old in sorted(seeds, key=os.path.getmtime)[:-CACHED_DATASETS]:
        shutil.rmtree(old, ignore_errors=True)


# -- output checks --------------------------------------------------------------

def check_predictions(path: str, data: Data) -> tuple[str, np.ndarray | None]:
    """Return (problem or "", n x TOP_K label matrix)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if len(lines) != len(data.truth):
        return f"{len(lines)} rows, expected {len(data.truth)}", None
    top = np.empty((len(lines), TOP_K), dtype=np.int64)
    for i, line in enumerate(lines):
        pairs = [t.split(":") for t in line.split()]
        labels = [int(a) for a, _ in pairs]
        scores = [float(b) for _, b in pairs]
        if len(labels) != TOP_K or len(set(labels)) != TOP_K:
            return f"row {i}: {len(labels)} labels, expected {TOP_K} distinct", None
        if min(labels) < 0 or max(labels) >= data.l:
            return f"row {i}: label out of range [0, {data.l})", None
        if min(scores) < 0 or max(scores) > 1 or any(a < b for a, b in zip(scores, scores[1:])):
            return f"row {i}: scores not descending in [0, 1]", None
        top[i] = labels
    return "", top


def precision_at(top: np.ndarray, truth: list[set], k: int) -> float:
    hits = sum(len(truth[i].intersection(top[i, :k].tolist())) for i in range(len(truth)))
    return 100.0 * hits / (k * len(truth))


def parse_eval_table(text: str) -> dict[str, list[float]]:
    rows = {}
    for line in text.strip().splitlines()[1:]:
        name, *values = line.split()
        rows[name] = [float(v) for v in values]
    return rows


# -- one round of train, predict, eval -------------------------------------------

@dataclass
class Round:
    train: Proc | None = None
    predict: Proc | None = None
    eval: Proc | None = None
    model_hash: str = ""
    model_mb: float = 0.0
    table: dict | None = None
    spans: dict | None = None  # per command, when traced

    @property
    def complete(self) -> bool:
        return self.eval is not None and self.eval.rc == 0


def run_round(name: str, data: Data, rdir: str, ops: Ops, deadline: float, traced: bool) -> Round:
    wl = WORKLOADS[name]
    os.makedirs(rdir)
    model = os.path.join(rdir, "model")
    pred = os.path.join(rdir, "pred.txt")
    r = Round(spans={} if traced else None)

    def cli(cmd: str, args: list[str]) -> Proc:
        spans = os.path.join(rdir, f"{cmd}.spans.json")
        if traced:
            prefix = [sys.executable, os.path.join(BENCH, "tracing.py"), spans]
        else:
            prefix = [sys.executable, "-m", "labelforest.cli"]
        proc = run_proc(prefix + [cmd] + args, os.path.join(rdir, cmd), deadline, traced)
        if ops.exited(("traced " if traced else "") + cmd, proc) and traced:
            r.spans[cmd] = tracing.load(spans, proc.end_ns)
        return proc

    r.train = cli("train", ["--data", data.train, "--model", model, *wl.train_flags])
    if r.train.rc != 0:
        return r
    r.model_hash = model_hash(model)
    r.model_mb = sum(os.path.getsize(os.path.join(model, n)) for n in os.listdir(model)) / 1e6
    r.predict = cli("predict", ["--model", model, "--data", data.test, "--output", pred,
                                "--k", str(TOP_K), "--beam", str(BEAM)])
    if r.predict.rc != 0:
        return r
    problem, top = check_predictions(pred, data)
    ops.check("prediction file format", not problem, problem)
    r.eval = cli("eval", ["--predictions", pred, "--data", data.test, "--train-data", data.train])
    if r.eval.rc == 0 and top is not None:
        r.table = parse_eval_table(r.eval.stdout)
        ours = [precision_at(top, data.truth, k) for k in (1, 3, 5)]
        theirs = r.table.get("P", [])
        ops.check("eval P@1,3,5 match the predictions", len(theirs) == 3 and
                  all(abs(a - b) <= 0.006 for a, b in zip(ours, theirs)), f"{theirs} vs {ours}")
        ops.check("P@1 beats the most-frequent-label prior", len(theirs) == 3 and
                  theirs[0] > data.prior_p1, f"{theirs[:1]} vs prior {data.prior_p1:.2f}")
    return r


def run_probe(data: Data, rdir: str, check: bool, log: str, ops: Ops,
              deadline: float) -> float | None:
    argv = [sys.executable, os.path.join(BENCH, "probe.py"), "--model", os.path.join(rdir, "model"),
            "--row", data.row, "--beam", str(BEAM), "--k", str(TOP_K)]
    if check:
        argv += ["--sample", data.sample, "--predictions", os.path.join(rdir, "pred.txt"),
                 "--indices", ",".join(map(str, data.indices))]
    proc = run_proc(argv, log, deadline)
    if not ops.exited("set-up probe", proc):
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if check:
        problems = out["problems"]
        ops.check(f"predict_batch equals predict_ensemble on {out['checked']} rows",
                  not problems, "; ".join(problems[:3]))
    return out["setup_s"]


def check_model_hashes(data: Data, rounds: list[Round], ops: Ops) -> None:
    """Every model trained on this data is byte-identical, also across runs
    (and seeds) of the same source."""
    path = os.path.join(WORK, "model_hashes.json")
    known = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            known = json.load(f)
    key = f"{data.key}:{source_hash()}"
    hashes = [r.model_hash for r in rounds if r.model_hash]
    if not hashes:
        return
    expected = known.get(key, hashes[0])
    ops.check("model directory identical across runs", all(h == expected for h in hashes),
              f"{sorted(set(hashes))} vs {expected}")
    known[key] = expected
    with open(path, "w", encoding="utf-8") as f:
        json.dump(known, f, indent=0)


# -- metrics ------------------------------------------------------------------------

def end_to_end(rounds: list[Round], setups: list[float]) -> dict[str, float]:
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    done = [r for r in rounds if r.complete]
    first = done[0] if done else None
    table = (first.table if first else None) or {}
    out = {
        "train_s": med([r.train.wall_s for r in rounds if r.train.rc == 0]),
        "predict_s": med([r.predict.wall_s for r in rounds if r.predict and r.predict.rc == 0]),
        "eval_s": med([r.eval.wall_s for r in done]),
        "setup_s": med(setups),
        "train_rss_mb": med([r.train.rss_mb for r in rounds if r.train.rc == 0]),
        "predict_rss_mb": med([r.predict.rss_mb for r in rounds if r.predict and r.predict.rc == 0]),
        "model_mb": first.model_mb if first else 0.0,
    }
    for metric, row, col in (("p_at_1", "P", 0), ("p_at_3", "P", 1), ("p_at_5", "P", 2),
                             ("psp_at_5", "PSP", 2)):
        out[metric] = table.get(row, [0.0] * 3)[col]
    return out


def per_layer(plain: Round, traced: Round, ops: Ops) -> dict[str, float]:
    shares = []
    for cmd, rec in traced.spans.items():
        share = tracing.covered_share(rec["spans"], getattr(traced, cmd).wall_s)
        shares.append(share)
        ops.check(f"traced {cmd}: layer self times cover >= {MIN_COVERED_SHARE:.0%} of wall time",
                  share >= MIN_COVERED_SHARE, f"{share:.3f}")
    spans, counters = tracing.pool(traced.spans.values())
    out = tracing.layer_metrics(spans, counters)
    out["cli.train_cpu_s"] = plain.train.cpu_s
    for cmd in ("train", "predict", "eval"):
        a, b = getattr(traced, cmd), getattr(plain, cmd)
        out[f"trace.{cmd}_overhead_s"] = a.wall_s - b.wall_s if a and b else 0.0
    out["trace.covered_share_min"] = min(shares) if shares else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "labelforest", "cli.py")):
        print(f"no labelforest sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    data = prepare_data(args.workload, args.seed)
    run_dir = os.path.join(WORK, "run", args.workload)  # only the last run is kept
    shutil.rmtree(run_dir, ignore_errors=True)
    threads = child_env()["OMP_NUM_THREADS"]
    print(f"workload {args.workload} seed {args.seed}: BLAS/OpenMP pools capped at {threads} "
          f"(OMP_NUM_THREADS, OPENBLAS_NUM_THREADS, MKL_NUM_THREADS)")

    ops = Ops()
    if args.trace:
        plain = run_round(args.workload, data, os.path.join(run_dir, "plain"), ops, deadline, False)
        traced = run_round(args.workload, data, os.path.join(run_dir, "traced"), ops, deadline, True)
        rounds = [plain, traced]
        metrics, units = per_layer(plain, traced, ops), tracing.LAYER_UNITS
    else:
        rounds, t_start = [], time.monotonic()
        while True:
            r = run_round(args.workload, data, os.path.join(run_dir, f"r{len(rounds)}"), ops,
                          deadline, False)
            rounds.append(r)
            if not r.complete or time.monotonic() - t_start >= args.seconds:
                break
        metrics, units = None, END_TO_END_UNITS

    setups = []
    if rounds[0].complete:
        rdir = os.path.join(run_dir, "plain" if args.trace else "r0")
        for i in range(1 if args.trace else SETUP_PROBES):
            s = run_probe(data, rdir, i == 0, os.path.join(run_dir, f"probe{i}"), ops, deadline)
            if s is not None:
                setups.append(s)
    check_model_hashes(data, rounds, ops)
    if metrics is None:
        metrics = end_to_end(rounds, setups)
    metrics = {m: metrics[m] for m in units}

    print(f"{len(rounds)} rounds, {len(setups)} set-up probes, {ops.attempted} operations")
    for metric, value in metrics.items():
        print(f"{metric:32s} {value:14.6f} {units[metric]}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
