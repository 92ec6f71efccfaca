"""Command-line entry points: train, predict, eval, stats.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import asdict, fields

import numpy as np

from .data import DataFormatError, Dataset, label_frequency_histogram, parse_dataset, read_int
from .metrics import DEFAULT_A, DEFAULT_B, evaluate, fit_propensities
from .predict import predict_batch, read_predictions, write_predictions
from .representations import ReprSpace
from .tree import TrainConfig, TrainReport, load_model, model_file, train_ensemble

log = logging.getLogger("labelforest")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# L at or below this gets depth-1 trees by default; larger label spaces
# need a second level to keep node fan-out near the branch factor.
AUTO_DEPTH_CUTOFF = 40_000


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which this tool reserves for
    # data errors; raise instead and let main() translate to exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


def _int(text: str) -> int:
    """An integer flag's value, spelled as a file spells one: ``read_int``."""
    try:
        value = read_int(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    if value is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = _int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _k_list(text: str) -> tuple[int, ...]:
    return tuple(map(_positive_int, text.split(",")))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="labelforest", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)

    p = sub.add_parser("train", help="train a tree ensemble")
    p.add_argument("--data", required=True, help="training data file")
    p.add_argument("--model", required=True, help="model directory to write")
    # each flag fills its TrainConfig field, defaulting to it (set first: --max-depth keeps None)
    p.set_defaults(**asdict(TrainConfig()))
    p.add_argument("--trees", dest="n_trees", metavar="TREES", type=_positive_int)
    p.add_argument("--branch", dest="k", metavar="BRANCH", type=_int,
                   help="k-means branching factor")
    p.add_argument("--max-depth", dest="d_max", metavar="MAX_DEPTH", type=_int, default=None,
                   help="maximum internal depth (default: 1 when L <= 40000, else 2)")
    p.add_argument("--repr", dest="repr_space", choices=[s.value for s in ReprSpace],
                   help="label representation space")
    p.add_argument("--c", type=float, help="misclassification weight")
    p.add_argument("--eps", type=float, help="solver gradient tolerance")
    p.add_argument("--delta", type=float, help="weight pruning threshold")
    p.add_argument("--seed", dest="base_seed", metavar="SEED", type=_int, help="base RNG seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a test file")
    p.add_argument("--model", required=True, help="model directory")
    p.add_argument("--data", required=True, help="test data file")
    p.add_argument("--output", required=True, help="prediction file to write")
    p.add_argument("--beam", type=_positive_int, default=10)
    p.add_argument("--k", type=_positive_int, default=5, help="labels written per instance")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against truth")
    p.add_argument("--predictions", required=True, help="prediction file")
    p.add_argument("--data", required=True, help="ground-truth data file")
    p.add_argument(
        "--train-data",
        default=None,
        help="data file whose label frequencies fit the propensity model "
        "(default: the ground-truth file)",
    )
    p.add_argument("--k", type=_k_list, default=(1, 3, 5), help="comma-separated cutoffs")
    p.add_argument("--a", type=float, default=DEFAULT_A,
                   help="propensity parameter A (default %(default)s; 0: one p for all labels)")
    p.add_argument("--b", type=float, default=DEFAULT_B,
                   help="propensity parameter B (default %(default)s)")
    p.add_argument("--output", default=None, help="also write the table to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="dataset header stats + histogram")
    p.add_argument(
        "--data", required=True, nargs="+", help="data files pooled into one summary"
    )
    p.add_argument("--output", default=None, help="histogram file (default: stdout)")
    p.set_defaults(func=cmd_stats)
    return parser


def _load_dataset(path) -> Dataset:
    t0 = time.perf_counter()
    ds = parse_dataset(path)
    log.info(
        "parsed %s: N=%d D=%d L=%d (%.2fs)",
        path, ds.n, ds.d, ds.l, time.perf_counter() - t0,
    )
    return ds


def cmd_train(args) -> int:
    t_start = time.perf_counter()
    ds = _load_dataset(args.data)
    if args.d_max is None:
        args.d_max = 1 if ds.l <= AUTO_DEPTH_CUTOFF else 2
    try:
        config = TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})
    except ValueError as e:
        raise UsageError(str(e))

    report = TrainReport()
    train_ensemble(ds, config, report, args.model)
    log.info(
        "trained %d trees: %d nodes, %d leaves, %d classifiers "
        "(%d with no positives), %d Newton steps, "
        "%d classifiers stopped at the Newton cap, %d weights kept, %d pruned; "
        "%d CG steps, %d nodes solved in instance coordinates; "
        "%d k-means splits in %d Lloyd rounds; %d solve batches",
        config.n_trees, report.n_nodes, report.n_leaves,
        report.n_classifiers, report.n_zero_positive,
        report.n_newton_iters, report.n_not_converged,
        report.n_weights_kept, report.n_weights_pruned,
        report.n_cg_iters, report.n_instance_nodes,
        report.n_splits, report.n_lloyd_rounds, report.n_solve_batches,
    )
    log.info(
        "timings: grow %.2fs, solve %.2fs, save %.2fs, total %.2fs",
        report.grow_seconds, report.solve_seconds, report.save_seconds,
        time.perf_counter() - t_start,
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    t0 = time.perf_counter()
    ens = load_model(args.model)
    t_load = time.perf_counter() - t0
    size = sum(os.path.getsize(model_file(args.model, t)) for t in [None, *range(len(ens.trees))])
    log.info("loaded %d trees: %.2f MB on disk in %.3fs", len(ens.trees), size / 1e6, t_load)
    ds = _load_dataset(args.data)
    t0 = time.perf_counter()
    preds = predict_batch(ens, ds, beam=args.beam, k=args.k)
    elapsed = time.perf_counter() - t0
    write_predictions(preds, args.output)
    if ds.n:
        log.info(
            "predicted %d instances in %.2fs (%.3f ms/instance)",
            ds.n, elapsed, 1000.0 * elapsed / ds.n,
        )
    return EXIT_OK


def cmd_eval(args) -> int:
    preds = read_predictions(args.predictions)
    ds = _load_dataset(args.data)
    if len(preds) != ds.n:
        raise DataFormatError(
            f"{args.predictions}: {len(preds)} prediction rows for {ds.n} ground-truth instances"
        )
    # read_predictions has rejected negative ids; -1 is the padding
    bad = np.flatnonzero((preds.labels >= ds.l).any(axis=1))
    if len(bad):
        raise DataFormatError(
            f"{args.predictions}: line {bad[0] + 1}: predicted label id out of range [0, {ds.l})"
        )

    src = ds
    if args.train_data is not None:
        src = _load_dataset(args.train_data)
        if src.l != ds.l:
            raise DataFormatError(
                f"{args.train_data}: propensity source has L={src.l}, ground truth has L={ds.l}"
            )
    freqs = np.bincount(src.Y.indices, minlength=src.l)
    try:
        prop = fit_propensities(freqs, src.n, args.a, args.b)
    except ValueError as e:
        raise UsageError(f"--a {args.a} --b {args.b}: {e}")

    try:
        rep = evaluate(preds, ds.Y, prop, args.k)
    except ValueError as e:
        # empty test sets and all-empty truths are data conditions
        raise DataFormatError(str(e))
    table = rep.format()
    print(table)
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(table + "\n")
    return EXIT_OK


def cmd_stats(args) -> int:
    n_total = 0
    occurrences = 0
    freqs = None
    d = l = None
    for path in args.data:
        ds = _load_dataset(path)
        if d is None:
            d, l = ds.d, ds.l
        elif (ds.d, ds.l) != (d, l):
            raise DataFormatError(
                f"{path}: dimensions {ds.d}x{ds.l} disagree with first file {d}x{l}"
            )
        counts = np.bincount(ds.Y.indices, minlength=l)
        freqs = counts if freqs is None else freqs + counts
        n_total += ds.n
        occurrences += int(counts.sum())

    # instances with no labels count toward N (and the ALpP denominator)
    # but contribute nothing to the occurrence total
    appl = occurrences / l if l else 0.0
    alpp = occurrences / n_total if n_total else 0.0
    print(f"N {n_total}")
    print(f"D {d}")
    print(f"L {l}")
    print(f"APpL {appl:.2f}")
    print(f"ALpP {alpp:.2f}")
    if args.output is None:
        label_frequency_histogram(freqs, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as f:
            label_frequency_histogram(freqs, f)
    return EXIT_OK


def main(argv=None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except (DataFormatError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
