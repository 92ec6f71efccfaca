"""Set-up time of a fresh process, and the reference check of predict_batch.

    python3 bench/probe.py --model DIR --row ROW.txt --beam 10
    python3 bench/probe.py --model DIR --row ROW.txt --beam 10 \\
        --sample SAMPLE.txt --predictions PRED.txt --indices 0,7,15

Set-up is ``load_model`` plus the first ``predict_batch`` on the one row in
ROW.txt; parsing that row happens before the clock starts.  With
``--sample``, the rows of SAMPLE.txt are also scored by ``predict_batch``
and by the per-instance reference ``predict_ensemble``: their top-k must
agree, with the tolerance the test suite uses, and must equal the lines
``--indices`` of the prediction file the CLI wrote.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

# The prediction file keeps 5 decimals.
FILE_SCORE_TOL = 5.1e-6


def _read_lines(path: str, indices: list[int]) -> dict[int, list[tuple[int, float]]]:
    wanted = set(indices)
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for i, line in enumerate(f):
            if i in wanted:
                out[i] = [(int(a), float(b)) for a, b in (t.split(":") for t in line.split())]
    return out


def check(ens, sample, beam: int, k: int, pred_path: str, indices: list[int]) -> list[str]:
    from labelforest import predict_batch, predict_ensemble
    from labelforest.predict import prepare_features
    from labelforest.sparse import SparseRowMatrix

    problems = []
    batch = predict_batch(ens, sample, beam=beam, k=k)
    X = prepare_features(ens, sample)
    written = _read_lines(pred_path, indices)
    for i, row in enumerate(indices):
        ref = predict_ensemble(ens, SparseRowMatrix.from_csr(X[[i]]).row(0), beam=beam, k=k)
        got = batch[i]
        if got.labels.tolist() != ref.labels.tolist() or not np.allclose(
            got.scores, ref.scores, rtol=1e-10, atol=1e-12
        ):
            problems.append(f"test row {row}: predict_batch {got.pairs()} != reference {ref.pairs()}")
        line = written.get(row, [])
        if [lab for lab, _ in line] != got.labels.tolist() or not np.allclose(
            [s for _, s in line], got.scores, rtol=0, atol=FILE_SCORE_TOL
        ):
            problems.append(f"test row {row}: prediction file {line} != predict_batch {got.pairs()}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", required=True)
    ap.add_argument("--row", required=True)
    ap.add_argument("--beam", type=int, required=True)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--sample")
    ap.add_argument("--predictions")
    ap.add_argument("--indices", type=lambda s: [int(t) for t in s.split(",")])
    args = ap.parse_args(argv)

    from labelforest import load_model, parse_dataset, predict_batch

    row = parse_dataset(args.row)
    t0 = time.perf_counter()
    ens = load_model(args.model)
    predict_batch(ens, row, beam=args.beam, k=args.k)
    out = {"setup_s": time.perf_counter() - t0}
    if args.sample:
        sample = parse_dataset(args.sample)
        out["checked"] = sample.n
        out["problems"] = check(ens, sample, args.beam, args.k, args.predictions, args.indices)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
