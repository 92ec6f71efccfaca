"""The per-instance evaluation loops, kept as the oracle for the array
evaluation in ``labelforest.metrics.evaluate``.

Each metric is summed row by row from the scalar definitions in
``labelforest.metrics``; the oracle ranking sorts one row's true labels
at a time.  ``evaluate`` must match ``evaluate_oracle`` to 1e-9 on every
metric and cutoff.
"""

from __future__ import annotations

import numpy as np

from labelforest.metrics import (
    EvalReport,
    PropensityModel,
    _top_labels,
    _truth_array,
    ndcg_at_k,
    precision_at_k,
    psndcg_at_k,
    psp_at_k,
)


def oracle_top_k(truth, prop: PropensityModel, k: int) -> np.ndarray:
    """True labels ranked by ascending propensity (rarest first)."""
    t = _truth_array(truth)
    order = np.lexsort((t, prop.p[t]))
    return t[order][:k]


_PS_METRICS = {"psp": psp_at_k, "psndcg": psndcg_at_k}


def ps_report(preds, truths, prop: PropensityModel, k: int, kind: str = "psp") -> float:
    """100 * mean predicted gain over mean oracle gain for a PS metric."""
    metric = _PS_METRICS[kind]
    if len(preds) != len(truths):
        raise ValueError("predictions and truths must align")
    if not len(preds):
        raise ValueError("empty test set")
    pred_gain = 0.0
    oracle_gain = 0.0
    for pred, truth in zip(preds, truths):
        pred_gain += metric(pred, truth, prop, k)
        oracle_gain += metric(oracle_top_k(truth, prop, k), truth, prop, k)
    if oracle_gain == 0.0:
        raise ValueError("oracle gain is zero; no true labels in the test set")
    return 100.0 * pred_gain / oracle_gain


def coverage_at_k(preds, truths, prop: PropensityModel, k: int) -> float:
    """Distinct predicted top-k labels over distinct oracle top-k labels."""
    if len(preds) != len(truths):
        raise ValueError("predictions and truths must align")
    pred_union = set()
    truth_union = set()
    for pred, truth in zip(preds, truths):
        pred_union.update(_top_labels(pred, k).tolist())
        truth_union.update(oracle_top_k(truth, prop, k).tolist())
    if not truth_union:
        raise ValueError("ground-truth top-k union is empty")
    return len(pred_union) / len(truth_union)


def evaluate_oracle(preds, truths, prop: PropensityModel, ks=(1, 3, 5)) -> EvalReport:
    """Full report: P, nDCG (means x100), PSP, PSnDCG (oracle-normalized),
    coverage (x100), per cutoff."""
    if len(preds) != len(truths):
        raise ValueError("predictions and truths must align")
    if not len(preds):
        raise ValueError("empty test set")
    n = len(preds)
    rows = {name: {} for name in ("P", "nDCG", "PSP", "PSnDCG", "coverage")}
    for k in ks:
        rows["P"][k] = 100.0 * sum(precision_at_k(p, t, k) for p, t in zip(preds, truths)) / n
        rows["nDCG"][k] = 100.0 * sum(ndcg_at_k(p, t, k) for p, t in zip(preds, truths)) / n
        rows["PSP"][k] = ps_report(preds, truths, prop, k, "psp")
        rows["PSnDCG"][k] = ps_report(preds, truths, prop, k, "psndcg")
        rows["coverage"][k] = 100.0 * coverage_at_k(preds, truths, prop, k)
    return EvalReport(tuple(ks), rows)
