"""The per-instance metrics and evaluation loops, kept as the oracle for
the array evaluation in ``labelforest.metrics.evaluate``.

``precision_at_k`` ... ``psndcg_at_k`` define each metric for one ranked
list; each report row sums them row by row, and the oracle ranking sorts
one row's true labels at a time.  ``evaluate`` must match
``evaluate_oracle`` to 1e-9 on every metric and cutoff.
"""

from __future__ import annotations

import numpy as np

from labelforest.metrics import EvalReport, PropensityModel


def _top_labels(pred, k: int) -> np.ndarray:
    return np.asarray(getattr(pred, "labels", pred), dtype=np.int64)[:k]


def _truth_array(truth) -> np.ndarray:
    return np.asarray(sorted(truth), dtype=np.int64)


def _hits(pred, truth, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top k predicted labels, and which of them are true."""
    if k < 1:
        raise ValueError("k must be >= 1")
    top = _top_labels(pred, k)
    return top, np.isin(top, _truth_array(truth))


def _dcg_ratio(hits, p_top, truth, k: int) -> float:
    """DCG with gain 1/p at each hit, over the ideal DCG of k slots of
    ``truth`` at gain 1; 0 for an empty truth."""
    n_true = len(_truth_array(truth))
    if not n_true:
        return 0.0
    ranks = np.arange(1, len(hits) + 1)
    dcg = float(np.sum(hits / (p_top * np.log2(ranks + 1))))
    ideal_ranks = np.arange(1, min(k, n_true) + 1)
    return dcg / float(np.sum(1.0 / np.log2(ideal_ranks + 1)))


def precision_at_k(pred, truth, k: int) -> float:
    """Fraction of the k slots holding a true label; short lists pad with
    misses."""
    return float(_hits(pred, truth, k)[1].sum()) / k


def ndcg_at_k(pred, truth, k: int) -> float:
    return _dcg_ratio(_hits(pred, truth, k)[1], 1.0, truth, k)


def psp_at_k(pred, truth, prop: PropensityModel, k: int) -> float:
    top, hits = _hits(pred, truth, k)
    return float(np.sum(hits / prop.p[top])) / k


def psndcg_at_k(pred, truth, prop: PropensityModel, k: int) -> float:
    top, hits = _hits(pred, truth, k)
    return _dcg_ratio(hits, prop.p[top], truth, k)


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
