"""Ranking metrics: P@k, nDCG@k, their propensity-scored variants, and
label-space coverage.

``evaluate`` scores a whole test set with array operations, reading the
truth straight from the index arrays of the label matrix Y.

Propensities follow the sigmoid-in-log-frequency model

    p_l = 1 / (1 + C * exp(-A * ln(N_l + B))),   C = (ln N - 1) * (1 + B)^A

with C clamped at zero so p stays in (0, 1] on very small datasets.  The
propensity-scored numbers are reported as percentages of the ground-truth
oracle's gain: 100 * mean(pred gain) / mean(oracle gain), where the oracle
ranks each instance's true labels by ascending propensity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_A, DEFAULT_B = 0.55, 1.5  # the propensity model's A and B unless given


@dataclass(frozen=True)
class PropensityModel:
    p: np.ndarray  # one propensity per label

    def __post_init__(self):
        if not np.all((self.p > 0) & (self.p <= 1)):
            raise ValueError("propensities must lie in (0, 1]")

    @property
    def n_labels(self) -> int:
        return len(self.p)


def fit_propensities(freqs, n: int, a: float = DEFAULT_A, b: float = DEFAULT_B) -> PropensityModel:
    """Per-label inverse-frequency propensities from the label frequencies
    ``freqs`` over ``n`` training instances."""
    # a bad a or b gives nan or 0 here, which PropensityModel rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        c = max((np.log(n) - 1.0) * (1.0 + b) ** a, 0.0)
        p = 1.0 / (1.0 + c * np.exp(-a * np.log(np.asarray(freqs, dtype=np.float64) + b)))
    return PropensityModel(p)


@dataclass(frozen=True)
class EvalReport:
    ks: tuple
    rows: dict

    def format(self) -> str:
        width = 10
        header = "metric".ljust(width) + "".join(f"@{k}".rjust(8) for k in self.ks)
        rows = [
            name.ljust(width) + "".join(f"{by_k[k]:8.2f}" for k in self.ks)
            for name, by_k in self.rows.items()
        ]
        return "\n".join([header, *rows]) + "\n"


def evaluate(preds, truth, prop: PropensityModel, ks=(1, 3, 5)) -> EvalReport:
    """Full report: P, nDCG (means x100), PSP, PSnDCG (oracle-normalized),
    coverage (x100), per cutoff.

    ``preds`` is a ``Predictions`` block and ``truth`` the n x L label
    matrix as CSR in canonical format (sorted, distinct labels per row),
    whose ``indptr`` and ``indices`` give the (row, label) keys of every
    true label.  All rows are scored at once: the block, cut or padded
    with -1 (a miss) to min(max(ks), L) columns, is looked up among those
    keys, and the oracle ranks each row's true labels by ascending
    propensity, ties by label id.  Every label id indexes ``prop``, so no
    row holds more than its L labels; P@k still divides by k.
    """
    if len(preds) != truth.shape[0]:
        raise ValueError("predictions and truths must align")
    if not truth.has_canonical_format:
        raise ValueError("truth rows must hold sorted, distinct labels")
    if not len(preds):
        raise ValueError("empty test set")
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    n, kmax = len(preds), min(max(ks), prop.n_labels)
    top = np.full((n, kmax), -1, dtype=np.int64)
    top[:, : preds.labels.shape[1]] = preds.labels[:, :kmax]
    n_true = np.diff(truth.indptr)
    t_row, t_lab = np.repeat(np.arange(n), n_true), truth.indices.astype(np.int64)
    if not len(t_lab):
        raise ValueError("oracle gain is zero; no true labels in the test set")
    has_truth = n_true > 0

    width = max(prop.n_labels, int(top.max()) + 1, int(t_lab.max()) + 1)
    slot_keys = np.arange(n)[:, None] * width + top
    hit = (top >= 0) & np.isin(slot_keys, t_row * width + t_lab)
    gain = np.where(hit, 1.0 / prop.p[np.maximum(top, 0)], 0.0)

    # rank of each true label in its row's oracle list
    order = np.lexsort((t_lab, prop.p[t_lab], t_row))
    o_row, o_lab = t_row[order], t_lab[order]
    o_rank = np.arange(len(o_row)) - (np.cumsum(n_true) - n_true)[o_row]
    o_gain = 1.0 / prop.p[o_lab]

    disc = 1.0 / np.log2(np.arange(2, kmax + 2))
    ideal_at = np.concatenate(([0.0], np.cumsum(disc)))
    rows = {name: {} for name in ("P", "nDCG", "PSP", "PSnDCG", "coverage")}
    for k in ks:
        top_k, hit_k, gain_k = top[:, :k], hit[:, :k], gain[:, :k]
        in_k = o_rank < k
        ideal = ideal_at[np.minimum(min(k, kmax), n_true)][has_truth]
        oracle_dcg = np.bincount(
            o_row[in_k], weights=o_gain[in_k] * disc[o_rank[in_k]], minlength=n
        )
        rows["P"][k] = float(100.0 * np.sum(hit_k.sum(axis=1) / k) / n)
        rows["nDCG"][k] = float(100.0 * np.sum((hit_k @ disc[:k])[has_truth] / ideal) / n)
        rows["PSP"][k] = float(100.0 * np.sum(gain_k) / np.sum(o_gain[in_k]))
        rows["PSnDCG"][k] = float(
            100.0 * np.sum((gain_k @ disc[:k])[has_truth] / ideal)
            / np.sum(oracle_dcg[has_truth] / ideal)
        )
        covered = np.unique(top_k[top_k >= 0])
        rows["coverage"][k] = float(100.0 * len(covered) / len(np.unique(o_lab[in_k])))
    return EvalReport(tuple(ks), rows)
