"""Ranking metrics: P@k, nDCG@k, their propensity-scored variants, and
label-space coverage.

``evaluate`` scores a whole test set with array operations.

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

from .data import LabelIndex


@dataclass(frozen=True)
class PropensityModel:
    a: float
    b: float
    n: int
    p: np.ndarray

    def __post_init__(self):
        if not np.all((self.p > 0) & (self.p <= 1)):
            raise ValueError("propensities must lie in (0, 1]")

    @property
    def n_labels(self) -> int:
        return len(self.p)

    @classmethod
    def uniform(cls, n_labels: int) -> "PropensityModel":
        return cls(0.0, 0.0, 0, np.ones(n_labels))


def fit_propensities(idx, n: int, a: float = 0.55, b: float = 1.5) -> PropensityModel:
    """Per-label inverse-frequency propensities from a LabelIndex or an
    array of label frequencies."""
    freqs = idx.freqs if isinstance(idx, LabelIndex) else np.asarray(idx)
    # a bad a or b gives nan or 0 here, which PropensityModel rejects
    with np.errstate(divide="ignore", invalid="ignore"):
        c = max((np.log(n) - 1.0) * (1.0 + b) ** a, 0.0)
        p = 1.0 / (1.0 + c * np.exp(-a * np.log(freqs.astype(np.float64) + b)))
    return PropensityModel(a, b, n, p)


@dataclass(frozen=True)
class EvalReport:
    ks: tuple
    rows: dict

    def value(self, metric: str, k: int) -> float:
        return self.rows[metric][k]

    def format(self) -> str:
        width = 10
        header = "metric".ljust(width) + "".join(f"@{k}".rjust(8) for k in self.ks)
        rows = [
            name.ljust(width) + "".join(f"{by_k[k]:8.2f}" for k in self.ks)
            for name, by_k in self.rows.items()
        ]
        return "\n".join([header, *rows]) + "\n"


def _truth_entries(truths) -> tuple[np.ndarray, np.ndarray]:
    """(row, label) of every distinct true label, sorted by row then label."""
    rows = [np.fromiter(t, dtype=np.int64) if isinstance(t, (set, frozenset))
            else np.asarray(t, dtype=np.int64) for t in truths]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    row = np.repeat(np.arange(len(rows)), lengths)
    lab = np.concatenate(rows)
    order = np.lexsort((lab, row))
    row, lab = row[order], lab[order]
    repeat = np.zeros(len(row), dtype=bool)
    repeat[1:] = (row[1:] == row[:-1]) & (lab[1:] == lab[:-1])
    return row[~repeat], lab[~repeat]


def evaluate(preds, truths, prop: PropensityModel, ks=(1, 3, 5)) -> EvalReport:
    """Full report: P, nDCG (means x100), PSP, PSnDCG (oracle-normalized),
    coverage (x100), per cutoff.

    ``preds`` is a ``Predictions`` block, ``truths`` label sets.  All rows
    are scored at once: the block, cut or padded with -1 (a miss) to
    max(ks) columns, is looked up among the (row, label) keys of the
    truth, and the oracle ranks each row's true labels by ascending
    propensity, ties by label id.
    """
    if len(preds) != len(truths):
        raise ValueError("predictions and truths must align")
    if not len(preds):
        raise ValueError("empty test set")
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    n, kmax = len(preds), max(ks)
    top = np.full((n, kmax), -1, dtype=np.int64)
    top[:, : preds.labels.shape[1]] = preds.labels[:, :kmax]
    t_row, t_lab = _truth_entries(truths)
    if not len(t_row):
        raise ValueError("oracle gain is zero; no true labels in the test set")
    n_true = np.bincount(t_row, minlength=n)
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
        ideal = ideal_at[np.minimum(k, n_true)][has_truth]
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
