"""Seeded synthetic multi-label data in the labelforest text format.

Train and test rows are drawn from one shared structure, so that a model
trained on one scores meaningfully on the other:

- labels are grouped into topics of co-occurring labels;
- label frequencies follow a power law, and a topic is picked in
  proportion to the summed weight of its labels;
- every topic owns a block of features, and every label a small signature
  of its own features;
- a small share of the vocabulary is global noise, frequent in every topic.

A row picks a primary topic (and sometimes a second one), a few labels
from it, the signature features of those labels, more features from the
topic block, and some noise features.

The structure and the training rows are fixed by the shape alone; the
seed draws the test rows.  Training on other rows changes the k-means
partitions, and with them the work and the accuracy of a whole run, far
more than any change worth measuring, so every seed trains the same model
and scores other samples of the same problem with it.  The same shape and
seed give byte-identical files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

TOPIC_LABELS = 20       # labels per topic
TOPIC_FEATURES = 150    # features in a topic's block (blocks may overlap)
SIGNATURE = 10          # features a label owns
SIGNATURE_KEEP = 0.7    # chance a signature feature shows up in a row
NOISE_SHARE = 0.03      # share of the vocabulary that is global noise
NOISE_NNZ = 0.1         # share of a row's nonzeros drawn from the noise
SECOND_TOPIC = 0.3      # chance a row also draws from a second topic
POWER = 1.0             # exponent of the label frequency power law
FIXED_SEED = 20190423   # draws the structure and the training rows


@dataclass(frozen=True)
class Shape:
    n_train: int
    n_test: int
    d: int
    l: int
    labels_per_row: float
    nnz_per_row: int


class Structure:
    """Topics, label weights and feature blocks shared by train and test."""

    def __init__(self, shape: Shape, rng: np.random.Generator):
        d, l = shape.d, shape.l
        self.shape = shape
        weights = np.arange(1, l + 1, dtype=np.float64) ** -POWER
        self.label_w = weights[rng.permutation(l)]
        n_topics = max(1, -(-l // TOPIC_LABELS))
        self.topics = np.array_split(rng.permutation(l), n_topics)
        self.topic_p = np.array([self.label_w[t].sum() for t in self.topics])
        self.topic_p /= self.topic_p.sum()

        vocab = rng.permutation(d)
        n_noise = max(1, int(NOISE_SHARE * d))
        self.noise = vocab[:n_noise]
        self.noise_p = np.arange(1, n_noise + 1, dtype=np.float64) ** -1.0
        self.noise_p /= self.noise_p.sum()
        content = vocab[n_noise:]
        block = min(TOPIC_FEATURES, len(content))
        self.blocks = [rng.choice(content, size=block, replace=False) for _ in self.topics]
        self.signature = np.stack(
            [rng.choice(content, size=SIGNATURE, replace=False) for _ in range(l)]
        )

    def _labels(self, rng, topic: int, count: int) -> np.ndarray:
        labels = self.topics[topic]
        count = min(count, len(labels))
        w = self.label_w[labels]
        return rng.choice(labels, size=count, replace=False, p=w / w.sum())

    def row(self, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One instance: (sorted labels, sorted feature ids, values)."""
        shape = self.shape
        topic = int(rng.choice(len(self.topics), p=self.topic_p))
        n_lab = 1 + int(rng.poisson(max(shape.labels_per_row - 1.0, 0.0)))
        labels = [self._labels(rng, topic, n_lab)]
        topics = [topic]
        if rng.random() < SECOND_TOPIC:
            other = int(rng.choice(len(self.topics), p=self.topic_p))
            topics.append(other)
            labels.append(self._labels(rng, other, 1))
        labels = np.unique(np.concatenate(labels))

        sig = self.signature[labels].ravel()
        feats = [sig[rng.random(len(sig)) < SIGNATURE_KEEP]]
        n_noise = int(rng.binomial(shape.nnz_per_row, NOISE_NNZ))
        feats.append(rng.choice(self.noise, size=n_noise, p=self.noise_p))
        n_block = max(shape.nnz_per_row - n_noise - len(feats[0]), 0)
        pool = np.concatenate([self.blocks[t] for t in topics])
        feats.append(rng.choice(pool, size=n_block))
        feats = np.unique(np.concatenate(feats))
        values = rng.lognormal(0.0, 0.5, size=len(feats))
        return labels, feats, values


def _write(path: str, structure: Structure, n: int, rng) -> None:
    shape = structure.shape
    lines = [f"{n} {shape.d} {shape.l}\n"]
    for _ in range(n):
        labels, feats, values = structure.row(rng)
        pairs = " ".join(f"{f}:{v:.4f}" for f, v in zip(feats.tolist(), values.tolist()))
        lines.append(",".join(map(str, labels.tolist())) + " " + pairs + "\n")
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def write_train(shape: Shape, out_dir: str) -> str:
    """Write the workload's training rows to ``out_dir/train.txt``."""
    path = os.path.join(out_dir, "train.txt")
    structure = Structure(shape, np.random.default_rng(FIXED_SEED))
    _write(path, structure, shape.n_train, np.random.default_rng([FIXED_SEED, 1]))
    return path


def write_test(shape: Shape, seed: int, out_dir: str) -> str:
    """Write the test rows of ``seed`` to ``out_dir/test.txt``; they do not
    depend on ``n_train``."""
    path = os.path.join(out_dir, "test.txt")
    structure = Structure(shape, np.random.default_rng(FIXED_SEED))
    _write(path, structure, shape.n_test, np.random.default_rng([seed, 2]))
    return path
