import numpy as np
import pytest
from hypothesis import settings

from labelforest.data import Dataset
from labelforest.sparse import SparseVec
from helpers import csr_from_rows

# Every property test draws the same examples on every run (seeded from the
# test itself, no example database), so a result depends only on the code.
settings.register_profile("labelforest", derandomize=True, deadline=None, database=None)
settings.load_profile("labelforest")


def random_dataset(seed, n, d, l, density=0.4, label_density=0.4):
    """Unstructured random dataset for oracle comparisons."""
    rng = np.random.default_rng(seed)
    x_rows, y_rows = [], []
    for _ in range(n):
        mask = rng.random(d) < density
        idx = np.nonzero(mask)[0].astype(np.int64)
        vals = rng.normal(size=len(idx)).astype(np.float32)
        keep = vals != 0
        x_rows.append(SparseVec(idx[keep], vals[keep], d))
        lmask = rng.random(l) < label_density
        lidx = np.nonzero(lmask)[0].astype(np.int64)
        y_rows.append(SparseVec(lidx, np.ones(len(lidx), dtype=np.float32), l))
    return Dataset(csr_from_rows(x_rows, d), csr_from_rows(y_rows, l))


def grouped_dataset(seed, n=400, groups=6, labels_per_group=4, feats_per_group=8):
    """Learnable dataset: labels co-occur within groups, groups own feature blocks.

    Instances draw 3 features from their group's block plus one off-block
    noise feature, and activate a random nonempty subset of the group's
    labels.  Returns (Dataset, group id per instance).
    """
    rng = np.random.default_rng(seed)
    d = groups * feats_per_group + 4
    l = groups * labels_per_group
    x_rows, y_rows, gids = [], [], []
    for _ in range(n):
        g = int(rng.integers(groups))
        base = g * feats_per_group
        fidx = base + rng.choice(feats_per_group, size=3, replace=False)
        noise = groups * feats_per_group + int(rng.integers(4))
        idx = np.unique(np.append(fidx, noise)).astype(np.int64)
        vals = (1.0 + 0.2 * rng.random(len(idx))).astype(np.float32)
        x_rows.append(SparseVec(idx, vals, d))
        lab_mask = rng.random(labels_per_group) < 0.5
        if not lab_mask.any():
            lab_mask[int(rng.integers(labels_per_group))] = True
        lidx = (g * labels_per_group + np.nonzero(lab_mask)[0]).astype(np.int64)
        y_rows.append(SparseVec(lidx, np.ones(len(lidx), dtype=np.float32), l))
        gids.append(g)
    ds = Dataset(csr_from_rows(x_rows, d), csr_from_rows(y_rows, l))
    return ds, np.array(gids)


@pytest.fixture(scope="session")
def grouped_train():
    return grouped_dataset(7)


@pytest.fixture(scope="session")
def grouped_test():
    return grouped_dataset(8, n=150)
