"""The ``repro/`` scripts run end to end on a tiny generated split.

Each script reads its data through ``XMC_DATA_DIR`` and calls a
``labelforest`` found on ``PATH``; here that is a shim running
``python -m labelforest.cli`` from ``src/``.  The split has more than 100
labels, so the first split of every run is a k-means split, in the input,
output and joint spaces and at depths 1 to 4.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import grouped_dataset
from helpers import dataset_to_text

ROOT = Path(__file__).resolve().parents[1]

SCRIPTS = {
    "run_eurlex.sh": ["eurlex_input"],
    "ablation_eurlex.sh": ["eurlex_output", "eurlex_joint"],
    "depth_sweep_eurlex.sh": [f"eurlex_depth{d}" for d in (1, 2, 3, 4)],
}


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    """The scripts' environment: the split in ``XMC_DATA_DIR`` and the
    ``labelforest`` shim first on ``PATH``."""
    root = tmp_path_factory.mktemp("repro")
    data = root / "data"
    data.mkdir()
    train, _ = grouped_dataset(31, n=300, groups=26, labels_per_group=5)
    test, _ = grouped_dataset(32, n=60, groups=26, labels_per_group=5)
    assert train.l > 100
    (data / "eurlex_train.txt").write_text(dataset_to_text(train))
    (data / "eurlex_test.txt").write_text(dataset_to_text(test))
    bin_dir = root / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "labelforest"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m labelforest.cli "$@"\n')
    shim.chmod(0o755)
    pythonpath = os.pathsep.join(p for p in [str(ROOT / "src"), os.environ.get("PYTHONPATH")] if p)
    return {**os.environ, "XMC_DATA_DIR": str(data), "PYTHONPATH": pythonpath,
            "PATH": os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])}


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_writes_its_reports(script, env, tmp_path):
    proc = subprocess.run(["bash", str(ROOT / "repro" / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for run in SCRIPTS[script]:
        report = tmp_path / "repro" / "out" / run / "report.txt"
        assert report.read_text().startswith("metric"), run
