"""Smoke test: every demo runs to completion.

Demo 03, the slowest, trains for about 20 s on a 2-CPU machine.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_propose_and_score",
    "02_losses_on_a_toy_batch",
    "03_train_on_synthetic",
    "04_consistency_protocols",
    "05_cli_pipeline",
])
def test_demo_exits_zero(name, tmp_path):
    # TMPDIR keeps the scratch directory of demo 05 inside tmp_path
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    # the subprocess does not see pytest's filterwarnings, so pass the same policy
    proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning",
                           "-W", "error::RuntimeWarning", str(ROOT / "demos" / f"{name}.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
