"""Each quick demo runs to completion against the package in ``src``.

``05_depth_scaling.py`` is a benchmark of about 15 s and is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_background_shap.py",
    "02_path_dependent_shap.py",
    "03_interaction_values.py",
    "04_diagonal_kernel.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
