"""Smoke test of the demos: each one runs to completion as a script.

Demo 03 is left out: it samples for about 30 s, and the sampler it drives
is covered by the sampler tests.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = (
    "01_success_curves.py",
    "02_error_correction.py",
    "04_generation_sequence.py",
    "05_tree_search.py",
    "06_thresholds.py",
)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if name.startswith("04"):
        assert "FAIL" not in proc.stdout
        assert re.search(r"PASS; Pauli frame applied: [+-][IXYZ]+$", proc.stdout, re.M)
