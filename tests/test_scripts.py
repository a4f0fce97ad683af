"""Smoke test: the experiment scripts run end to end at small sizes."""

import subprocess
import sys

import pytest
from conftest import ROOT, src_env


@pytest.mark.parametrize("script, args", [
    ("contraction_study.py", ["--sizes", "17"]),
    ("convergence_study.py", ["--sizes", "17", "33"]),
])
def test_script_runs(script, args, tmp_path):
    # run from tmp_path, so contraction_study's results/ lands there
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script)]
                          + args, env=src_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
