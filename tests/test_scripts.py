"""Smoke test: the experiment scripts run end to end at small sizes, and
the convergence study prints the pinned bytes."""

import subprocess
import sys

import pytest
from conftest import ROOT, src_env

# the exact stdout at these sizes, pinned when the lemma checks moved from
# the package to tests/lemmas.py
PINNED_STDOUT = {
    "convergence_study.py": (
        '  grid   cross-term      duality    mms-error              rates  sigma-min\n'
        '  17^2    2.618e-03    1.661e-02    1.591e-02                        2.0522\n'
        '  33^2    7.363e-04    4.219e-03    3.637e-03   1.83  1.98  2.13     2.1349\n'
    ),
}


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
    if script in PINNED_STDOUT:
        assert proc.stdout == PINNED_STDOUT[script]


def test_contraction_study_runs_the_cli(tmp_path):
    # each line is the preset and size, then the stdout of `hypermodes
    # simulate`; the script exits with the worst CLI status
    def run(argv):
        return subprocess.run([sys.executable] + argv, env=src_env(),
                              cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)

    study = run([str(ROOT / "scripts" / "contraction_study.py"),
                 "--sizes", "17"])
    cli = run(["-m", "hypermodes", "simulate", "preset=swe", "nx=17",
               "ny=17", "outdir=cli"])
    (swe,) = [ln for ln in study.stdout.splitlines() if ln.startswith("swe ")]
    assert swe + "\n" == "swe      17x17   " + cli.stdout
    assert study.returncode == cli.returncode
    assert (tmp_path / "results" / "swe_17" / "norms.csv").read_text() == \
        (tmp_path / "cli" / "norms.csv").read_text()
    # a grid below 8 nodes is an input error: every run exits 1
    bad = run([str(ROOT / "scripts" / "contraction_study.py"), "--sizes", "7"])
    assert bad.returncode == 1
    assert len(bad.stdout.splitlines()) == 4  # one line per preset
