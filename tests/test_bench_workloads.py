"""Every benchmark operation as a Tier-1 test.

`simulate-const` runs the CLI on the constant pair; `variable-coeff` calls
`check_variable_coeff_assumptions`, `solver.variable_coeff_setup` and
`run` with a given `var_setup`, and reads `omega0` from what the check
returns; `elliptic-solve` solves the wave pair's elliptic mode. These are
the call paths the benchmark times. `bench/run.py --sweep` times single
layers through bench/sweep.py; its calls run here once each, at 17^2.
The bench/ files are imported from their files and left as they are.
"""

import importlib.util
import sys

import numpy as np
import pytest
from conftest import ROOT


def _load(name, monkeypatch):
    """bench/<name>.py as the module `name`, with bench/ on sys.path and no
    bytecode written; both are undone after the test."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload",
                         ["simulate-const", "elliptic-solve", "variable-coeff"])
def test_operation(workload, tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    outcome = workloads.operate(workloads.prepare(workload, 0, tmp_path))
    assert outcome.checks
    assert [c.name for c in outcome.checks if not c.ok] == []


def test_sweep_call_paths(monkeypatch):
    # each layer `run_sweep` times, called once through the names
    # bench/sweep.py imports, without its timing loop
    workloads = _load("workloads", monkeypatch)
    sweep = _load("sweep", monkeypatch)
    assert sweep.workloads is workloads
    op, u = sweep._swe_operator(17)
    assert np.isfinite(op.apply(0.0, u)).all()
    assert np.isfinite(sweep.solver.step(op, u, 0.0, op.dt_max)).all()
    grid = sweep.RectGrid(1.0, 1.0, 17, 17)
    psi = sweep.StateField(grid, workloads.manufactured(grid)[1])
    conditions = sweep.synthesize_bc_type2(workloads.MMS_MODE).conditions
    _, report = sweep.operators.elliptic_steady_solve(
        workloads.MMS_MODE, psi, grid, conditions)
    assert report.verdict
    setup = sweep.solver.variable_coeff_setup(
        workloads.planted_sampler(0, grid), grid)
    assert setup.a1.shape[:2] == (17, 17)
