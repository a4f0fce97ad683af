"""Every benchmark operation as a Tier-1 test.

`simulate-const` runs the CLI on the constant pair; `variable-coeff` calls
`check_variable_coeff_assumptions`, `solver.variable_coeff_setup` and
`run` with a given `var_setup`, and reads `omega0` from what the check
returns; `elliptic-solve` solves the wave pair's elliptic mode. These are
the call paths the benchmark times. bench/workloads.py is imported from
its file and left as it is.
"""

import importlib.util
import sys

import pytest
from conftest import ROOT


@pytest.mark.parametrize("workload",
                         ["simulate-const", "elliptic-solve", "variable-coeff"])
def test_operation(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    outcome = workloads.operate(workloads.prepare(workload, 0, tmp_path))
    assert outcome.checks
    assert [c.name for c in outcome.checks if not c.ok] == []
