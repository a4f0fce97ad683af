"""The benchmark's variable-coeff operation as a Tier-1 test.

It calls `check_variable_coeff_assumptions`, `solver.variable_coeff_setup`
and `run` with a given `var_setup`, the sequence the benchmark times, and
no other test runs it. bench/workloads.py is imported from its file and
left as it is.
"""

import importlib.util
import sys

from conftest import ROOT


def test_variable_coeff_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for dataclasses
    spec.loader.exec_module(workloads)
    outcome = workloads.operate(workloads.prepare("variable-coeff", 0, tmp_path))
    assert [(c.name, c.ok) for c in outcome.checks] == [("energy_verdict", True)]
