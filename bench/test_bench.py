"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from hypermodes import cli, operators, solver  # noqa: E402
from hypermodes.linalg import save_matrix  # noqa: E402
from hypermodes.operators import RectGrid  # noqa: E402


def _cli_inputs(tmp_path, argv):
    out = tmp_path / "out"
    return workloads.Inputs(RectGrid(1.0, 1.0, 17, 17),
                            2, out, argv=[*argv, f"outdir={out}"])


def _fail_frac(inp, traced=False):
    tally, *_ = worker.measure(workloads, inp, 0.0, traced, tracer)
    return tally.failed / tally.attempted, tally


def test_failing_operation_raises_fail_frac(tmp_path):
    small = ["nx=17", "ny=17", "t_end=0.05", "seed=1"]
    ok, tally = _fail_frac(_cli_inputs(tmp_path, ["simulate", "preset=swe",
                                                  *small]))
    assert ok == 0.0 and tally.correct

    # a1 singular: the CLI rejects the pair and exits 1
    save_matrix(tmp_path / "a1.txt", np.diag([1.0, 0.0]))
    save_matrix(tmp_path / "a2.txt", np.diag([1.0, -1.0]))
    bad, tally = _fail_frac(_cli_inputs(tmp_path, [
        "simulate", f"a1_file={tmp_path / 'a1.txt'}",
        f"a2_file={tmp_path / 'a2.txt'}", *small]))
    assert bad > ok
    assert tally.failures[0] == "exit_code: exit 1"
    assert tally.correct  # a refused input is a failure, not a wrong output


def test_raised_exception_counts_as_failure(tmp_path):
    inp = workloads.Inputs(RectGrid(1.0, 1.0, 9, 9), 5, tmp_path / "out",
                           sampler=lambda x, y: 1 / 0)
    frac, tally = _fail_frac(inp)
    assert frac == 1.0
    assert tally.failures[0].startswith("operation: ZeroDivisionError")


def test_tracer_rebinds_every_reference_and_restores():
    original = solver.run
    assert cli.run is original
    tr = tracer.Tracer()
    tr.install_function("solver.run", "hypermodes.solver", "run")
    try:
        assert solver.run is not original
        assert cli.run is solver.run
        import hypermodes
        assert hypermodes.run is solver.run
    finally:
        tr.uninstall()
    assert solver.run is original and cli.run is original


def test_absent_function_is_recorded_not_fatal():
    tr = tracer.Tracer()
    tr.install_function("solver.gone", "hypermodes.solver", "no_such_fn")
    tr.install_method("solver.Gone.x", "hypermodes.solver", "SpatialOperator",
                      "no_such_method")
    tr.install_function("nowhere.fn", "hypermodes.no_such_module", "fn")
    tr.uninstall()
    assert tr.absent == ["solver.gone", "solver.Gone.x", "nowhere.fn"]


def test_self_time_and_inclusive_share():
    # root [0, 10] > a [1, 5] > b [2, 3]; root > c [6, 8]
    spans = [[0, "cli.main", 0.0, 10.0, -1], [1, "solver.run", 1.0, 5.0, 0],
             [2, "solver.step", 2.0, 3.0, 1], [3, "modes.x", 6.0, 8.0, 0]]
    assert tracer.self_times(spans) == [4.0, 3.0, 1.0, 2.0]
    assert tracer.layer_self(spans) == {"cli": 4.0, "solver": 4.0, "modes": 2.0}
    assert tracer.inclusive(spans, lambda n: n.startswith("solver.")) == 4.0
    assert tracer.root_time(spans) == 10.0


def test_traced_run_counts_repeat(tmp_path):
    inp = _cli_inputs(tmp_path, ["simulate", "preset=swe", "nx=17", "ny=17",
                                 "t_end=0.05", "seed=1"])
    tally, walls, traced_walls, reps = worker.measure(workloads, inp, 0.0,
                                                      True, tracer)
    metrics, counts, _ = worker.aggregate("simulate-const", reps, walls,
                                          traced_walls, tally)
    assert tally.failed == 0 and len(reps) >= 2
    assert counts["solver.apply.calls_per_step"] == 4.0
    assert counts["linalg.eig_passes_per_decomposition"] == 2.0
    assert counts["congruence.simultaneous_diagonalize.calls"] == 1
    assert metrics["trace.span_coverage"] > 0.9
    assert solver.run is cli.run  # uninstalled after every traced repetition


@pytest.mark.parametrize("seed", [0, 1])
def test_variable_coeff_inputs_fix_the_step_count(seed):
    inp = workloads.prepare("variable-coeff", seed, Path("unused"))
    pair = inp.sampler(0.3, 0.7)
    assert pair.order == 5 and np.abs(pair.b).max() > 0
    xs = inp.grid.x()
    speed = max(max(np.abs(np.linalg.eigvalsh(p.a1)).max(),
                    np.abs(np.linalg.eigvalsh(p.a2)).max())
                for p in (inp.sampler(x, y) for x in xs for y in xs))
    assert speed == pytest.approx(workloads.VAR_SPEED, rel=1e-12)


def test_elliptic_solve_checks_the_solution(tmp_path, monkeypatch):
    inp = workloads.prepare("elliptic-solve", 0, tmp_path / "out")
    outcome = workloads.operate(inp)
    assert [c.ok for c in outcome.checks] == [True, True]

    # a solver that returns zero fails the error gate
    real = operators.elliptic_steady_solve

    def zero(mode, psi, grid, conditions):
        u, rep = real(mode, psi, grid, conditions)
        return operators.StateField(grid, 0.0 * u.values), rep

    monkeypatch.setattr(operators, "elliptic_steady_solve", zero)
    frac, tally = _fail_frac(inp)
    assert frac > 0 and not tally.correct
    assert tally.failures[0].startswith("manufactured_rel_err")
