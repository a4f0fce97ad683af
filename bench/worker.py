"""One benchmark process: imports the package, makes one workload's inputs
from the seed and, in `measure` mode, times operations on them.

    python3 bench/worker.py setup|measure --workload W --seed N --t0 T
        --out DIR [--seconds S] [--trace 0|1]

`--t0` is the parent's time.monotonic() taken just before it started this
process, so the setup time covers interpreter start, imports and input
generation. The last line of stdout is one JSON object. run.py starts this
file; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_REPS = 3          # untraced repetitions per run, at least
MIN_TRACED_REPS = 2   # traced and untraced repetitions each, in a traced run

# the counts that must repeat exactly between runs of one seed
EXACT_COUNTS = ("solver.run.nsteps", "solver.apply.calls_per_step",
                "solver.project.calls_per_step",
                "linalg.eig_passes_per_decomposition",
                "sampler.calls_per_node",
                "congruence.simultaneous_diagonalize.calls",
                "operators.elliptic_steady_solve.unknowns")

# inclusive shares of the traced wall time that the workload design rests on
GROUPS = {
    "share.solver": lambda n: n.startswith("solver."),
    "share.variable_pipeline": lambda n: (
        n.startswith(("congruence.", "modes.")) or n == "sampler"
        or n == "solver.variable_coeff_setup"),
    "share.elliptic_solve": lambda n: n == "operators.elliptic_steady_solve",
}
# each group dominates one workload and is idle (<= 10 %) on another
DESIGN = {
    "simulate-const": [("share.solver", ">=", 0.9),
                       ("share.variable_pipeline", "<=", 0.1),
                       ("share.elliptic_solve", "<=", 0.1)],
    "variable-coeff": [("share.variable_pipeline", ">=", 0.7)],
    "elliptic-solve": [("share.elliptic_solve", ">=", 0.7),
                        ("share.solver", "<=", 0.1)],
}
LAYERS = ("apps", "linalg", "congruence", "modes", "operators", "solver",
          "cli", "sampler")


def _nodes(grid):
    return grid.nx * grid.ny


def install(tracer):
    """Wrap the public functions the per-layer metrics are made from."""
    fn = tracer.install_function
    fn("cli.main", "hypermodes.cli", "main")
    for attr in ("preset_swe", "preset_swmhd", "preset_euler", "preset_wave",
                 "symmetrize"):
        fn(f"apps.{attr}", "hypermodes.apps", attr)
    fn("solver.run", "hypermodes.solver", "run",
       gauge=lambda cfg, *a, **k: (_nodes(cfg.grid), cfg.u0.components))
    fn("solver.step", "hypermodes.solver", "step")
    fn("solver.variable_coeff_setup", "hypermodes.solver",
       "variable_coeff_setup", gauge=lambda s, grid, *a, **k: _nodes(grid))
    tracer.install_method("solver.SpatialOperator.build", "hypermodes.solver",
                          "SpatialOperator", "__init__")
    tracer.install_method("solver.apply", "hypermodes.solver",
                          "SpatialOperator", "apply")
    tracer.install_method("solver.project", "hypermodes.solver",
                          "SpatialOperator", "project")
    fn("congruence.simultaneous_diagonalize", "hypermodes.congruence",
       "simultaneous_diagonalize")
    fn("linalg.is_diagonalizable", "hypermodes.linalg", "is_diagonalizable")
    fn("linalg.real_block_eigen", "hypermodes.linalg", "real_block_eigen")
    fn("modes.check_variable_coeff_assumptions", "hypermodes.modes",
       "check_variable_coeff_assumptions",
       gauge=lambda s, grid, *a, **k: _nodes(grid))
    fn("modes.assemble_system_bcs", "hypermodes.modes", "assemble_system_bcs")
    fn("operators.elliptic_steady_solve", "hypermodes.operators",
       "elliptic_steady_solve",
       gauge=lambda mode, psi, *a, **k: 2 * psi.values[0].size)
    # general (non-symmetric) eigen passes made inside one decomposition
    for attr in ("eigvals", "eig"):
        tracer.install_counter("linalg.eig_pass", "numpy.linalg", attr,
                               inside="congruence.simultaneous_diagonalize")


def rep_metrics(tr, tracer_mod, wall: float) -> dict:
    """Per-layer numbers of one traced operation."""
    spans, calls, gauges = tr.spans, tr.calls, tr.gauges

    def total(*names):
        return sum(sum(tracer_mod.durations(spans, n)) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    steps = calls["solver.step"]
    run_nodes, order = gauges.get("solver.run") or (0, 0)
    var_nodes = (gauges.get("solver.variable_coeff_setup")
                 or gauges.get("modes.check_variable_coeff_assumptions") or 0)
    m = {
        "solver.apply.total_s": total("solver.apply"),
        "solver.apply.calls_per_step": ratio(calls["solver.apply"], steps),
        "solver.project.total_s": total("solver.project"),
        "solver.project.calls_per_step": ratio(calls["solver.project"], steps),
        # computed, not measured: apply reads u once and writes its result
        "solver.apply.min_bytes": 2.0 * 8 * order * run_nodes,
        "solver.SpatialOperator.build_s": total("solver.SpatialOperator.build"),
        "solver.run.total_s": total("solver.run"),
        "solver.run.nsteps": ratio(steps, calls["solver.run"]),
        "solver.variable_coeff_setup.total_s": total("solver.variable_coeff_setup"),
        "congruence.simultaneous_diagonalize.calls":
            calls["congruence.simultaneous_diagonalize"],
        "congruence.simultaneous_diagonalize.total_s":
            total("congruence.simultaneous_diagonalize"),
        "linalg.is_diagonalizable.total_s": total("linalg.is_diagonalizable"),
        "linalg.real_block_eigen.total_s": total("linalg.real_block_eigen"),
        "linalg.eig_passes_per_decomposition":
            ratio(calls["linalg.eig_pass"],
                  calls["congruence.simultaneous_diagonalize"]),
        "modes.check_variable_coeff_assumptions.total_s":
            total("modes.check_variable_coeff_assumptions"),
        "modes.assemble_system_bcs.total_s": total("modes.assemble_system_bcs"),
        "operators.elliptic_steady_solve.total_s":
            total("operators.elliptic_steady_solve"),
        "operators.elliptic_steady_solve.calls":
            calls["operators.elliptic_steady_solve"],
        "operators.elliptic_steady_solve.unknowns":
            gauges.get("operators.elliptic_steady_solve") or 0,
        "cli.main.total_s": total("cli.main"),
        "sampler.calls_per_node": ratio(calls["sampler"], var_nodes),
        "trace.span_coverage": tracer_mod.root_time(spans) / wall,
    }
    m["solver.apply.gbs_lower_bound"] = ratio(
        m["solver.apply.min_bytes"] * calls["solver.apply"],
        m["solver.apply.total_s"]) / 1e9
    m["solver.variable_coeff_setup.us_per_node"] = 1e6 * ratio(
        m["solver.variable_coeff_setup.total_s"], var_nodes)
    m["modes.check_variable_coeff_assumptions.us_per_node"] = 1e6 * ratio(
        m["modes.check_variable_coeff_assumptions.total_s"], var_nodes)
    by_layer = tracer_mod.layer_self(spans)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = by_layer.get(layer, 0.0)
    for key, member in GROUPS.items():
        m[key] = tracer_mod.inclusive(spans, member) / wall
    m["_pooled"] = {"step": tracer_mod.durations(spans, "solver.step"),
                    "sdiag": tracer_mod.durations(
                        spans, "congruence.simultaneous_diagonalize"),
                    "nodes": run_nodes}
    return m


class Tally:
    """Checked items of a run: attempted, failed, and whether every output
    was right (reproducible, consistent, accurate)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, integrity: bool = False,
            detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.correct = self.correct and not integrity
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}".rstrip(": "))


def measure(workloads, inp, seconds: float, traced: bool, tracer_mod=None):
    """Repeat the operation for `seconds` (at least MIN_REPS times). In a
    traced run every second repetition is traced."""
    tally = Tally()
    walls, traced_walls, reps = [], [], []
    first = None
    need_plain = MIN_TRACED_REPS if traced else MIN_REPS
    need_traced = MIN_TRACED_REPS if traced else 0
    start = time.monotonic()
    k = 0
    with open(os.devnull, "w") as sink:
        while (time.monotonic() - start < seconds or len(walls) < need_plain
               or len(traced_walls) < need_traced):
            use_trace = traced and k % 2 == 1
            k += 1
            op_inp = inp
            if use_trace:
                tr = tracer_mod.Tracer()
                install(tr)
                op_inp = workloads.with_sampler(
                    inp, lambda f: tr.wrap("sampler", f))
            workloads.clear_outputs(inp)
            outcome, error = None, None
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    outcome = workloads.operate(op_inp)
            except Exception as exc:  # a failed operation; keep measuring
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            wall = time.perf_counter() - t0
            if use_trace:
                tr.uninstall()
                traced_walls.append(wall)
                reps.append((tr, rep_metrics(tr, tracer_mod, wall)))
            else:
                walls.append(wall)
            tally.add("operation", error is None, detail=error or "")
            if outcome is None:
                continue
            for c in outcome.checks:
                tally.add(c.name, c.ok, c.integrity, c.detail)
            if first is None:
                first = outcome.artifact
            else:
                tally.add("artifact_bytes_identical", outcome.artifact == first,
                          integrity=True, detail="output differs from the "
                          "first repetition")
    return tally, walls, traced_walls, reps


def aggregate(workload: str, reps, walls, traced_walls, tally):
    """Per-layer metrics: medians over traced repetitions, pooled step and
    decomposition percentiles, exact counts checked between repetitions."""
    metrics = {}
    keys = [k for k in reps[0][1] if not k.startswith("_")]
    for key in keys:
        metrics[key] = statistics.median(r[1][key] for r in reps)
    counts = {k: reps[0][1][k] for k in EXACT_COUNTS}
    for _, m in reps[1:]:
        same = all(m[k] == counts[k] for k in EXACT_COUNTS)
        tally.add("exact_counts_repeat", same, integrity=True,
                  detail=json.dumps({k: m[k] for k in EXACT_COUNTS}))
    steps = sorted(t for r in reps for t in r[1]["_pooled"]["step"])
    sdiag = sorted(t for r in reps for t in r[1]["_pooled"]["sdiag"])
    nodes = reps[0][1]["_pooled"]["nodes"]
    metrics["solver.step.ms_p50"] = 1e3 * _quantile(steps, 0.50)
    metrics["solver.step.ms_p90"] = 1e3 * _quantile(steps, 0.90)
    metrics["solver.step.ms_p99"] = 1e3 * _quantile(steps, 0.99)
    metrics["solver.step.node_steps_per_s"] = (
        nodes * len(steps) / sum(steps) if steps else 0.0)
    metrics["congruence.simultaneous_diagonalize.us_p50"] = (
        1e6 * _quantile(sdiag, 0.50))
    plain = statistics.median(walls)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / plain - 1
    metrics["trace.samples"] = len(traced_walls)
    design = []
    for key, op, limit in DESIGN[workload]:
        value = metrics[key]
        ok = value >= limit if op == ">=" else value <= limit
        design.append({"metric": key, "expect": f"{op} {limit}",
                       "value": value, "ok": ok})
    metrics["design.misses"] = sum(not d["ok"] for d in design)
    return metrics, counts, design


def _quantile(sorted_vals, q: float) -> float:
    """Nearest-rank quantile; 0 when nothing was sampled."""
    if not sorted_vals:
        return 0.0
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def write_spans(path: Path, reps, tracer_mod):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for rep, (tr, _) in enumerate(reps):
            for s in tr.spans:
                fh.write(json.dumps({
                    "rep": rep, "id": s[tracer_mod.SID],
                    "name": s[tracer_mod.NAME], "start": s[tracer_mod.START],
                    "end": s[tracer_mod.END],
                    "parent": s[tracer_mod.PARENT]}) + "\n")


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh
                    if "openblas" in ln.lower() and ".so" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": blas_threads()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracer_mod
    import workloads
    t_imports = time.monotonic()
    out = Path(args.out)
    inp = workloads.prepare(args.workload, args.seed,
                            out / f"cli-{os.getpid()}")
    t_inputs = time.monotonic()
    setup = {"setup_s": t_inputs - args.t0, "import_s": t_imports - args.t0,
             "inputs_s": t_inputs - t_imports}
    if args.mode == "setup":
        print(json.dumps({"setup": setup}))
        return 0

    tally, walls, traced_walls, reps = measure(
        workloads, inp, args.seconds, bool(args.trace), tracer_mod)
    workloads.clear_outputs(inp)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # untimed accuracy check, after the peak memory of the operations is read
    errs = workloads.mms_errors()
    orders = workloads.mms_orders(errs)
    tally.add("mms_order_gate", min(orders) >= workloads.MMS_MIN_ORDER,
              integrity=True, detail=f"orders {orders}")

    result = {"setup": setup, "walls": walls, "peak_rss_mb": peak_rss_mb,
              "mms_err": errs[-1], "mms_orders": orders,
              "inputs": inp.describe(), "provenance": provenance()}
    if args.trace:
        metrics, counts, design = aggregate(
            args.workload, reps, walls, traced_walls, tally)
        result.update(traced_walls=traced_walls, per_layer=metrics,
                      counts=counts, design=design, absent=reps[0][0].absent)
        write_spans(out / "spans" / f"{args.workload}-seed{args.seed}.jsonl",
                    reps, tracer_mod)
    result["tally"] = vars(tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
