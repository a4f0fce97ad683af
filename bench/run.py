"""Benchmark of hypermodes: time from a coefficient pair to a certified
verdict, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --sweep            # baseline layer sweep

Workloads (see workloads.py): simulate-const, variable-coeff,
elliptic-solve. A closed loop: one caller, one operation at a time, BLAS
at its default thread count.

With --trace 0 the run reports the end-to-end metrics:
  wall_s       median time from the generated inputs to the verdict, over
               the repetitions made in --seconds (the count is printed)
  setup_s      median, over SETUP_PROCESSES fresh processes, of the time from
               process start to the end of input generation (imports,
               argv, sampler, grid)
  peak_rss_mb  peak resident memory of the measuring process
  mms_err      L2 error of a 129x129 manufactured elliptic solve
The failure fraction is failed / attempted in the result line: every
operation, CLI exit code, energy verdict, elliptic residual and error
check, byte-identity of the repeated outputs and the manufactured-solution
order gate is one attempted item. `correct` is false when an output is
wrong rather than a verdict negative: outputs differ between repetitions,
an elliptic solution misses its exact one, the manufactured solution
misses its order or an exact count does not repeat.

With --trace 1 every second repetition runs with the package's public
functions wrapped in spans (tracer.py) and the run reports the per-layer
metrics instead. Results, with provenance, go to .bench_out/results/;
spans go to .bench_out/spans/. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 5   # setup_s is the median over this many fresh processes
CHILD_TIMEOUT_S = 150
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(mode: str, args, extra=()) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--t0", repr(t0), "--out", str(OUT), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S + args.seconds)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_state() -> dict:
    """Commit and dirty flag; None outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        st = subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT),
                             "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha.stdout.strip(), "dirty": bool(st.stdout.strip())}


def check_counts(workload: str, seed: int, digest: str, counts: dict) -> bool:
    """Exact counts must repeat between runs of one seed on one source
    tree; the first run of a (source, workload, seed) records them."""
    path = OUT / "counts" / f"{digest[:16]}-{workload}-seed{seed}.json"
    if path.exists():
        return json.loads(path.read_text()) == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return True


def sweep() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import sweep as sweep_mod
    rows = sweep_mod.run_sweep()
    import worker
    record = {"provenance": {**worker.provenance(), **git_state(),
                             "source_sha256": source_digest()},
              "rows": rows}
    path = OUT / "results" / "BENCH_sweep.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true",
                    help="time single layers at the ROADMAP baseline sizes")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hypermodes" / "__init__.py").is_file():
        print(f"error: no hypermodes sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.sweep:
        return sweep()
    if args.workload is None:
        ap.error("--workload is required")

    # set-up processes before and after the measurement, so the median
    # spans the whole run rather than one moment of the machine's load
    before = (SETUP_PROCESSES - 1) // 2
    setups = [spawn("setup", args)["setup"] for _ in range(before)]
    res = spawn("measure", args, ["--seconds", repr(args.seconds),
                                  "--trace", str(args.trace)])
    setups.append(res["setup"])
    setups += [spawn("setup", args)["setup"]
               for _ in range(SETUP_PROCESSES - 1 - before)]
    tally = res["tally"]
    digest = source_digest()

    def median_of(key):
        return statistics.median(s[key] for s in setups)

    if args.trace:
        per_layer = res["per_layer"]
        per_layer["setup.import_s"] = median_of("import_s")
        per_layer["setup.inputs_s"] = median_of("inputs_s")
        same = check_counts(args.workload, args.seed, digest, res["counts"])
        tally["attempted"] += 1
        if not same:
            tally["failed"] += 1
            tally["correct"] = False
            tally["failures"].append("exact counts differ from an earlier "
                                     "run of this seed")
        values = per_layer
    else:
        values = {"wall_s": statistics.median(res["walls"]),
                  "setup_s": median_of("setup_s"),
                  "peak_rss_mb": res["peak_rss_mb"],
                  "mms_err": res["mms_err"]}
    # names and units come from BENCHMARK.json; a metric missing on either
    # side is an error here rather than a silent gap in the results
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**res["provenance"], **git_state(),
                       "source_sha256": digest, "seed": args.seed,
                       "inputs": res["inputs"]},
        "metrics": metrics,
        "fail_frac": tally["failed"] / tally["attempted"],
        "tally": tally,
        "wall_samples": res["walls"],
        "setup_samples": setups,
        "mms_orders": res["mms_orders"],
    }
    for key in ("traced_walls", "counts", "design", "absent"):
        if key in res:
            record[key] = res[key]
    path = (OUT / "results" /
            f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"samples {len(res['walls'])} untraced, "
          f"{len(res.get('traced_walls', []))} traced; "
          f"fail_frac {record['fail_frac']:.6g} "
          f"({tally['failed']}/{tally['attempted']})")
    for line in tally["failures"]:
        print(f"failure {line}")
    for d in res.get("design", []):
        if not d["ok"]:
            print(f"design miss {d['metric']} = {d['value']:.3f}, "
                  f"expected {d['expect']}")
    print(json.dumps({
        "correct": bool(tally["correct"]),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
