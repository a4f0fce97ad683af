"""Command-line front end.

Grammar: ``hypermodes <command> key=value ...`` with commands
diagonalize | classify | bc | simulate | verify | preset-list. A
``config=FILE`` key loads flat "key = value" lines ('#' comments) first;
explicit flags override file values. All floating-point output is printed
with 17 significant digits so identical configurations reproduce
byte-identical artifacts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from . import apps
from .certify import certification_suite, simulation_config
from .congruence import (ModeDecomposition, SymmetricPair, TypeIMode,
                         simultaneous_diagonalize)
from .errors import (ConflictingSources, ConfigError, HypermodesError,
                     MissingInput, UnknownKey)
from .linalg import format_matrix, load_matrix
from .modes import assemble_system_bcs, format_assignments
from .operators import RectGrid
from .solver import run

COMMANDS = ("diagonalize", "classify", "bc", "simulate", "verify", "preset-list")

PRESET_DEFAULTS = {
    "swe": {"u0": 2.0, "v0": 3.0, "phi0": 1.0, "g": 1.0, "fcor": 0.5},
    "swmhd": {"u0": 2.0, "v0": 2.0, "b10": 0.5, "b20": 0.3, "phi0": 1.0, "g": 1.0},
    "euler": {"u0": 2.0, "v0": 3.0, "rho0": 1.0, "e0": 1.0, "p0": 0.4,
              "dp_drho": 0.4, "dp_de": 0.4},
    "wave": {"alpha": 0.6, "beta": 0.8},
}

_FLOAT_KEYS = {"u0", "v0", "phi0", "g", "fcor", "b10", "b20", "rho0", "e0",
               "p0", "dp_drho", "dp_de", "alpha", "beta", "L1", "L2", "t_end",
               "cfl"}
_INT_KEYS = {"nx", "ny", "seed", "snapshots"}
_STR_KEYS = {"preset", "a1_file", "a2_file", "b_file", "s0_file", "outdir",
             "config"}
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


@dataclass
class RunConfig:
    command: str
    preset: str | None = None
    preset_params: dict = dc_field(default_factory=dict)
    a1_file: str | None = None
    a2_file: str | None = None
    b_file: str | None = None
    s0_file: str | None = None
    nx: int = 65
    ny: int = 65
    L1: float = 1.0
    L2: float = 1.0
    t_end: float | None = None
    cfl: float = 0.4
    seed: int = 42
    outdir: str = "out"
    snapshots: int = 0


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} expects an integer, got {raw!r}") from exc
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r} expects a number, got {raw!r}") from exc
    return raw


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (t.strip() for t in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise UnknownKey(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _parse_value(key, raw)
    return out


def parse_config(argv) -> RunConfig:
    """Parse [command, key=value, ...]; flags override config-file values."""
    if not argv:
        raise ConfigError("usage: hypermodes <command> [key=value ...]; "
                          f"commands: {', '.join(COMMANDS)}")
    command = argv[0]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; "
                          f"commands: {', '.join(COMMANDS)}")
    flags = {}
    for token in argv[1:]:
        if "=" not in token:
            raise ConfigError(f"expected key=value, got {token!r}")
        key, raw = token.split("=", 1)
        if key not in KNOWN_KEYS:
            raise UnknownKey(f"unknown key {key!r}")
        flags[key] = _parse_value(key, raw)

    merged = {}
    if "config" in flags:
        merged.update(_read_config_file(flags["config"]))
    merged.update(flags)
    merged.pop("config", None)

    cfg = RunConfig(command=command)
    preset_param_keys = set().union(*(set(d) for d in PRESET_DEFAULTS.values()))
    for key, value in merged.items():
        if key in preset_param_keys:
            cfg.preset_params[key] = value
        else:
            setattr(cfg, key, value)

    if cfg.preset is not None and cfg.preset not in PRESET_DEFAULTS:
        raise ConfigError(f"unknown preset {cfg.preset!r}; "
                          f"presets: {', '.join(sorted(PRESET_DEFAULTS))}")
    has_preset = cfg.preset is not None
    has_files = any(f is not None for f in (cfg.a1_file, cfg.a2_file,
                                            cfg.b_file, cfg.s0_file))
    if has_preset and has_files:
        raise ConflictingSources("give either preset=... or matrix files, not both")
    if command != "preset-list":
        if not has_preset and not has_files:
            raise MissingInput("no input source: give preset=... or "
                               "a1_file=.../a2_file=...")
        if has_files and (cfg.a1_file is None or cfg.a2_file is None):
            raise MissingInput("matrix input needs both a1_file and a2_file")
    return cfg


def build_pair(cfg: RunConfig) -> SymmetricPair:
    if cfg.preset is not None:
        params_cls, builder = apps.PRESETS[cfg.preset]
        values = dict(PRESET_DEFAULTS[cfg.preset])
        for key, val in cfg.preset_params.items():
            if key not in values:
                raise ConfigError(
                    f"key {key!r} does not apply to preset {cfg.preset!r}")
            values[key] = val
        kwargs = {("f_cor" if k == "fcor" else k): v for k, v in values.items()}
        return builder(params_cls(**kwargs))
    for path in (cfg.a1_file, cfg.a2_file):
        if not Path(path).exists():
            raise ConfigError(f"matrix file not found: {path}")
    a1 = load_matrix(cfg.a1_file)
    a2 = load_matrix(cfg.a2_file)
    b = load_matrix(cfg.b_file) if cfg.b_file else None
    if cfg.s0_file:
        s0 = load_matrix(cfg.s0_file)
        return apps.symmetrize(a1, a2, b=b, s0=s0)
    return SymmetricPair(a1=a1, a2=a2, b=b)


def _mode_census(decomp: ModeDecomposition) -> str:
    n1 = sum(isinstance(m, TypeIMode) for m in decomp.modes)
    n2 = len(decomp.modes) - n1
    return f"hyperbolic modes: {n1}\nelliptic modes: {n2}"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _norms_csv(report) -> str:
    lines = ["t,norm"]
    for t, n in zip(report.times, report.norms):
        lines.append(f"{t:.17g},{n:.17g}")
    return "\n".join(lines) + "\n"


def execute(cfg: RunConfig) -> int:
    """Run the configured command; returns the process exit status."""
    outdir = Path(cfg.outdir)

    if cfg.command == "preset-list":
        for name in sorted(PRESET_DEFAULTS):
            params = " ".join(f"{k}={v:.17g}" for k, v in
                              sorted(PRESET_DEFAULTS[name].items()))
            print(f"{name}: {params}")
        return 0

    pair = build_pair(cfg)
    grid = RectGrid(L1=cfg.L1, L2=cfg.L2, nx=cfg.nx, ny=cfg.ny)
    decomp = simultaneous_diagonalize(pair)

    if cfg.command == "diagonalize":
        _write(outdir / "decomposition.txt", decomp.report())
        print(_mode_census(decomp))
        print(f"reconstruction residual: "
              f"{decomp.residuals.reconstruction:.17g}")
        return 0

    if cfg.command == "classify":
        lines = [_mode_census(decomp)]
        for k, m in enumerate(decomp.modes):
            if isinstance(m, TypeIMode):
                lines.append(f"mode {k}: hyperbolic (TypeI) c={m.c:.17g} "
                             f"d={m.d:.17g} ratio={m.advection_ratio:.17g}")
            else:
                lines.append(f"mode {k}: elliptic (StandardTypeII) "
                             f"mu1={m.mu1:.17g} mu2={m.mu2:.17g} "
                             f"det_condition={m.determinant_condition:.17g}")
        text = "\n".join(lines) + "\n"
        _write(outdir / "modes.txt", text)
        print(text, end="")
        return 0

    bcs = assemble_system_bcs(decomp)

    if cfg.command == "bc":
        _write(outdir / "bc.txt", format_assignments(bcs))
        print(format_assignments(bcs), end="")
        return 0

    if cfg.command == "simulate":
        trajectory, report = run(simulation_config(
            pair, grid, decomp, bcs, seed=cfg.seed, t_end=cfg.t_end,
            cfl=cfg.cfl))
        _write(outdir / "norms.csv", _norms_csv(report))
        _write(outdir / "energy.txt", report.summary() + "\n")
        if cfg.snapshots:
            for idx, (t, snap) in enumerate(trajectory):
                for comp in range(snap.components):
                    _write(outdir / f"u{comp}_{idx:04d}.txt",
                           f"# t = {t:.17g}\n"
                           + format_matrix(snap.values[comp]))
        print(report.summary())
        return 0 if report.verdict else 2

    if cfg.command == "verify":
        rows = certification_suite(pair, grid, decomp, bcs, seed=cfg.seed,
                                   t_end=cfg.t_end, cfl=cfg.cfl)
        body = "".join(r.csv_row() + "\n" for r in rows)
        _write(outdir / "cert.csv", "name,grid,residual,tol,verdict\n" + body)
        print(body, end="")
        return 0 if all(r.verdict for r in rows) else 2

    raise ConfigError(f"unhandled command {cfg.command!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = parse_config(argv)
        return execute(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HypermodesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
