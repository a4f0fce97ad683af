import ast
import hashlib
import re
import subprocess
import sys

import numpy as np
import pytest
from conftest import ROOT, random_congruence, src_env
from scipy.linalg import block_diag

from hypermodes import cli
from hypermodes.errors import (ConfigError, ConflictingSources, MissingInput,
                               UnknownKey)
from hypermodes.linalg import save_matrix
from hypermodes.operators import CertReport


# each key the CLI knows, with a value it parses to (config names a file)
KEY_VALUES = {"nx": 9, "ny": 9, "L1": 2.0, "L2": 2.0, "t_end": 0.1, "cfl": 0.3,
              "seed": 1, "snapshots": 1, "config": None, "preset": "wave",
              "a1_file": "a1.txt", "a2_file": "a2.txt", "b_file": "b.txt",
              "s0_file": "s0.txt", "outdir": "out",
              **dict.fromkeys(["u0", "v0", "phi0", "g", "fcor", "b10", "b20",
                               "rho0", "p0", "dp_drho", "dp_de", "alpha",
                               "beta"], 1.5)}
_RUN = ("nx", "ny", "L1", "L2", "t_end", "cfl", "seed", "snapshots")
_NOT_RUN = [key for key in KEY_VALUES if key not in _RUN]
# the keys each command parsed before the per-command key table
KEYS_READ_BEFORE = {"diagonalize": _NOT_RUN, "classify": _NOT_RUN,
                    "bc": _NOT_RUN, "preset-list": _NOT_RUN,
                    "simulate": list(KEY_VALUES),
                    "verify": [k for k in KEY_VALUES if k != "snapshots"]}


def _key_flags(key, tmp_path):
    """Flags that give `key` its KEY_VALUES value, with an input source."""
    if key == "config":
        cf = tmp_path / "run.cfg"
        cf.write_text("preset = swe\n")
        return [f"config={cf}"]
    if key.endswith("_file"):
        flags = {"a1_file": "a1.txt", "a2_file": "a2.txt"}
    else:
        flags = {} if key == "preset" else {"preset": "swe"}
    flags[key] = KEY_VALUES[key]
    return [f"{k}={v}" for k, v in flags.items()]


class TestParseConfig:
    def test_simulate_flags(self):
        cfg = cli.parse_config(["simulate", "preset=wave", "alpha=0.6",
                                "beta=0.8", "nx=65", "ny=65", "t_end=1.0"])
        assert cfg.command == "simulate"
        assert cfg.preset == "wave"
        assert cfg.preset_params == {"alpha": 0.6, "beta": 0.8}
        assert cfg.nx == 65 and cfg.t_end == 1.0

    def test_conflicting_sources(self):
        with pytest.raises(ConflictingSources):
            cli.parse_config(["diagonalize", "preset=swe", "a1_file=a.txt",
                              "a2_file=b.txt"])

    @pytest.mark.parametrize("key", ["b_file", "s0_file"])
    def test_matrix_file_with_preset_conflicts(self, tmp_path, capsys, key):
        # a preset carries its own B and symmetrizer: the file is not read
        argv = ["simulate", "preset=swe", "nx=17", "ny=17",
                f"{key}=/nonexistent", f"outdir={tmp_path}"]
        with pytest.raises(ConflictingSources):
            cli.parse_config(argv)
        assert cli.main(argv) == 1
        assert "not both" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_preset_parameters_with_matrix_files_conflict(self, tmp_path,
                                                          capsys):
        # a pair read from files takes no preset parameter: none is dropped
        save_matrix(tmp_path / "a1.txt", np.eye(2))
        save_matrix(tmp_path / "a2.txt", np.diag([2.0, 3.0]))
        argv = ["classify", f"a1_file={tmp_path / 'a1.txt'}",
                f"a2_file={tmp_path / 'a2.txt'}", "u0=99", "alpha=3",
                f"outdir={tmp_path / 'out'}"]
        with pytest.raises(ConflictingSources):
            cli.parse_config(argv)
        assert cli.main(argv) == 1
        assert "alpha, u0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_input(self):
        with pytest.raises(MissingInput):
            cli.parse_config(["diagonalize"])

    def test_unknown_key(self):
        with pytest.raises(UnknownKey) as info:
            cli.parse_config(["diagonalize", "preset=swe", "bogus=1"])
        assert "bogus" in str(info.value)

    def test_trials_key_is_gone(self, tmp_path, capsys):
        # every verify row is closed-form: no random sweep to size
        with pytest.raises(UnknownKey):
            cli.parse_config(["verify", "preset=swe", "trials=3"])
        rc = cli.main(["verify", "preset=swe", "nx=17", "ny=17", "trials=3",
                       f"outdir={tmp_path}"])
        assert rc == 1
        assert "'trials'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_euler_e0_key_is_gone(self, tmp_path, capsys):
        # the internal energy enters no matrix of the linearized system
        rc = cli.main(["simulate", "preset=euler", "e0=1", "nx=9", "ny=9",
                       f"outdir={tmp_path}"])
        assert rc == 1
        assert "'e0'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_flag_overrides_file(self, tmp_path):
        cf = tmp_path / "run.cfg"
        cf.write_text("# comment\nnx = 33\npreset = swe\n")
        cfg = cli.parse_config(["verify", f"config={cf}", "nx=65"])
        assert cfg.nx == 65
        assert cfg.preset == "swe"

    def test_file_value_used_when_no_flag(self, tmp_path):
        cf = tmp_path / "run.cfg"
        cf.write_text("nx = 33\npreset = swe\n")
        assert cli.parse_config(["verify", f"config={cf}"]).nx == 33

    def test_config_key_in_file_rejected(self, tmp_path, capsys):
        # a nested config line would otherwise be dropped without a word
        cf = tmp_path / "run.cfg"
        cf.write_text("preset = swe\nconfig = /nonexistent.cfg\n")
        with pytest.raises(ConfigError, match=f"{cf}:2"):
            cli.parse_config(["classify", f"config={cf}"])
        assert cli.main(["classify", f"config={cf}",
                         f"outdir={tmp_path / 'out'}"]) == 1
        assert f"{cf}:2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_preset_list_needs_no_input(self):
        assert cli.parse_config(["preset-list"]).command == "preset-list"

    @pytest.mark.parametrize("from_file", [False, True])
    def test_repeated_key_rejected(self, tmp_path, capsys, from_file):
        # the later value would otherwise win without a word
        keys, where = ["preset=swe", "preset=wave"], ""
        if from_file:
            cf = tmp_path / "run.cfg"
            cf.write_text("preset = swe\n# the same key again\npreset = wave\n")
            keys, where = [f"config={cf}"], f"{cf}:3: "
        argv = ["classify", *keys, f"outdir={tmp_path / 'out'}"]
        message = f"{where}key 'preset' is given twice"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cli.parse_config(argv)
        assert cli.main(argv) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("token",
                             ["preset=swe", "u0=3", "a1_file=x", "outdir=x"])
    def test_preset_list_reads_no_key(self, capsys, token):
        key = token.split("=")[0]
        with pytest.raises(ConfigError, match=f"takes no {key}$"):
            cli.parse_config(["preset-list", token])
        assert cli.main(["preset-list", token]) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"preset-list takes no {key}" in err

    @pytest.mark.parametrize("command", ["diagonalize", "classify", "bc",
                                         "simulate", "verify", "preset-list"])
    def test_keys_read_before_the_key_table_still_parse(self, tmp_path,
                                                        command):
        # every (command, key) that parsed before the per-command key table
        # parses to the same value, except on preset-list, which reads none
        for key in KEYS_READ_BEFORE[command]:
            argv = [command, *_key_flags(key, tmp_path)]
            if command == "preset-list":
                with pytest.raises(ConfigError,
                                   match=f"takes no (.*, )?{key}(,|$)"):
                    cli.parse_config(argv)
                continue
            cfg = cli.parse_config(argv)
            if key == "config":
                assert cfg.preset == "swe"
            else:
                parsed = {**vars(cfg), **cfg.preset_params}
                assert parsed[key] == KEY_VALUES[key]

    @pytest.mark.parametrize("command",
                             ["diagonalize", "classify", "bc", "preset-list"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_run_keys_rejected_off_run_commands(self, tmp_path, capsys,
                                                command, from_file):
        # no grid or time step is used here, so cfl=9 is not silently
        # accepted where simulate and verify would reject it
        keys = ["nx=3", "ny=9", "L1=2", "L2=nan", "t_end=5", "cfl=9",
                "seed=1", "snapshots=4"]
        if from_file:
            cf = tmp_path / "run.cfg"
            cf.write_text("\n".join(keys) + "\n")
            keys = [f"config={cf}"]
        source = [] if command == "preset-list" else ["preset=swe"]
        argv = [command, *source, *keys, f"outdir={tmp_path / 'out'}"]
        with pytest.raises(ConfigError) as info:
            cli.parse_config(argv)
        for key in cli.RUN_KEYS:
            assert key in str(info.value)
        assert cli.main(argv) == 1
        assert "t_end, cfl, seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_keys_build_a_grid_for_run_commands_only(self, tmp_path,
                                                         monkeypatch):
        # verify takes its run keys from a config file as before, while the
        # commands that use no grid never build one
        cf = tmp_path / "run.cfg"
        cf.write_text("preset = swe\nnx = 17\nny = 17\nseed = 3\n"
                      "cfl = 0.3\nt_end = 0.05\n")
        assert cli.main(["verify", f"config={cf}",
                         f"outdir={tmp_path / 'v'}"]) == 0
        assert "17x17" in (tmp_path / "v" / "cert.csv").read_text()

        def no_grid(**kwargs):
            raise AssertionError("grid built")
        monkeypatch.setattr(cli, "RectGrid", no_grid)
        for command in ("diagonalize", "classify", "bc"):
            assert cli.main([command, "preset=swe",
                             f"outdir={tmp_path / command}"]) == 0


def test_readme_names_every_command_and_key():
    # the command-line docs drift silently otherwise: each command and each
    # key but the preset parameters is named in an inline code span there
    text = (ROOT / "README.md").read_text()
    body = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", body,
                                             flags=re.S))
    words = set(re.split(r"[\s=,]+", " ".join(spans)))
    names = [*cli.COMMAND_KEYS, *(key for key in cli.KNOWN_KEYS
                                  if key not in cli.PRESET_KEYS)]
    missing = [name for name in names if name not in words]
    assert not missing, f"README's command-line section lacks {missing}"


def test_readme_check_flags_a_missing_key(monkeypatch):
    monkeypatch.setattr(cli, "KNOWN_KEYS", (*cli.KNOWN_KEYS, "mesh_file"))
    monkeypatch.setitem(cli.COMMAND_KEYS, "refine", ())
    with pytest.raises(AssertionError, match="refine.*mesh_file"):
        test_readme_names_every_command_and_key()


class TestExecute:
    def test_diagonalize_wave(self, tmp_path, capsys):
        rc = cli.main(["diagonalize", "preset=wave", f"outdir={tmp_path}"])
        assert rc == 0
        report = (tmp_path / "decomposition.txt").read_text()
        assert "StandardTypeII" in report
        det = [ln for ln in report.splitlines() if "det_condition" in ln][0]
        value = float(det.split("det_condition=")[1])
        assert abs(value - 1.0) < 1e-12

    def test_bc_artifact(self, tmp_path):
        rc = cli.main(["bc", "preset=swe", f"outdir={tmp_path}"])
        assert rc == 0
        text = (tmp_path / "bc.txt").read_text()
        assert "TypeI inflow=W,S" in text

    def test_classify_census(self, tmp_path, capsys):
        rc = cli.main(["classify", "preset=swe", "u0=1", "v0=1", "g=10",
                       "phi0=1", f"outdir={tmp_path}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hyperbolic modes: 1" in out
        assert "elliptic modes: 1" in out

    def test_matrix_file_input(self, tmp_path):
        save_matrix(tmp_path / "a1.txt", np.eye(2))
        save_matrix(tmp_path / "a2.txt", np.diag([2.0, 3.0]))
        rc = cli.main(["diagonalize", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}",
                       f"outdir={tmp_path}"])
        assert rc == 0
        assert "TypeI" in (tmp_path / "decomposition.txt").read_text()

    def test_missing_matrix_file(self, tmp_path, capsys):
        rc = cli.main(["diagonalize", "a1_file=/does/not/exist.txt",
                       "a2_file=/also/missing.txt", f"outdir={tmp_path}"])
        assert rc == 1
        assert "/does/not/exist.txt" in capsys.readouterr().err

    def test_simulate_writes_norms(self, tmp_path):
        rc = cli.main(["simulate", "preset=wave", "nx=17", "ny=17",
                       "t_end=0.2", f"outdir={tmp_path}"])
        assert rc == 0
        lines = (tmp_path / "norms.csv").read_text().splitlines()
        assert lines[0] == "t,norm"
        assert len(lines) > 2

    def test_simulate_b_file_pair_passes(self, tmp_path):
        # swe's A1, A2 with B = -5I: the verdict allows growth e^(5 dt)
        pair = cli.build_pair(cli.RunConfig(command="simulate", preset="swe"))
        for name, m in (("a1", pair.a1), ("a2", pair.a2),
                        ("b", -5.0 * np.eye(3))):
            save_matrix(tmp_path / f"{name}.txt", m)
        rc = cli.main(["simulate", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}",
                       f"b_file={tmp_path / 'b.txt'}", "nx=33", "ny=33",
                       "t_end=0.5", f"outdir={tmp_path / 'out'}"])
        assert rc == 0
        assert (tmp_path / "out" / "energy.txt").read_text().startswith(
            "quasi-contraction: omega=5 ")

    def test_simulate_stiff_dissipative_b_passes(self, tmp_path):
        # B = 1000 I: each stage's B part contracts only because sym(B)
        # shortens dt_max; at the wave speeds' step alone it multiplies the
        # B part by about -7.3 a stage
        for name, m in (("a1", np.eye(2)), ("a2", np.diag([2.0, 3.0])),
                        ("b", 1000.0 * np.eye(2))):
            save_matrix(tmp_path / f"{name}.txt", m)
        rc = cli.main(["simulate", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}",
                       f"b_file={tmp_path / 'b.txt'}", "nx=17", "ny=17",
                       "t_end=0.5", f"outdir={tmp_path / 'out'}"])
        assert rc == 0

    @pytest.mark.parametrize("eps", [1e-2, 1e-4])
    def test_simulate_ill_conditioned_congruence_passes(self, eps, tmp_path):
        # two scalar modes whose congruence P grows ill-conditioned as eps
        # -> 0 (cond P = 14 at 1e-2): an oblique SAT projector P Pi_c P^-1
        # grows with cond P and blows the explicit step up (exit 2 at 1e-2,
        # a non-finite state at 1e-4); the orthogonal one has norm 1
        save_matrix(tmp_path / "a1.txt", np.diag([1.0, -1.0]))
        save_matrix(tmp_path / "a2.txt",
                    np.array([[1.0, 1.0 - eps], [1.0 - eps, 1.0]]))
        rc = cli.main(["simulate", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}", "nx=17", "ny=17",
                       f"outdir={tmp_path / 'out'}"])
        assert rc == 0

    def test_simulate_blow_up_fails_its_verdict(self, tmp_path, capsys):
        # swe's skew Coriolis B at fcor = 1e5 grows every step: step 7 of
        # dt = 1/28 is not finite, so the run ends at step 6, a failed
        # verdict and not an input error
        rc = cli.main(["simulate", "preset=swe", "fcor=100000", "nx=17",
                       "ny=17", f"outdir={tmp_path}"])
        assert rc == 2
        assert capsys.readouterr().out == (
            "contraction: omega=0 max_step_increase=inf verdict=fail\n")
        lines = (tmp_path / "norms.csv").read_text().splitlines()
        assert len(lines) == 1 + 7
        assert lines[-1].startswith("0.21428571428571427,")

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_cfl_out_of_range_is_input_error(self, command, tmp_path, capsys):
        for setting, named in (("cfl=0.7", "(0, 0.5]"),
                               ("t_end=inf", "t_end"), ("t_end=nan", "t_end"),
                               ("t_end=0", "t_end"),
                               ("L1=nan", "domain lengths"),
                               ("L1=inf", "domain lengths"),
                               ("L2=-inf", "domain lengths"),
                               ("snapshots=-3", "snapshots")):
            rc = cli.main([command, "preset=wave", "nx=17", "ny=17", setting,
                           f"outdir={tmp_path}"])
            assert rc == 1, setting
            assert named in capsys.readouterr().err, setting
            assert not any(tmp_path.iterdir()), setting

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_negative_seed_is_input_error(self, command, tmp_path, capsys):
        rc = cli.main([command, "preset=swe", "nx=9", "ny=9", "seed=-1",
                       f"outdir={tmp_path}"])
        assert rc == 1
        assert "seed must be 0 or positive" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_snapshots_written(self, tmp_path):
        rc = cli.main(["simulate", "preset=wave", "nx=17", "ny=17",
                       "t_end=0.1", "snapshots=1", f"outdir={tmp_path}"])
        assert rc == 0
        assert (tmp_path / "u0_0000.txt").exists()

    def test_snapshot_run_error_writes_nothing(self, tmp_path, capsys):
        # a bad setting, and a system the stepper rejects, fail before the
        # first state is written
        rc = cli.main(["simulate", "preset=wave", "nx=17", "ny=17",
                       "cfl=0.7", "snapshots=1", f"outdir={tmp_path}"])
        assert rc == 1
        assert "(0, 0.5]" in capsys.readouterr().err
        save_matrix(tmp_path / "a1.txt", np.diag([1.0, 1e-9]))
        save_matrix(tmp_path / "a2.txt", np.eye(2))
        out = tmp_path / "out"
        rc = cli.main(["simulate", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}", "nx=17", "ny=17",
                       "t_end=0.1", "snapshots=1", f"outdir={out}"])
        assert rc == 1
        assert "UnstableCoefficients" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["2", "50"])
    def test_snapshot_count_is_input_error(self, tmp_path, capsys, value):
        # run fixes the steps whose states it hands to the writer, so a
        # count would be ignored
        rc = cli.main(["simulate", "preset=wave", "nx=17", "ny=17",
                       "t_end=0.1", f"snapshots={value}", f"outdir={tmp_path}"])
        assert rc == 1
        assert (f"snapshots must be 0 or 1, got {value}"
                in capsys.readouterr().err)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", ["0", "3"])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_verify_rejects_snapshots(self, tmp_path, capsys, value,
                                      from_file):
        keys = [f"snapshots={value}"]
        if from_file:
            cf = tmp_path / "run.cfg"
            cf.write_text(f"snapshots = {value}\n")
            keys = [f"config={cf}"]
        out = tmp_path / "out"
        rc = cli.main(["verify", "preset=swe", "nx=9", "ny=9", *keys,
                       f"outdir={out}"])
        assert rc == 1
        assert "verify takes no snapshots" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_swe_passes(self, tmp_path):
        rc = cli.main(["verify", "preset=swe", "nx=17", "ny=17",
                       f"outdir={tmp_path}"])
        assert rc == 0
        rows = (tmp_path / "cert.csv").read_text().splitlines()
        assert rows[0] == "name,grid,residual,tol,verdict"
        assert all(r.endswith(",pass") for r in rows[1:])

    # seeds on which the fitted duality rates of earlier versions failed:
    # 3 and 24 on every preset, 8 and 10 on wave
    @pytest.mark.parametrize("preset", ["swe", "swmhd", "euler", "wave"])
    def test_verify_passes_on_former_failing_seeds(self, tmp_path, preset):
        for seed in (3, 8, 10, 24):
            out = tmp_path / str(seed)
            rc = cli.main(["verify", f"preset={preset}", "nx=17", "ny=17",
                           f"seed={seed}", f"outdir={out}"])
            rows = (out / "cert.csv").read_text().splitlines()[1:]
            assert rc == 0, (seed, [r for r in rows if r.endswith(",fail")])
            assert all(r.endswith(",pass") for r in rows)

    def test_verify_repeated_elliptic_cluster(self, tmp_path):
        # the wave pair doubled: one conjugate pair of multiplicity 2
        t1 = np.array([[-0.8, 0.6], [0.6, 0.8]])
        t2 = np.array([[0.6, 0.8], [0.8, -0.6]])
        G = random_congruence(4, np.random.default_rng(5))
        for name, t in (("a1", t1), ("a2", t2)):
            save_matrix(tmp_path / f"{name}.txt",
                        G.T @ block_diag(t, 1.7 * t) @ G)
        rc = cli.main(["verify", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}", "nx=17", "ny=17",
                       f"outdir={tmp_path / 'out'}"])
        assert rc == 0
        rows = (tmp_path / "out" / "cert.csv").read_text().splitlines()
        assert all(r.endswith(",pass") for r in rows[1:])
        unique = [r for r in rows if r.startswith("elliptic_uniqueness")]
        assert [r.split(",")[0] for r in unique] == [
            "elliptic_uniqueness_mode0", "elliptic_uniqueness_mode1"]

    def test_verify_deterministic(self, tmp_path):
        args = ["verify", "preset=wave", "nx=17", "ny=17", "seed=7"]
        cli.main(args + [f"outdir={tmp_path / 'r1'}"])
        cli.main(args + [f"outdir={tmp_path / 'r2'}"])
        b1 = (tmp_path / "r1" / "cert.csv").read_bytes()
        b2 = (tmp_path / "r2" / "cert.csv").read_bytes()
        assert b1 == b2

    def test_certification_failure_maps_to_exit_2(self, tmp_path, monkeypatch):
        def fake_suite(*args, **kwargs):
            return [CertReport("forced_failure", "17x17", 1.0, 0.5)]
        monkeypatch.setattr(cli, "certification_suite", fake_suite)
        rc = cli.main(["verify", "preset=wave", "nx=17", "ny=17",
                       f"outdir={tmp_path}"])
        assert rc == 2
        assert "fail" in (tmp_path / "cert.csv").read_text()

    def test_verify_defective_pair_is_input_error(self, tmp_path, capsys):
        # a pair outside the hypotheses exits 1 before any certificate runs
        save_matrix(tmp_path / "a1.txt", np.array([[0.0, 1.0], [1.0, 0.0]]))
        save_matrix(tmp_path / "a2.txt", np.array([[1.0, 1.0], [1.0, 0.0]]))
        rc = cli.main(["verify", f"a1_file={tmp_path / 'a1.txt'}",
                       f"a2_file={tmp_path / 'a2.txt'}", "nx=17", "ny=17",
                       f"outdir={tmp_path / 'out'}"])
        assert rc == 1
        assert "NotDiagonalizable" in capsys.readouterr().err
        assert not (tmp_path / "out" / "cert.csv").exists()

    def test_preset_list(self, capsys):
        assert cli.main(["preset-list"]) == 0
        out = capsys.readouterr().out
        for name in ("swe", "swmhd", "euler", "wave"):
            assert name in out

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 1


def _exit_and_scipy(tmp_path, body):
    """Run `body`, which sets `rc`, in a fresh interpreter; return rc and
    whether any scipy module was loaded by then."""
    code = (f"import sys\n{body}\n"
            "print(rc, any(m == 'scipy' or m.startswith('scipy.')"
            " for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(),
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = proc.stdout.split()[-2:]
    return int(rc), loaded == "True"


def _module_level_scipy_imports(source: str) -> list[int]:
    """Line numbers of the scipy imports in `source` that are not inside a
    function body, and so run when the module is imported."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if not in_function and any(n == "scipy" or n.startswith("scipy.")
                                       for n in names):
                found.append(child.lineno)
            visit(child, in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))

    visit(ast.parse(source), False)
    return found


def test_scipy_guard_flags_module_level_imports():
    source = ("import numpy\nimport scipy.sparse as sp\n"
              "if True:\n    from scipy import linalg\n"
              "class C:\n    import scipy\n"
              "def f():\n    import scipy.sparse.linalg as spla\n"
              "from .modes import Side\n")
    assert _module_level_scipy_imports(source) == [2, 4, 6]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hypermodes")
                                        .glob("*.py")), ids=lambda p: p.name)
def test_scipy_imported_inside_functions_only(path):
    # a module-level scipy import would load scipy with the package, for
    # every command (TestScipyOnlyForEllipticSolve)
    assert _module_level_scipy_imports(path.read_text()) == []


class TestScipyOnlyForEllipticSolve:
    # scipy's sparse LU serves the elliptic solve's factor fallback and its
    # uniqueness estimate alone, so a purely hyperbolic run, and an
    # elliptic solve whose CG converges, must not pay for importing it
    @pytest.mark.parametrize("argv", [
        ["diagonalize", "preset=swe"],
        ["classify", "preset=swe"],
        ["bc", "preset=swe"],
        ["simulate", "preset=swe", "nx=17", "ny=17"],
        ["verify", "preset=swe", "nx=17", "ny=17"],
    ], ids=lambda argv: " ".join(argv))
    def test_hyperbolic_command(self, tmp_path, argv):
        body = f"from hypermodes import cli\nrc = cli.main({argv + ['outdir=out']!r})"
        assert _exit_and_scipy(tmp_path, body) == (0, False)

    def test_variable_coefficient_run(self, tmp_path):
        body = f"""
sys.path.insert(0, {str(ROOT / "tests")!r})
import numpy as np
from test_variable_pipeline import planted_varying_sampler
from hypermodes.modes import Side
from hypermodes.operators import (RectGrid, StateField,
                                  side_vanishing_factor, smooth_random_field)
from hypermodes.solver import IVPConfig, run
g = RectGrid(1.0, 1.0, 17, 17)
sampler = planted_varying_sampler(0)
rng = np.random.default_rng(0)
u = np.stack([smooth_random_field(g, rng)
              for _ in range(sampler(0.0, 0.0).order)])
u0 = StateField(g, u * side_vanishing_factor(g, list(Side)))
_, energy = run(IVPConfig(grid=g, u0=u0, t_end=0.05, sampler=sampler))
rc = 0 if energy.verdict else 2
"""
        assert _exit_and_scipy(tmp_path, body) == (0, False)

    def test_elliptic_solve_by_cg(self, tmp_path):
        body = """
import numpy as np
from hypermodes import apps, congruence, modes
from hypermodes.operators import (RectGrid, StateField, elliptic_steady_solve,
                                  smooth_random_field)
decomp = congruence.simultaneous_diagonalize(
    apps.preset_wave(apps.WaveParams(0.6, 0.8)))
(mode,), (bc,) = decomp.modes, modes.assemble_system_bcs(decomp)
g = RectGrid(1.0, 1.0, 33, 33)
rng = np.random.default_rng(5)
psi = StateField(g, np.stack([smooth_random_field(g, rng) for _ in range(2)]))
u, report = elliptic_steady_solve(mode, psi, g, bc.conditions)
rc = 0 if report.verdict and u.norm() > 0 else 2
"""
        assert _exit_and_scipy(tmp_path, body) == (0, False)

    def test_elliptic_verify_loads_scipy(self, tmp_path):
        argv = ["verify", "preset=wave", "nx=17", "ny=17", "outdir=out"]
        body = f"from hypermodes import cli\nrc = cli.main({argv!r})"
        assert _exit_and_scipy(tmp_path, body) == (0, True)


# sha256 (first 16 hex digits) of the artifacts of seeds 0-2 at 33x33, each
# file's name followed by its bytes. A change that moves any of these bytes
# must update the digest and say why in CHANGES.md.
ARTIFACT_DIGESTS = {
    ("simulate", "swe"): "9f38fc6b1561f587",
    ("simulate", "swmhd"): "0cfb5c357139f527",
    ("simulate", "euler"): "fd49c086ec0520f8",
    ("simulate", "wave"): "2264a0d749a3c6f1",
    ("verify", "swe"): "d97ffafe62ece0b8",
    ("verify", "swmhd"): "b572debcb7a822ec",
    ("verify", "euler"): "8e7e226b4d0b30c6",
    ("verify", "wave"): "23094b99415616d8",
}


@pytest.mark.parametrize("command, preset", ARTIFACT_DIGESTS,
                         ids=lambda v: v)
def test_artifacts_pinned(tmp_path, command, preset):
    digest = hashlib.sha256()
    for seed in range(3):
        out = tmp_path / str(seed)
        assert cli.main([command, f"preset={preset}", "nx=33", "ny=33",
                         f"seed={seed}", f"outdir={out}"]) == 0
        for name in ("norms.csv", "energy.txt", "cert.csv"):
            if (out / name).exists():
                digest.update(name.encode())
                digest.update((out / name).read_bytes())
    assert digest.hexdigest()[:16] == ARTIFACT_DIGESTS[command, preset]


SNAPSHOT_DIGESTS = {
    "swe": "2a9e17b7db073184",
    "swmhd": "62a3102ef76d3754",
    "euler": "a907f185d6bb245e",
    "wave": "d7c994c132c54d75",
}


@pytest.mark.parametrize("preset", SNAPSHOT_DIGESTS)
def test_snapshots_pinned(tmp_path, preset):
    # every state file of `simulate snapshots=1`, names and bytes
    digest = hashlib.sha256()
    for seed in range(3):
        out = tmp_path / str(seed)
        assert cli.main(["simulate", f"preset={preset}", "nx=33", "ny=33",
                         f"seed={seed}", "snapshots=1", f"outdir={out}"]) == 0
        for path in sorted(out.glob("u*_*.txt")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest()[:16] == SNAPSHOT_DIGESTS[preset]
