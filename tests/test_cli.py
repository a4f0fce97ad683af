import numpy as np
import pytest
from conftest import random_congruence
from scipy.linalg import block_diag

from hypermodes import cli
from hypermodes.errors import ConflictingSources, MissingInput, UnknownKey
from hypermodes.linalg import save_matrix
from hypermodes.operators import CertReport


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

    def test_missing_input(self):
        with pytest.raises(MissingInput):
            cli.parse_config(["diagonalize"])

    def test_unknown_key(self):
        with pytest.raises(UnknownKey) as info:
            cli.parse_config(["diagonalize", "preset=swe", "bogus=1"])
        assert "bogus" in str(info.value)

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

    def test_preset_list_needs_no_input(self):
        assert cli.parse_config(["preset-list"]).command == "preset-list"


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

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_cfl_out_of_range_is_input_error(self, command, tmp_path, capsys):
        rc = cli.main([command, "preset=wave", "nx=17", "ny=17", "cfl=0.7",
                       f"outdir={tmp_path}"])
        assert rc == 1
        assert "(0, 0.5]" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_snapshots_written(self, tmp_path):
        rc = cli.main(["simulate", "preset=wave", "nx=17", "ny=17",
                       "t_end=0.1", "snapshots=1", f"outdir={tmp_path}"])
        assert rc == 0
        assert (tmp_path / "u0_0000.txt").exists()

    def test_verify_swe_passes(self, tmp_path):
        rc = cli.main(["verify", "preset=swe", "nx=17", "ny=17", "trials=3",
                       f"outdir={tmp_path}"])
        assert rc == 0
        rows = (tmp_path / "cert.csv").read_text().splitlines()
        assert rows[0] == "name,grid,residual,tol,verdict,rate"
        assert all(",pass," in r for r in rows[1:])

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
                       "trials=3", f"outdir={tmp_path / 'out'}"])
        assert rc == 0
        rows = (tmp_path / "out" / "cert.csv").read_text().splitlines()
        assert all(",pass," in r for r in rows[1:])
        unique = [r for r in rows if r.startswith("elliptic_uniqueness")]
        assert [r.split(",")[0] for r in unique] == [
            "elliptic_uniqueness_mode0", "elliptic_uniqueness_mode1"]

    def test_verify_deterministic(self, tmp_path):
        args = ["verify", "preset=wave", "nx=17", "ny=17", "trials=3",
                "seed=7"]
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
