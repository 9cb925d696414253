import os

import numpy as np
import pytest

from liouwave import cli, make_torus_grid, random_smooth_field, wave_state_new

BASE_CFG = """
# deterministic smoke run
scenario = evolve
family = sinh_gordon
rho1 = 6.283185307179586
rho2 = 6.283185307179586
grid.n1 = 32
grid.n2 = 32
T = 0.5
h = 0.01
sample_every = 10
seed = 3
init.kind = random
init.amplitude = 0.8
init.vel_amplitude = 0.3
checkpoint_every = 20
"""


class TestParseConfig:
    def test_valid_minimal(self):
        rc = cli.parse_config("family = sinh_gordon\nrho1 = 12.566\nrho2 = 12.566\n")
        assert rc.family == "sinh_gordon"
        assert rc.rho() == (12.566, 12.566)
        assert rc["grid.n1"] == 64  # default filled

    def test_comments_and_blank_lines(self):
        rc = cli.parse_config("# hi\n\nrho1 = 1.0  # inline\nrho2 = 2.0\n")
        assert rc.rho() == (1.0, 2.0)

    def test_odd_grid_rejected(self):
        with pytest.raises(ValueError, match="grid.n1.*even"):
            cli.parse_config("grid.n1 = 7\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            cli.parse_config("gridn1 = 8\n")

    def test_rho3_rejected_for_scalar_family(self):
        with pytest.raises(ValueError, match="rho3.*sinh_gordon"):
            cli.parse_config("family = sinh_gordon\nrho3 = 1\n")

    def test_rho2_rejected_for_mean_field(self):
        with pytest.raises(ValueError, match="rho2.*mean_field"):
            cli.parse_config("family = mean_field\nrho2 = 1\n")

    def test_asymmetry_key_guard(self):
        with pytest.raises(ValueError, match="asymmetric_sinh"):
            cli.parse_config("family = sinh_gordon\na = 2.0\n")
        rc = cli.parse_config("family = asymmetric_sinh\na = 2.0\nrho1 = 1\nrho2 = 1\n")
        assert rc["a"] == 2.0

    def test_matrix_key_guard(self):
        with pytest.raises(ValueError, match="toda"):
            cli.parse_config("family = sinh_gordon\nmatrix = A\n")

    def test_toda_rhos(self):
        rc = cli.parse_config("family = toda\nncomp = 3\nrho1 = 1\nrho2 = 2\nrho3 = 3\n")
        assert rc.rho() == (1.0, 2.0, 3.0)

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            cli.parse_config("rho1 = 1\nrho1 = 2\n")

    def test_type_error_names_key(self):
        with pytest.raises(ValueError, match="'h'"):
            cli.parse_config("h = fast\n")

    def test_text_round_trip(self):
        rc = cli.parse_config(BASE_CFG)
        rc2 = cli.parse_config(rc.text())
        assert rc2.values == rc.values


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path, grid32, rng):
        u0 = random_smooth_field(grid32, rng, 4, 1.0)
        u1 = random_smooth_field(grid32, rng, 4, 0.5, zero_mean=True, norm="l2")
        st = wave_state_new(grid32, u0, u1)
        st.t = 3.25
        path = tmp_path / "state.lwav"
        cli.write_snapshot(st, str(path))
        back = cli.read_snapshot(str(path))
        assert back.t == st.t
        assert np.array_equal(back.u, st.u)
        assert np.array_equal(back.v, st.v)
        assert (back.grid.n1, back.grid.L1) == (32, grid32.L1)

    def test_corrupted_magic(self, tmp_path, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        path = tmp_path / "state.lwav"
        cli.write_snapshot(st, str(path))
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="not a snapshot"):
            cli.read_snapshot(str(path))

    def test_truncation(self, tmp_path, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        path = tmp_path / "state.lwav"
        cli.write_snapshot(st, str(path))
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ValueError, match="truncated"):
            cli.read_snapshot(str(path))

    def test_version_check(self, tmp_path, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        path = tmp_path / "state.lwav"
        cli.write_snapshot(st, str(path))
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version"):
            cli.read_snapshot(str(path))

    def test_grid_mismatch(self, tmp_path, grid32):
        st = wave_state_new(grid32, np.zeros((32, 32)), np.zeros((32, 32)))
        path = tmp_path / "state.lwav"
        cli.write_snapshot(st, str(path))
        other = make_torus_grid(64, 64)
        with pytest.raises(ValueError, match="does not match"):
            cli.read_snapshot(str(path), other)


class TestRunScenarios:
    def test_evolve_zero_data_constant_energy(self, tmp_path):
        cfg_text = (
            "scenario = evolve\nfamily = sinh_gordon\nrho1 = 3.0\nrho2 = 3.0\n"
            "grid.n1 = 32\ngrid.n2 = 32\nT = 0.2\nh = 0.01\nsample_every = 5\n"
            "init.kind = zero\n"
        )
        rc = cli.parse_config(cfg_text)
        out = tmp_path / "zero"
        assert cli.run(rc, str(out)) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()
        header = rows[0].split(",")
        e_col = header.index("E")
        status_col = header.index("status")
        energies = {row.split(",")[e_col] for row in rows[1:]}
        assert len(energies) == 1
        assert rows[-1].split(",")[status_col] == "completed"

    def test_determinism_byte_identical(self, tmp_path):
        rc = cli.parse_config(BASE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run(rc, str(out1))
        cli.run(rc, str(out2))
        assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()
        assert (out1 / "final.lwav").read_bytes() == (out2 / "final.lwav").read_bytes()
        rows = (out1 / "timeseries.csv").read_text().splitlines()
        assert rows[0] == ",".join(cli.CSV_COLUMNS)
        times = [float(r.split(",")[0]) for r in rows[1:]]
        assert times == sorted(times) and len(set(times)) == len(times)

    def test_subcritical_run_drift_column(self, tmp_path):
        cfg_text = (
            "scenario = evolve\nfamily = sinh_gordon\n"
            "rho1 = 12.566370614359172\nrho2 = 12.566370614359172\n"
            "grid.n1 = 64\ngrid.n2 = 64\nT = 2.0\nh = 0.001\nsample_every = 100\n"
            "seed = 11\ninit.amplitude = 6.0\ninit.vel_amplitude = 3.0\n"
        )
        out = tmp_path / "sub"
        assert cli.run(cli.parse_config(cfg_text), str(out)) == 0
        rows = (out / "timeseries.csv").read_text().splitlines()
        header = rows[0].split(",")
        drift_col = header.index("energy_drift")
        status_col = header.index("status")
        assert rows[-1].split(",")[status_col] == "completed"
        assert all(float(r.split(",")[drift_col]) <= 1e-6 for r in rows[1:])

    def test_seed_changes_output(self, tmp_path):
        rc = cli.parse_config(BASE_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.run(rc, str(out1))
        cli.run(rc, str(out2), seed=99)
        assert (out1 / "timeseries.csv").read_bytes() != (out2 / "timeseries.csv").read_bytes()

    def test_resume_reproduces_rows(self, tmp_path):
        rc = cli.parse_config(BASE_CFG)
        out = tmp_path / "full"
        cli.run(rc, str(out))
        ckpt = out / "checkpoint_step00000020.lwav"
        assert ckpt.exists()
        res = tmp_path / "resumed"
        assert cli._run_resume(str(ckpt), str(res)) == 0
        t_ck = 20 * 0.01
        straight = [
            row
            for row in (out / "timeseries.csv").read_text().splitlines()[1:]
            if float(row.split(",")[0]) >= t_ck
        ]
        resumed = (res / "timeseries.csv").read_text().splitlines()[1:]
        assert straight == resumed

    def test_resume_of_resume_reproduces_rows(self, tmp_path):
        # checkpoints fall after the resume point, so a resume that does not
        # re-derive the spectra at the checkpoint cadence drifts in round-off
        # and its own checkpoints do not continue the uninterrupted run
        text = (
            "scenario = evolve\nfamily = sinh_gordon\n"
            "rho1 = 12.566370614359172\nrho2 = 12.566370614359172\n"
            "grid.n1 = 64\ngrid.n2 = 64\nT = 0.3\nh = 0.005\nsample_every = 5\n"
            "seed = 11\ninit.amplitude = 6.0\ninit.vel_amplitude = 3.0\n"
            "checkpoint_every = 10\n"
        )
        out = tmp_path / "full"
        assert cli.run(cli.parse_config(text), str(out)) == 0
        rows = (out / "timeseries.csv").read_bytes().split(b"\n")[1:-1]
        first = tmp_path / "first"
        assert cli._run_resume(str(out / "checkpoint_step00000020.lwav"), str(first)) == 0
        second = tmp_path / "second"
        assert cli._run_resume(str(first / "checkpoint_step00000040.lwav"), str(second)) == 0
        assert (first / "timeseries.csv").read_bytes().split(b"\n")[1:-1] == rows[4:]
        assert (second / "timeseries.csv").read_bytes().split(b"\n")[1:-1] == rows[8:]
        for step in (30, 40, 50, 60):
            name = f"checkpoint_step{step:08d}"
            for d in (first, second) if step > 40 else (first,):
                assert (d / f"{name}.lwav").read_bytes() == (out / f"{name}.lwav").read_bytes()
                assert (d / f"{name}.json").read_bytes() == (out / f"{name}.json").read_bytes()
        assert (second / "config.used").read_bytes() == (out / "config.used").read_bytes()

    def test_picard_verify_report(self, tmp_path):
        cfg_text = (
            "scenario = picard-verify\nfamily = sinh_gordon\nrho1 = 12.566\nrho2 = 12.566\n"
            "grid.n1 = 32\ngrid.n2 = 32\nT = 0.05\nh = 0.001\nseed = 20\n"
            "init.amplitude = 0.05\ninit.vel_amplitude = 0.02\n"
        )
        out = tmp_path / "pv"
        assert cli.run(cli.parse_config(cfg_text), str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "converged: True" in report

    def test_bubble_probe_report(self, tmp_path):
        cfg_text = (
            "scenario = bubble-probe\nfamily = mean_field\nrho1 = 31.41592653589793\n"
            "grid.n1 = 64\ngrid.n2 = 64\n"
        )
        out = tmp_path / "bp"
        assert cli.run(cli.parse_config(cfg_text), str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "J_strictly_decreasing: True" in report
        assert (out / "bubble.csv").exists()

    def test_functional_scan_outputs(self, tmp_path):
        cfg_text = (
            "scenario = functional-scan\nfamily = sinh_gordon\n"
            "rho1 = 25.13\nrho2 = 25.13\ngrid.n1 = 32\ngrid.n2 = 32\n"
        )
        out = tmp_path / "fs"
        assert cli.run(cli.parse_config(cfg_text), str(out)) == 0
        assert (out / "scan.csv").read_text().startswith("s,J,")


class TestMain:
    def test_run_and_check_commands(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("T = 0.5", "T = 0.1"))
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        code = cli.main(["check"])
        captured = capsys.readouterr()
        assert code == 0
        assert "PASS" in captured.out and "FAIL" not in captured.out

    def test_missing_config_is_error(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.n1 = 7\n")
        assert cli.main(["run", str(cfg)]) == 1
