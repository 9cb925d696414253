import json
import os
import subprocess
import sys

import numpy as np
import pytest

from liouwave import cli, make_torus_grid, picard, propagator, random_smooth_field, wave_state_new
from liouwave.fields import WaveState
from liouwave.surface import SpectralGrid

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


def _telemetry(out_dir):
    """The (start, end) records of the one run or resume in out_dir."""
    lines = (out_dir / "telemetry.jsonl").read_text().splitlines()
    start, end = (json.loads(line) for line in lines)
    assert (start["event"], end["event"]) == ("start", "end")
    return start, end


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

    def test_toda_component_count(self):
        for n in (1, 9):
            with pytest.raises(ValueError, match="ncomp"):
                cli.parse_config(f"family = toda\nncomp = {n}\nrho1 = 1\n")

    def test_ball_radius_below_half_period(self):
        # a larger conc.r would end an evolve run at its first alarm, and a
        # bubble-probe at its first detection
        for text in ("conc.r = 3.5\n", "grid.L2 = 6.0\nconc.r = 3.0\n",
                     "scenario = bubble-probe\nconc.r = 3.2\n"):
            with pytest.raises(ValueError, match="conc.r"):
                cli.parse_config(text)
        assert cli.parse_config("conc.r = 3.1\n")["conc.r"] == 3.1
        # scenarios without the detector do not read it
        cli.parse_config("scenario = picard-verify\ngrid.L1 = 0.8\n")

    def test_picard_verify_horizon_positive(self):
        # picard-verify solves on (0, T]: T = 0 is refused by the parser,
        # not by the solve after config.used is written; evolve takes it
        with pytest.raises(ValueError, match="'T'"):
            cli.parse_config("scenario = picard-verify\nT = 0\n")
        assert cli.parse_config("T = 0\n")["T"] == 0.0

    def test_probe_lams_at_least_one(self):
        with pytest.raises(ValueError, match="probe.lams"):
            cli.parse_config("scenario = bubble-probe\nprobe.lams = 2.0, 0.5\n")
        assert cli.parse_config("probe.lams = 1.0, 3.0\n")["probe.lams"] == (1.0, 3.0)

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

    @pytest.mark.parametrize("scenario", cli.SCENARIOS)
    @pytest.mark.parametrize("family", ["mean_field", "sinh_gordon", "asymmetric_sinh", "toda"])
    def test_report_values_parse(self, tmp_path, family, scenario):
        # every scenario runs for every family; its float report lines parse,
        # and the first column of its CSV is a float on every row
        keys = {
            "mean_field": "rho1 = 6.0\n",
            "sinh_gordon": "rho1 = 6.0\nrho2 = 6.0\n",
            "asymmetric_sinh": "rho1 = 6.0\nrho2 = 6.0\na = 2.0\n",
            "toda": "rho1 = 3.0\nrho2 = 3.0\n",
        }
        outputs = {
            "evolve": ("timeseries.csv", ("final_t", "E0", "max_energy_drift")),
            "picard-verify": (None, ("final_distance", "sup_h1_vs_stepper")),
            "functional-scan": ("scan.csv", ()),
            "bubble-probe": ("bubble.csv", ()),
        }
        cfg_text = (
            f"scenario = {scenario}\nfamily = {family}\n" + keys[family]
            + "grid.n1 = 16\ngrid.n2 = 16\nT = 0.1\nh = 0.01\nsample_every = 5\n"
        )
        out = tmp_path / family
        assert cli.run(cli.parse_config(cfg_text), str(out)) == 0
        csv_name, float_keys = outputs[scenario]
        lines = dict(
            line.split(": ", 1) for line in (out / "report.txt").read_text().splitlines()
            if ": " in line
        )
        for key in float_keys:
            float(lines[key])
        if csv_name is not None:
            rows = (out / csv_name).read_text().splitlines()[1:]
            assert rows
            for row in rows:
                float(row.split(",")[0])

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

    def test_streamed_csv_matches_trajectory_csv(self, tmp_path):
        # the rows streamed during the run are the bytes write_timeseries
        # makes from the finished trajectory
        rc = cli.parse_config(BASE_CFG)
        out = tmp_path / "run"
        assert cli.run(rc, str(out)) == 0
        grid = cli.build_grid(rc)
        state = cli.build_initial_state(rc, grid, rc["seed"])
        traj = cli.propagator.evolve(state, rc["T"], cli.build_stepper(rc), cli.build_coupling(rc),
                                     cli.build_monitor(rc), snapshot_every=rc["checkpoint_every"])
        cli.write_timeseries(str(tmp_path / "batch.csv"), traj, traj.reports[0].E)
        assert (out / "timeseries.csv").read_bytes() == (tmp_path / "batch.csv").read_bytes()

    def test_stop_reason_in_report_and_telemetry(self, tmp_path):
        # the initial data peak at |u| = 0.103; the limit is checked after each step
        rc = cli.parse_config(BASE_CFG + "stop.max_abs_u = 0.1\n")
        out = tmp_path / "stopped"
        assert cli.run(rc, str(out)) == 0
        report = dict(line.split(": ", 1) for line in (out / "report.txt").read_text().splitlines())
        assert report["status"] == "blow-up-alarm"
        condition, _, rest = report["stop_reason"].partition(" = ")
        value, _, t = rest.partition(" at t = ")
        assert condition == "max_abs_u" and float(value) >= 0.1
        assert t == report["final_t"]
        _, end = _telemetry(out)
        assert end["stop_reason"] == report["stop_reason"]

    def test_telemetry_line_per_command(self, tmp_path):
        rc = cli.parse_config(BASE_CFG)
        out = tmp_path / "full"
        assert cli.run(rc, str(out)) == 0
        res = tmp_path / "resumed"
        assert cli._run_resume(str(out / "checkpoint_step00000020.lwav"), str(res)) == 0
        for d, command, steps, first in ((out, "run", 50, 0), (res, "resume", 30, 20)):
            start, rec = _telemetry(d)
            assert start == {
                "event": "start", "command": command, "grid": [32, 32], "family": "sinh_gordon",
                "scheme": "symmetric", "T": rc["T"], "h": rc["h"], "first_step_index": first,
            }
            assert (rec["command"], rec["status"]) == (command, "completed")
            assert rec["stop_reason"] == "none"
            assert rec["steps"] == steps and rec["scheme"] == "symmetric"
            assert rec["steps_per_s"] == pytest.approx(steps / rec["wall_s"])
            assert 0.0 <= rec["checkpoint_write_s"] + rec["csv_write_s"] <= rec["wall_s"]
            assert {"python", "numpy"} <= set(rec)
            assert not {"LIOUWAVE_THREADS", "scipy"} & set(rec)

    def test_killed_run_leaves_resumable_outputs(self, tmp_path, monkeypatch):
        # a run that dies after its fourth sample (step 30) leaves the CSV
        # rows written so far and its complete checkpoints; resuming the last
        # one reproduces the uninterrupted rows bit for bit
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        full, killed = tmp_path / "full", tmp_path / "killed"
        assert cli.main(["run", str(cfg), "--out", str(full)]) == 0
        rows = (full / "timeseries.csv").read_bytes().split(b"\n")

        real_evolve = cli.propagator.evolve

        def dying_evolve(*args, on_sample, **kwargs):
            seen = []

            def sample_then_die(t, report):
                on_sample(t, report)
                seen.append(t)
                if len(seen) == 4:
                    raise RuntimeError("killed")

            return real_evolve(*args, on_sample=sample_then_die, **kwargs)

        monkeypatch.setattr(cli.propagator, "evolve", dying_evolve)
        with pytest.raises(RuntimeError, match="killed"):
            cli.main(["run", str(cfg), "--out", str(killed)])
        monkeypatch.undo()

        partial = (killed / "timeseries.csv").read_bytes()
        assert partial.split(b"\n") == rows[:5] + [b""]
        assert [len(r.split(b",")) for r in partial.split(b"\n")[:-1]] == [len(cli.CSV_COLUMNS)] * 5
        assert sorted(p.name for p in killed.glob("checkpoint_*")) == [
            "checkpoint_step00000020.json", "checkpoint_step00000020.lwav"]
        # the start record is on file before the first step; no end record
        (line,) = (killed / "telemetry.jsonl").read_text().splitlines()
        start = json.loads(line)
        assert (start["event"], start["command"], start["first_step_index"]) == ("start", "run", 0)
        resumed = tmp_path / "resumed"
        ckpt = killed / "checkpoint_step00000020.lwav"
        assert cli.main(["resume", str(ckpt), "--out", str(resumed)]) == 0
        assert (resumed / "timeseries.csv").read_bytes().split(b"\n")[1:] == rows[3:]

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


PICARD_CFG = (
    "scenario = picard-verify\nfamily = sinh_gordon\nrho1 = 12.566\nrho2 = 12.566\n"
    "grid.n1 = 32\ngrid.n2 = 32\nT = 0.05\nh = 0.001\nseed = 20\n"
    "init.amplitude = 0.05\ninit.vel_amplitude = 0.02\n"
)
# the benchmark's picard-verify data on a 32^2 grid: 4 iterations
PICARD_BENCH_CFG = (
    "scenario = picard-verify\nfamily = sinh_gordon\n"
    "rho1 = 12.566370614359172\nrho2 = 12.566370614359172\n"
    "grid.n1 = 32\ngrid.n2 = 32\nT = 0.05\nh = 0.001\nseed = 11\n"
    "init.kind = random\ninit.amplitude = 1.0\ninit.vel_amplitude = 0.5\n"
)


class TestPicardVerify:
    """The picard-verify report: first ratios read off the one solve, and the
    sup distance to the frozen stepper."""

    @staticmethod
    def run(tmp_path, text):
        rc = cli.parse_config(text)
        out = tmp_path / "pv"
        assert cli.run(rc, str(out)) == 0
        lines = (out / "report.txt").read_text().splitlines()
        return rc, dict(line.split(": ", 1) for line in lines)

    @staticmethod
    def problem(rc):
        grid = cli.build_grid(rc)
        return grid, cli.build_initial_state(rc, grid, rc["seed"]), cli.build_coupling(rc)

    def test_first_ratios_read_off_the_solve(self, tmp_path):
        rc, rep = self.run(tmp_path, PICARD_CFG)
        _, st, cfg = self.problem(rc)
        h = rc["h"]
        m = int(round(rc["T"] / h))
        k = round(m / 2)
        _, solve = picard.picard_solve(st, cfg, rc["T"], h)
        r_full = float(rep["first_ratio_T"])
        assert r_full == picard.first_contraction_ratio(st, cfg, m * h, steps=m)
        assert r_full == solve.contraction_ratios[0] == solve.first_ratio()
        r_half = float(rep["first_ratio_T_half"])
        assert r_half == picard.first_contraction_ratio(st, cfg, k * h, steps=k)
        assert 0 < r_half < r_full < 1

    def test_first_ratios_honour_dealias(self, tmp_path):
        rc, rep = self.run(tmp_path, PICARD_CFG + "dealias = false\n")
        _, st, cfg = self.problem(rc)
        h = rc["h"]
        m = int(round(rc["T"] / h))
        undealiased = picard.first_contraction_ratio(st, cfg, m * h, steps=m, dealias=False)
        assert float(rep["first_ratio_T"]) == undealiased
        assert undealiased != picard.first_contraction_ratio(st, cfg, m * h, steps=m)
        k = round(m / 2)
        assert float(rep["first_ratio_T_half"]) == picard.first_contraction_ratio(
            st, cfg, k * h, steps=k, dealias=False)

    def test_one_iteration_solve_keeps_the_ratio(self, tmp_path):
        # the solve stops after one correction; the second is still taken
        rc, rep = self.run(tmp_path, PICARD_CFG + "picard.max_iter = 1\n")
        assert rep["iterations"] == "1" and rep["ratios"] == "[]"
        _, st, cfg = self.problem(rc)
        h = rc["h"]
        m = int(round(rc["T"] / h))
        assert float(rep["first_ratio_T"]) == picard.first_contraction_ratio(st, cfg, m * h, steps=m)

    def test_zero_data(self, tmp_path):
        rc, rep = self.run(tmp_path, PICARD_CFG + "init.kind = zero\n")
        assert rep["iterations"] == "1" and rep["converged"] == "True"
        assert rep["first_ratio_T"] == rep["first_ratio_T_half"] == "0.0"
        assert rep["sup_h1_vs_stepper"] == "0.0"
        _, st, cfg = self.problem(rc)
        assert picard.first_contraction_ratio(st, cfg, rc["T"], steps=50) == 0.0
        _, solve = picard.picard_solve(st, cfg, rc["T"], rc["h"])
        assert len(solve.first_distances) == 1 and solve.first_ratio() == 0.0

    def test_sup_matches_physical_stepper(self, tmp_path):
        # the independent physical loop of acceptance criterion 5
        rc, rep = self.run(tmp_path, PICARD_CFG)
        grid, st, cfg = self.problem(rc)
        states, _ = picard.picard_solve(st, cfg, rc["T"], rc["h"])
        step = propagator.Stepper(grid, rc["h"], cfg, "frozen")
        u, v = st.u.copy(), st.v.copy()
        sup = 0.0
        for k, s_k in enumerate(states):
            if k > 0:
                u, v = step.advance(u, v)
            sup = max(sup, grid.norm_h1(s_k.u[0] - u[0]))
        reported = float(rep["sup_h1_vs_stepper"])
        assert reported <= 1e-8
        assert abs(reported - sup) <= 1e-12

    def test_sup_bites_off_the_fixed_point(self, tmp_path):
        # one iteration leaves the first iterate, not the fixed point; on the
        # small data of PICARD_CFG it is still within 5.1e-9 of the stepper
        _, converged = self.run(tmp_path, PICARD_BENCH_CFG)
        assert float(converged["sup_h1_vs_stepper"]) <= 1e-8
        _, first = self.run(tmp_path, PICARD_BENCH_CFG + "picard.max_iter = 1\n")
        assert float(first["sup_h1_vs_stepper"]) > 1e-8

    def test_one_stepper(self, tmp_path, monkeypatch):
        # the solve, its replays and the stepper's orbit share the path's
        # one frozen stepper
        built = []
        init = propagator.Stepper.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(propagator.Stepper, "__init__", counted)
        self.run(tmp_path, PICARD_BENCH_CFG)
        assert len(built) == 1

    def test_transform_count(self, tmp_path, monkeypatch):
        # one solve of 4 iterations on 50 steps, 2 + 4*(50 + 50) real
        # transforms; one frozen orbit from a copy of the path's node 0,
        # 50 + 49 (its last u is not transformed back); 1 rfft2 for the radius;
        # full transforms: 2 ifft2 + 1 fft2 for the data.  The solve's states
        # are transformed only when read, and picard-verify reads none.
        methods = {"to_spectral_half_stack": "rfft2", "to_physical_half_stack": "irfft2",
                   "to_spectral": "fft2", "to_physical": "ifft2"}
        counts = dict.fromkeys(methods.values(), 0)
        for name, kind in methods.items():
            def counted(*args, _kind=kind, _f=getattr(SpectralGrid, name), **kwargs):
                counts[_kind] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(SpectralGrid, name, counted)
        _, rep = self.run(tmp_path, PICARD_BENCH_CFG)
        assert rep["iterations"] == "4"
        assert counts == {"rfft2": 253, "irfft2": 249, "fft2": 1, "ifft2": 2}


class TestMain:
    def test_run_command(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("T = 0.5", "T = 0.1"))
        code = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_check_is_neither_command_nor_scenario(self):
        # the invariants are pinned by the test suite, not by a CLI battery
        with pytest.raises(ValueError, match="'scenario'"):
            cli.parse_config("scenario = check\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["check"])
        assert exc.value.code != 0

    def test_missing_config_is_error(self, tmp_path, capsys):
        code = cli.main(["run", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_config_is_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid.n1 = 7\n")
        assert cli.main(["run", str(cfg)]) == 1

    def test_resume_refuses_checkpoint_without_metadata(self, tmp_path, capsys):
        # a checkpoint is complete only once its .json exists
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        (out / "checkpoint_step00000020.json").unlink()
        code = cli.main(["resume", str(out / "checkpoint_step00000020.lwav")])
        assert code == 1
        assert "missing checkpoint metadata" in capsys.readouterr().err

    def test_resume_refuses_metadata_without_a_field(self, tmp_path, capsys):
        # checked before the resume's directory and its config.used are made
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG)
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        meta = out / "checkpoint_step00000020.json"
        fields = json.loads(meta.read_text())
        del fields["E0"]
        meta.write_text(json.dumps(fields))
        ckpt = out / "checkpoint_step00000020.lwav"
        assert cli.main(["resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "E0" in err
        assert not (out / "resumed_checkpoint_step00000020").exists()

    def test_resume_refuses_snapshot_of_another_component_count(self, tmp_path, capsys):
        # a one-component snapshot next to a two-component Toda config.used
        # is refused before the telemetry and the CSV are started
        cfg = tmp_path / "run.cfg"
        cfg.write_text("family = toda\nrho1 = 6.0\nrho2 = 5.0\ngrid.n1 = 16\ngrid.n2 = 16\n"
                       "T = 0.1\nh = 0.01\ncheckpoint_every = 5\n")
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 0
        ckpt = out / "checkpoint_step00000005.lwav"
        snap = cli.read_snapshot(str(ckpt))
        cli.write_snapshot(WaveState(snap.grid, snap.t, snap.u[:1], snap.v[:1]), str(ckpt))
        res = tmp_path / "resumed"
        assert cli.main(["resume", str(ckpt), "--out", str(res)]) == 1
        err = capsys.readouterr().err
        assert str(ckpt) in err and "components" in err
        assert not res.exists()

    def test_import_loads_no_scipy(self):
        # the package's one FFT library is numpy.fft: importing the package
        # and its command line loads no scipy module
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = ("import sys, liouwave, liouwave.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
