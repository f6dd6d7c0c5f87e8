"""Tests for the command-line front end."""

import json
import math

import numpy as np
import pytest

from spinforge.cli import main
from spinforge.tensor import matrix_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def payload_from(out):
    start = out.index("{")
    return json.loads(out[start:])


class TestBuild:
    def test_build_cnot_matrix(self, capsys):
        code, out = run_cli(capsys, "build", "cnot", "--natural-units", "--json")
        assert code == 0
        doc = payload_from(out)
        assert doc["status"] == "ok"
        pulse = matrix_from_json(doc["payload"]["pulse_matrix"])
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.max(np.abs(pulse - expected)) <= 1e-12

    def test_build_cz_matrix(self, capsys):
        code, out = run_cli(capsys, "build", "cz", "--natural-units", "--json")
        assert code == 0
        pulse = matrix_from_json(payload_from(out)["payload"]["pulse_matrix"])
        assert np.max(np.abs(pulse - np.diag([1, 1, 1, -1]))) <= 1e-12

    def test_build_not_reports_phase(self, capsys):
        code, out = run_cli(capsys, "build", "not", "--natural-units", "--json")
        assert code == 0
        doc = payload_from(out)
        report = doc["payload"]["fidelity_report"]
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert report["global_phase_rad"] == pytest.approx(-math.pi / 2, abs=1e-12)
        pulse = matrix_from_json(doc["payload"]["pulse_matrix"])
        assert np.max(np.abs(pulse - np.array([[0, -1j], [-1j, 0]]))) <= 1e-12

    def test_build_component(self, capsys):
        code, out = run_cli(capsys, "build", "cx_half:2,3", "--natural-units")
        assert code == 0
        assert "fidelity=1.0" in out

    def test_build_unknown_gate_errors(self, capsys):
        code, out = run_cli(capsys, "build", "swap", "--natural-units")
        assert code == 3
        assert "unknown gate" in out


@pytest.mark.parametrize("command", ["build", "schedule"])
def test_bad_register_size_names_the_grammar(capsys, command):
    code, out = run_cli(capsys, command, "cnot:1,2@x", "--natural-units")
    assert code == 3
    assert "expected 'kind:control,target[@n]'" in out


class TestSchedule:
    def test_schedule_ccnot_rows_and_total(self, capsys):
        code, out = run_cli(capsys, "schedule", "ccnot", "--natural-units", "--json")
        assert code == 0
        doc = payload_from(out)
        windows = doc["payload"]["windows"]
        assert [w["segment"] for w in windows] == [f"t{i}" for i in range(1, 9)]
        totals = doc["payload"]["totals"]
        t = {w["segment"]: w["duration_seconds"] for w in windows}
        assert totals["T"] == pytest.approx(
            2 * (t["t1"] + 2 * t["t2"] + 3 * t["t3"])
            + 2 * (t["t4"] + 5 * t["t5"])
            + (t["t6"] + 2 * t["t7"] + 3 * t["t8"])
        )

    def test_schedule_not_second_row_fixed(self, capsys):
        code, out = run_cli(capsys, "schedule", "not", "--natural-units", "--json")
        assert code == 0
        windows = payload_from(out)["payload"]["windows"]
        assert len(windows) == 2
        assert windows[1]["duration_seconds"] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_schedule_csv_output(self, capsys):
        code, out = run_cli(capsys, "schedule", "cz", "--natural-units", "--csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header == "gate,segment,coefficient,residue,witness,duration_seconds"

    def test_schedule_component_resolves_to_parent(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "cx_half:2,3", "--natural-units", "--json"
        )
        assert code == 0
        doc = payload_from(out)
        assert doc["payload"]["gate"] == "ccnot"

    def test_schedule_shared_infeasible(self, capsys):
        code, out = run_cli(
            capsys,
            "schedule",
            "cz",
            "--natural-units",
            "--j",
            repr(math.sqrt(2)),
            "--b-prime",
            "0.5",
            "--mode",
            "shared-constants",
        )
        assert code == 2
        assert "infeasible" in out

    def test_schedule_shared_feasible(self, capsys):
        code, out = run_cli(
            capsys,
            "schedule",
            "cz",
            "--natural-units",
            "--j",
            "2.0",
            "--b-prime",
            "0.5",
            "--mode",
            "shared-constants",
            "--json",
        )
        assert code == 0
        doc = payload_from(out)
        assert doc["payload"]["windows"][0]["duration_seconds"] == pytest.approx(
            9 * math.pi / 2
        )


class TestVerify:
    @pytest.mark.parametrize("scope", ["not", "cz", "cnot", "ccnot"])
    def test_gate_scopes_pass(self, capsys, scope):
        code, out = run_cli(capsys, "verify", scope, "--natural-units")
        assert code == 0
        assert "all checks passed" in out
        assert "[FAIL]" not in out

    def test_verify_all_passes(self, capsys):
        code, out = run_cli(capsys, "verify", "all", "--natural-units")
        assert code == 0
        assert "all checks passed" in out

    def test_verify_cnot_with_oracle(self, capsys):
        code, out = run_cli(capsys, "verify", "cnot", "--natural-units", "--oracle")
        assert code == 0
        assert "lab-frame" in out

    def test_unknown_scope_errors(self, capsys):
        code, out = run_cli(capsys, "verify", "everything", "--natural-units")
        assert code == 3


class TestSimulate:
    def test_pi_pulse(self, capsys):
        t_pi = math.pi / 0.05
        code, out = run_cli(
            capsys,
            "simulate",
            "--n",
            "1",
            "--psi0",
            "0",
            "--t-final",
            repr(t_pi),
            "--b1",
            "0.05",
            "--natural-units",
            "--json",
        )
        assert code == 0
        pops = payload_from(out)["payload"]["populations"]
        assert pops[0] <= 1e-6
        assert pops[1] == pytest.approx(1.0, abs=1e-6)

    def test_no_drive_keeps_population(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate",
            "--n",
            "1",
            "--psi0",
            "1",
            "--t-final",
            "3.0",
            "--natural-units",
            "--json",
        )
        assert code == 0
        pops = payload_from(out)["payload"]["populations"]
        assert pops[1] == pytest.approx(1.0, abs=1e-8)

    def test_zero_time_echo(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate",
            "--n",
            "2",
            "--psi0",
            "10",
            "--t-final",
            "0",
            "--natural-units",
            "--json",
        )
        assert code == 0
        amps = payload_from(out)["payload"]["amplitudes"]
        assert amps[2] == [1.0, 0.0]

    def test_trajectory_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out = run_cli(
            capsys,
            "simulate",
            "--n",
            "1",
            "--psi0",
            "0",
            "--t-final",
            "1.0",
            "--dt",
            "0.01",
            "--b1",
            "0.05",
            "--natural-units",
            "--trajectory",
            str(path),
        )
        assert code == 0
        assert path.exists()
        assert path.read_text().startswith("t,re_0,im_0")

    def test_bad_psi0_errors(self, capsys):
        code, out = run_cli(
            capsys,
            "simulate",
            "--n",
            "2",
            "--psi0",
            "012",
            "--t-final",
            "1.0",
            "--natural-units",
        )
        assert code == 3


class TestConfigPlumbing:
    def test_config_file_flag(self, capsys, tmp_path):
        cfgfile = tmp_path / "nat.cfg"
        cfgfile.write_text("gamma = 1\nb0 = 1\nomega = 1\n")
        code, out = run_cli(capsys, "build", "cz", "--config", str(cfgfile))
        assert code == 0

    def test_flag_beats_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "nat.cfg"
        cfgfile.write_text("gamma = 1\nb0 = 1\nomega = 1\nj = 0.9\n")
        code, out = run_cli(
            capsys,
            "schedule",
            "cz",
            "--config",
            str(cfgfile),
            "--j",
            "2.0",
            "--b-prime",
            "0.5",
            "--mode",
            "shared-constants",
            "--json",
        )
        assert code == 0
        doc = payload_from(out)
        assert doc["payload"]["config"]["j"] == 2.0

    @pytest.mark.parametrize(
        "flag,value,field",
        [("--j", "inf", "j_coupling"), ("--b0", "nan", "b0"), ("--b1", "nan", "b1")],
    )
    def test_non_finite_flag_errors(self, capsys, flag, value, field):
        code, out = run_cli(capsys, "build", "cz", "--natural-units", flag, value)
        assert code == 3
        assert f"{field} must be finite" in out

    def test_non_finite_config_file_errors(self, capsys, tmp_path):
        cfgfile = tmp_path / "nan.cfg"
        cfgfile.write_text("gamma = 1\nb0 = nan\nomega = 1\n")
        code, out = run_cli(capsys, "build", "cz", "--config", str(cfgfile), "--json")
        assert code == 3
        assert "b0 must be finite" in payload_from(out)["payload"]["message"]

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfgfile = tmp_path / "env.cfg"
        cfgfile.write_text("gamma = 1\nb0 = 1\nomega = 1\n")
        monkeypatch.setenv("SPINFORGE_CONFIG", str(cfgfile))
        code, out = run_cli(capsys, "build", "cz")
        assert code == 0
