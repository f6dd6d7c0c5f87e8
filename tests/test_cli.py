"""Tests for the command-line front end."""

import contextlib
import functools
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinforge
from spinforge import cli, gates, oracle
from spinforge.cli import main
from spinforge.tensor import FidelityReport, matrix_from_json
from spinforge.timing import (
    ADJOINT_BASE,
    COMPONENT_TABLE,
    GATE_KINDS,
    SHARED_CONSTANTS,
    parse_gate_name,
)


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

    @pytest.mark.parametrize(
        "name, expected",
        [
            # T1 = t1 + 2 t2 + 3 t3 of the CCNOT schedule, not its total T.
            ("cx_half:2,3", 24 * math.pi),
            # T5 = t11 + 2 t12 + 7 t13 of the CCCNOT schedule.
            ("cx_neg_quarter:3,4", 40 * math.pi),
            # The t2 window of the CNOT schedule alone.
            ("hadamard_like", math.pi / 2),
        ],
    )
    def test_total_time_is_the_built_programs(self, capsys, name, expected):
        code, out = run_cli(capsys, "build", name, "--natural-units", "--json")
        assert code == 0
        total = payload_from(out)["payload"]["total_time_seconds"]
        cfg = spinforge.PhysicalConfig.natural_units()
        build = gates.build_gate(name, cfg)
        assert total == build.total_time
        assert total < build.schedule.totals["T"]
        assert total == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", ["not", "cz", "cnot", "ccnot", "cccnot"])
    def test_total_time_of_a_whole_gate_is_the_schedule_total(self, capsys, name):
        code, out = run_cli(capsys, "build", name, "--natural-units", "--json")
        assert code == 0
        schedule = spinforge.gate_timing_table(name, spinforge.PhysicalConfig.natural_units())
        assert payload_from(out)["payload"]["total_time_seconds"] == schedule.totals["T"]


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

    @pytest.mark.parametrize(
        "knobs",
        [("--j=1", "--b-prime=1e-310"), ("--j=1e-310", "--b-prime=0.25")],
        ids=["subnormal-b-prime", "subnormal-j"],
    )
    def test_overflowing_ratio_is_infeasible(self, capsys, knobs):
        argv = ["schedule", "cz", "--mode", "shared-constants", "--natural-units", *knobs]
        code, out = run_cli(capsys, *argv, "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "infeasible"
        message = doc["payload"]["message"]
        assert "coefficient ratio inf of (omega*t = 2n*pi + pi/2) vs" in message
        assert ("(J*t" in message) == (knobs[0] == "--j=1e-310")
        # An OverflowError would escape main as a traceback.
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out.startswith("infeasible: cz window t1")

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
        assert out.startswith("error: unknown scope 'everything'; expected 'all' or a gate name (")
        assert "or a component like 'cx_half:2,3'" in out

    @pytest.mark.parametrize("scope", ["not", "cnot"])
    def test_oracle_window_with_a_reference_offset(self, capsys, scope):
        # u_phi carries exp(-i B' t); the lab-frame window must take it on too.
        code, out = run_cli(
            capsys, "verify", scope, "--oracle", "--natural-units", "--b-prime", "0.3"
        )
        assert code == 0, out
        assert "lab-frame" in out

    @pytest.mark.parametrize("scope", ["ccnot", "cccnot", "all", "cz"])
    def test_components_payload(self, capsys, scope):
        code, out = run_cli(capsys, "verify", scope, "--natural-units", "--json")
        assert code == 0
        payload = payload_from(out)["payload"]
        if scope == "cz":
            assert "components" not in payload
            return
        rows = payload["components"]
        specs = gates.AUDIT_SPECS_3Q + gates.AUDIT_SPECS_4Q
        assert len(rows) == len(specs) == 12
        assert [row["gate_label"] for row in rows] == [spec.label for spec in specs]
        keys = FidelityReport(1.0, 0.0, 0.0).to_json_dict().keys()
        assert all(row.keys() == keys for row in rows)
        assert all(row["fidelity"] >= 1 - 1e-12 for row in rows)


def _composed_checks(gate):
    return [
        f"{gate}: ideal-layer circuit identity",
        f"{gate}: pulse-layer product vs canonical target",
        f"{gate}: pulse product unitary",
    ]


def _exact_check(label):
    return f"{label}: pulse layer equals the canonical matrix"


def _window_check(gate):
    return f"{gate}: lab-frame window matches the evolution operator (offset phase applied)"


AUDIT_CHECKS = [
    "components: fidelity report produced for every pulse component",
    "components: no pulse component deviates from its ideal target",
]

NOT_CHECKS = ["not: composition equals -i*X", "not: phase-invariant fidelity vs X"]

ORACLE_BASICS = [
    "oracle: rotated drive direction is constant",
    "oracle: resonant pi pulse inverts the population",
]

VERIFY_CHECK_NAMES = {
    "not": NOT_CHECKS,
    "cz": [_exact_check("cz")],
    "cnot": [_exact_check("cnot")],
    "ccnot": _composed_checks("ccnot") + AUDIT_CHECKS,
    "cccnot": _composed_checks("cccnot") + AUDIT_CHECKS,
    "all": [
        *NOT_CHECKS,
        _exact_check("cz"),
        _exact_check("cnot"),
        *_composed_checks("ccnot"),
        *_composed_checks("cccnot"),
        *AUDIT_CHECKS,
        *ORACLE_BASICS,
    ],
    "not --oracle": [
        *NOT_CHECKS,
        "not: lab-frame integration reproduces the drive window",
        *ORACLE_BASICS,
    ],
    "cz --oracle": [_exact_check("cz"), _window_check("cz"), *ORACLE_BASICS],
    "cnot --oracle": [_exact_check("cnot"), _window_check("cnot"), *ORACLE_BASICS],
    "ccnot --oracle": _composed_checks("ccnot") + AUDIT_CHECKS + ORACLE_BASICS,
}

COMPONENT_LABELS = [
    "cx_half(2,3)/3q", "cnot(1,2)/3q", "cx_neg_half(2,3)/3q", "cx_half(1,3)/3q",
    "cx_quarter(1,4)/4q", "cnot(1,2)/4q", "cx_neg_quarter(2,4)/4q", "cx_quarter(2,4)/4q",
    "cnot(2,3)/4q", "cx_neg_quarter(3,4)/4q", "cnot(1,3)/4q", "cx_quarter(3,4)/4q",
]


class TestVerifyPayloadPinned:
    @pytest.mark.parametrize("units", [["--natural-units"], []], ids=["natural", "si"])
    @pytest.mark.parametrize("scope", list(VERIFY_CHECK_NAMES))
    def test_checks_and_components(self, capsys, scope, units):
        code, out = run_cli(capsys, "verify", *scope.split(), "--json", *units)
        doc = json.loads(out)
        payload = doc["payload"]
        checks = payload["checks"]
        audited = scope.split()[0] in ("ccnot", "cccnot", "all")
        assert code == 0
        assert doc["status"] == "ok"
        assert payload["all_passed"] is True
        assert payload["scope"] == scope.split()[0]
        assert set(payload) == {"scope", "checks", "all_passed"} | (
            {"components"} if audited else set()
        )
        assert [c["name"] for c in checks] == VERIFY_CHECK_NAMES[scope]
        assert len(checks) == len(VERIFY_CHECK_NAMES[scope])
        assert all(c["passed"] is True for c in checks)
        if audited:
            assert [r["gate_label"] for r in payload["components"]] == COMPONENT_LABELS


# Every component name the parser accepts, adjoint kinds included, as in test_gates.
COMPONENT_NAMES = [
    f"{kind}:{c},{t}@{n}"
    for n, base, c, t in COMPONENT_TABLE
    for kind in GATE_KINDS
    if ADJOINT_BASE.get(kind, kind) == base
]


def _expected_checks(name, oracle):
    """The checks ``verify <name>`` runs, from what kind of gate the name is."""
    parsed = parse_gate_name(name)
    if parsed in gates.CIRCUITS:
        checks = VERIFY_CHECK_NAMES[parsed]
    elif parsed == "not":
        checks = NOT_CHECKS + ["not: lab-frame integration reproduces the drive window"] * oracle
    else:
        label = parsed if isinstance(parsed, str) else parsed.label
        checks = [_exact_check(label)] + [_window_check(label)] * (oracle and label in ("cz", "cnot"))
    return checks + ORACLE_BASICS * oracle


class TestEveryBuildableGateIsAScope:
    @pytest.mark.parametrize("oracle", [False, True], ids=["exact", "oracle"])
    @pytest.mark.parametrize("name", [*gates.GATE_REGISTRY, *COMPONENT_NAMES])
    def test_verify_exits_zero_with_the_gates_checks(self, capsys, name, oracle):
        argv = ["verify", name, "--natural-units", "--json"] + ["--oracle"] * oracle
        code, out = run_cli(capsys, *argv)
        doc = json.loads(out)
        checks = doc["payload"]["checks"]
        assert code == 0, out
        assert doc["status"] == "ok"
        assert [c["name"] for c in checks] == _expected_checks(name, oracle)
        assert all(c["passed"] is True for c in checks)

    @pytest.mark.parametrize("scope", ["cx_half:9,9", "cnot:1,2@x", "cx_half:2,3@5"])
    def test_unknown_scope_names_all_and_the_grammar(self, capsys, scope):
        code, out = run_cli(capsys, "verify", scope, "--natural-units", "--json")
        doc = json.loads(out)
        message = doc["payload"]["message"]
        assert code == 3
        assert doc["status"] == "error"
        assert message.startswith(f"unknown scope {scope!r}; expected 'all' or a gate name (")
        with pytest.raises(ValueError) as grammar:
            parse_gate_name(scope)
        assert str(grammar.value) in message


class TestNoWarningAboutDerivedConstants:
    """The NOT window's derived b1 = 0.2*b0 is the program's choice, not the user's."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "all", "--natural-units"],
            ["verify", "all", "--oracle"],
            ["verify", "not"],
            ["build", "not"],
            ["build", "not", "--natural-units"],
        ],
        ids=" ".join,
    )
    def test_commands_run_with_warnings_as_errors(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run_cli(capsys, *argv)
        assert code == 0

    def test_a_b1_the_user_sets_still_warns_at_the_building_line(self, capsys):
        with pytest.warns(UserWarning, match="b1=0.5 is not small") as record:
            code, _ = run_cli(capsys, "build", "not", "--natural-units", "--b1", "0.5")
        assert code == 0
        assert [w.filename for w in record] == [cli.__file__]

    def test_verify_all_writes_nothing_to_stderr(self):
        src = str(pathlib.Path(spinforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "spinforge.cli", "verify", "all", "--natural-units"],
            capture_output=True, env=env, timeout=120, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestWorkPerCommand:
    """Each parent schedule is derived, and each distinct component replayed, once."""

    @pytest.mark.parametrize(
        "argv, schedules, components",
        [
            (["verify", "ccnot"], 2, 12),
            (["verify", "cccnot"], 2, 12),
            (["verify", "all"], 5, 12),
            (["build", "ccnot"], 1, 4),
            (["build", "cccnot"], 1, 8),
        ],
        ids=lambda value: "-".join(value) if isinstance(value, list) else None,
    )
    def test_counts(self, capsys, monkeypatch, argv, schedules, components):
        counts = {"gate_timing_table": 0, "component_program": 0}
        for module in (cli, gates):
            _count_calls(monkeypatch, module, "gate_timing_table", counts)
        _count_calls(monkeypatch, gates, "component_program", counts)
        code, _ = run_cli(capsys, *argv, "--natural-units")
        assert code == 0
        assert counts == {"gate_timing_table": schedules, "component_program": components}

    def test_a_second_command_builds_no_program_ideal_or_diagonal(
        self, capsys, monkeypatch, cold_caches
    ):
        code, _ = run_cli(capsys, "verify", "all", "--natural-units")
        assert code == 0
        first = [cache.cache_info() for cache in cold_caches]
        # not, cz, cnot and the 12 distinct components: 15 programs and 15
        # ideal targets (a circuit is checked against canonical_toffoli).
        # Each is built once.
        assert [info.currsize for info in first[:2]] == [15, 15]
        assert all(info.misses == info.currsize > 0 for info in first)

        def forbidden(*args, **kwargs):
            raise AssertionError("built again by a second command")

        for name in ("PulseSegment", "controlled_unitary", "hadamard_like",
                     "z_diagonal", "check_pauli_string"):
            monkeypatch.setattr(gates, name, forbidden)
        for argv in (["verify", "all"], ["build", "cx_neg_quarter:3,4"]):
            code, _ = run_cli(capsys, *argv)
            assert code == 0
        second = [cache.cache_info() for cache in cold_caches]
        assert [info.misses for info in second] == [info.misses for info in first]
        assert all(b.hits > a.hits for a, b in zip(first, second))


class TestColdAndWarmCaches:
    """A command prints the same bytes whether the gate library's maps are
    empty (a fresh interpreter) or were filled under another config."""

    COMMANDS = (["build", "cx_quarter:1,4", "--json"], ["verify", "cccnot", "--json"])

    def test_fresh_interpreter_and_warm_process_print_the_same_bytes(
        self, capsys, cold_caches
    ):
        src = str(pathlib.Path(spinforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "spinforge.cli", *argv],
                capture_output=True, env=env, timeout=120,
            )
            for argv in self.COMMANDS
        ]
        for argv in (["verify", "all", "--natural-units"],
                     ["build", "cx_quarter:1,4", "--natural-units", "--j", "0.3"]):
            assert run_cli(capsys, *argv)[0] == 0
        for argv, proc in zip(self.COMMANDS, fresh):
            code, out = run_cli(capsys, *argv)
            assert proc.stderr == b""
            assert (code, out.encode()) == (proc.returncode, proc.stdout)
            assert code == 0


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

    @pytest.mark.parametrize(
        "flags",
        [["--t-final", "1", "--dt", "0.15"], ["--t-final", "2.5"], ["--t-final", "0.3", "--dt", "0.1"]],
        ids=["uneven", "default", "even"],
    )
    def test_reported_dt_is_the_trajectory_spacing(self, capsys, tmp_path, flags):
        path = tmp_path / "traj.csv"
        argv = ["simulate", "--n", "1", "--psi0", "0", *flags, "--natural-units", "--json"]
        code, out = run_cli(capsys, *argv, "--trajectory", str(path))
        assert code == 0
        times = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0)
        dt = payload_from(out)["payload"]["dt"]
        assert dt == pytest.approx(times[1] - times[0], rel=1e-12)
        assert np.allclose(np.diff(times), dt, rtol=1e-9, atol=0)
        assert times[-1] == pytest.approx(float(flags[1]), rel=1e-12)

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

    @pytest.mark.parametrize("n, psi0", [("0", ""), ("0", "0"), ("-1", "0")])
    def test_size_outside_1_to_4_is_named(self, capsys, n, psi0):
        argv = ["simulate", "--n", n, "--psi0", psi0, "--t-final", "0"]
        code, out = run_cli(capsys, *argv, "--natural-units", "--json")
        assert code == 3
        assert payload_from(out) == {
            "payload": {"message": f"system size {n} outside 1..4"},
            "status": "error",
        }


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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "cz", "--natural-units", "--b-prime", "-inf"],
            ["build", "cz", "--natural-units", "--b0", "one"],
            ["bogus"],
            ["simulate", "--n", "1"],
        ],
        ids=["negative-value-read-as-flag", "non-numeric", "unknown-command", "missing-args"],
    )
    def test_usage_errors_exit_error_not_infeasible(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "error:" in capsys.readouterr().err

    def test_equals_form_reaches_the_config_check(self, capsys):
        code, out = run_cli(capsys, "build", "cz", "--natural-units", "--b-prime=-inf")
        assert code == 3
        assert "b_prime must be finite" in out

    @pytest.mark.parametrize("argv", [["-h"], ["build", "-h"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli.make_parser() is cli.make_parser()

    def test_calls_do_not_leak_values(self, capsys):
        code, out = run_cli(
            capsys, "schedule", "cz", "--natural-units", "--j=2.0", "--b-prime=0.5",
            "--mode", "shared-constants", "--csv", "--json",
        )
        assert code == 0
        assert payload_from(out)["payload"]["mode"] == "shared-constants"
        code, out = run_cli(capsys, "schedule", "cz", "--natural-units")
        assert code == 0
        assert "{" not in out
        assert "(derive-constants)" in out
        assert "gate,segment" not in out  # no --csv carried over
        code, out = run_cli(capsys, "build", "not", "--natural-units", "--json")
        assert code == 0
        assert payload_from(out)["payload"]["gate"] == "not"


JSON_COMMANDS = [
    (["build", "cnot", "--natural-units"], 0),
    (["schedule", "cz", "--natural-units"], 0),
    (["schedule", "ccnot", "--natural-units", "--csv"], 0),
    (["verify", "cz", "--natural-units"], 0),
    (["simulate", "--n", "1", "--psi0", "0", "--t-final", "1", "--natural-units"], 0),
    (["verify", "everything", "--natural-units"], 3),
]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """Parse a document the way a strict JSON reader does: no NaN or Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def assert_one_sorted_line(out):
    """Stdout is one line: the document as json.dumps(..., sort_keys=True) writes it."""
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


class TestJsonStdoutIsTheDocument:
    @pytest.mark.parametrize(
        "argv, expected_code", JSON_COMMANDS, ids=[" ".join(argv) for argv, _ in JSON_COMMANDS]
    )
    def test_stdout_parses_as_one_document(self, capsys, argv, expected_code):
        code, out = run_cli(capsys, *argv, "--json")
        assert code == expected_code
        doc = json.loads(out)
        assert set(doc) == {"status", "payload"}
        assert cli._STATUS_EXIT[doc["status"]] == code
        assert_one_sorted_line(out)

    def test_usage_error_prints_the_error_document(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "cz", "--natural-units", "--json", "--b1", "abc"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {
            "status": "error",
            "payload": {"message": "argument --b1: invalid float value: 'abc'"},
        }
        assert "usage: spinforge build" in captured.err
        assert "error: argument --b1: invalid float value: 'abc'" in captured.err

    def test_usage_error_without_json_leaves_stdout_empty(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "cz", "--natural-units", "--b1", "abc"])
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid float value: 'abc'" in captured.err

    def test_help_with_json_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "-h", "--json"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: spinforge build")


class TestSimulateBadNumbers:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t-final", "nan"], "t_final must be finite, got nan"),
            (["--t-final", "inf"], "t_final must be finite, got inf"),
            (["--t-final", "1", "--dt", "nan"], "dt must be finite, got nan"),
            (["--t-final", "1", "--dt", "inf"], "dt must be finite, got inf"),
            (["--t-final", "1e300", "--dt", "1e-300"], "t_final / dt = inf steps"),
            (["--t-final", "1e-320"], "t_final = 1e-320 is too small for the default step"),
            (["--t-final", "0", "--dt", "nan"], "dt must be finite, got nan"),
            (["--t-final", "0", "--dt", "inf"], "dt must be finite, got inf"),
            (["--t-final", "0", "--dt", "0"], "dt must be positive, got 0.0"),
            (["--t-final", "0", "--dt", "-1"], "dt must be positive, got -1.0"),
            (["--t-final", "nan", "--dt", "nan"], "dt must be finite, got nan"),
        ],
    )
    def test_named_error_exit_3(self, capsys, flags, message):
        argv = ["simulate", "--n", "1", "--psi0", "0", *flags, "--natural-units", "--json"]
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert message in payload_from(out)["payload"]["message"]
        code, out = run_cli(capsys, *argv[:-1])
        assert code == 3
        assert out.startswith(f"error: {message}")

    def test_overflowing_hamiltonian_is_named_with_empty_stderr(self, capsys):
        argv = ["simulate", "--n", "4", "--psi0", "0000", "--t-final", "1e-300",
                "--b0", "1e308", "--natural-units", "--json"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (3, "")
        assert strict_json(out)["payload"]["message"] == (
            "the lab Hamiltonian of 4 spins is not finite at gamma = 1.0, "
            "b0 = 1e+308, b1 = 0.0, j = 0.0"
        )

    def test_non_finite_step_maps_end_in_the_drift_error(self, capsys, monkeypatch):
        # Step maps that overflow give NaN states: the document must carry
        # the named drift error, not NaN amplitudes.
        step_coefficients = oracle._step_coefficients
        monkeypatch.setattr(
            oracle, "_step_coefficients", lambda *args: step_coefficients(*args) * np.nan
        )
        argv = ["simulate", "--n", "1", "--psi0", "0", "--t-final", "1", "--dt", "0.125",
                "--b1", "0.05", "--natural-units", "--json"]
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert strict_json(out) == {
            "status": "error",
            "payload": {
                "message": "norm drift nan at t=0.125 (step 1, dt=0.125); "
                "the step size is unstable"
            },
        }


# Each command made infeasible the same way: the cz t1 window in
# shared-constants mode with J/B' irrational. build and verify always
# derive their schedules, so the test makes gates solve in shared mode.
INFEASIBLE_MESSAGE = (
    "cz window t1 is infeasible with the shared constants: coefficient ratio "
    "2.8284271247461903 of (J*t = (2p+1)*pi) vs (B'*t = (2q+1/4)*pi) is not rational"
)


@pytest.mark.parametrize(
    "argv",
    [["build", "cz"], ["schedule", "cz", "--mode", "shared-constants"], ["verify", "cz"]],
    ids=lambda argv: argv[0],
)
def test_infeasible_commands_exit_2_through_main(capsys, monkeypatch, argv):
    shared = functools.partial(gates.gate_timing_table, mode=SHARED_CONSTANTS)
    monkeypatch.setattr(gates, "gate_timing_table", shared)
    argv = [*argv, "--natural-units", "--j", repr(math.sqrt(2)), "--b-prime", "0.5"]
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 2
    assert strict_json(out) == {"status": "infeasible", "payload": {"message": INFEASIBLE_MESSAGE}}
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == f"infeasible: {INFEASIBLE_MESSAGE}\n"


def test_integration_error_under_verify_oracle_exits_3(capsys, monkeypatch):
    def unstable(*args, **kwargs):
        raise oracle.IntegrationError("norm drift nan at t=1.0 (step 1, dt=1.0)")

    monkeypatch.setattr(oracle, "lab_propagator", unstable)
    argv = ["verify", "cz", "--oracle", "--natural-units"]
    code, out = run_cli(capsys, *argv, "--json")
    assert code == 3
    assert strict_json(out) == {
        "status": "error", "payload": {"message": "norm drift nan at t=1.0 (step 1, dt=1.0)"}
    }
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert out == "error: norm drift nan at t=1.0 (step 1, dt=1.0)\n"


# ---------------------------------------------------------------------------
# Random command lines: every run ends in a documented exit code
# ---------------------------------------------------------------------------

EDGE_NUMBERS = ["nan", "inf", "-inf", "0", "-0", "-1", "1e300", "-1e300", "1e-300", "0.5", "2", "abc", ""]
GATE_NAMES = [
    "not", "cz", "cnot", "ccnot", "cccnot", "hadamard_like", "cx_half:2,3", "cnot:1,2@3",
    "cx_quarter:1,4", "cx_half:2,2", "cx_half:2,3@9", "cx_half:", "cnot:a,b", "bogus", "", "all",
]
CONFIG_FLAGS = ["--omega", "--b0", "--b1", "--j", "--b-prime", "--gamma"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["build", "schedule", "verify", "simulate", "bogus"]))
    argv = [command]
    if command in ("build", "schedule", "verify"):
        argv.append(draw(st.sampled_from(GATE_NAMES)))
    if command == "schedule":
        argv += draw(st.sampled_from([[], ["--mode", "shared-constants"], ["--mode", "x"]]))
        argv += draw(st.sampled_from([[], ["--csv"]]))
        argv += draw(st.sampled_from([[], ["--search-bound", "0"], ["--search-bound", "3"], ["--search-bound", "x"]]))
    if command == "simulate":
        # t_final and dt stay small or non-finite: no run takes more than a
        # few thousand steps.
        argv.append(f"--n={draw(st.sampled_from(['1', '1', '2', '0', '5', 'x']))}")
        argv.append(f"--psi0={draw(st.sampled_from(['0', '1', '01', '2', '']))}")
        t_final = draw(st.sampled_from(["0", "0.5", "3", "-1", "nan", "inf", "-inf", "1e300", "x"]))
        argv.append(f"--t-final={t_final}")
        dt = draw(st.sampled_from([None, "0.01", "0.1", "0", "-0.1", "nan", "inf", "-inf", "1e-300"]))
        if dt is not None:
            argv.append(f"--dt={dt}")
    for flag in draw(st.lists(st.sampled_from(CONFIG_FLAGS), max_size=2, unique=True)):
        argv.append(f"{flag}={draw(st.sampled_from(EDGE_NUMBERS))}")
    argv += draw(st.sampled_from([["--natural-units"], ["--natural-units"], []]))
    argv += draw(st.sampled_from([[], ["--json"]]))
    return argv


@given(argv=command_lines())
@settings(max_examples=60, deadline=None)
def test_random_command_lines_end_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, out.getvalue(), err.getvalue())
    if "--json" in argv:
        doc = strict_json(out.getvalue())
        assert cli._STATUS_EXIT[doc["status"]] == code, (argv, err.getvalue())


# Resonant decades at the edge of the float range, omega and b0 together:
# random command lines draw them apart, miss resonance and never reach a
# window. cz fits from 1e-307 up; at 1e-310 its t1 overflows. cccnot's
# t1 to t3 fit at 1e-307 but its total T1 does not, and at 1.7e308 its
# derived J overflows.
EXTREME_DECADES = {
    ("cz", "1e-310"): 3, ("cz", "1e-307"): 0, ("cz", "1.7e308"): 0,
    ("cccnot", "1e-310"): 3, ("cccnot", "1e-307"): 3, ("cccnot", "1.7e308"): 3,
}


@pytest.mark.parametrize("gate, scale", EXTREME_DECADES, ids="-".join)
@pytest.mark.parametrize("command", ["schedule", "build", "verify"])
def test_extreme_decades_end_in_a_strict_document(capsys, command, gate, scale):
    argv = [command, gate, "--natural-units", "--json", "--omega", scale, "--b0", scale]
    code, out = run_cli(capsys, *argv)
    assert code == EXTREME_DECADES[gate, scale]
    doc = strict_json(out)
    assert cli._STATUS_EXIT[doc["status"]] == code
    if code == 3:
        assert re.search(r"\bwindow t\d+: |\btotal T\d* = ", doc["payload"]["message"])


def test_a_circuit_scope_solves_only_its_own_schedule_under_the_config(capsys):
    # At 5e-306 ccnot's schedule fits and cccnot's total T does not; the
    # audit replays cccnot's components from its natural-units schedule.
    argv = ["verify", "ccnot", "--natural-units", "--json", "--omega", "5e-306",
            "--b0", "5e-306"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    payload = strict_json(out)["payload"]
    assert [c["name"] for c in payload["checks"]] == VERIFY_CHECK_NAMES["ccnot"]
    assert [row["gate_label"] for row in payload["components"]] == COMPONENT_LABELS
    code, out = run_cli(capsys, "verify", "all", *argv[2:])
    assert code == 3
    assert strict_json(out)["payload"]["message"] == "cccnot total T = inf s is not finite"


def test_a_circuit_scope_names_its_own_gate_when_its_schedule_fails(capsys):
    argv = ["verify", "cccnot", "--natural-units", "--json", "--omega", "1e-307",
            "--b0", "1e-307"]
    code, out = run_cli(capsys, *argv)
    assert code == 3
    assert strict_json(out)["payload"]["message"] == "cccnot total T1 = inf s is not finite"


@pytest.mark.parametrize("scale", ["1e-170", "1e-300"])
def test_a_tiny_resonant_register_verifies(capsys, scale):
    # Every check is scale-invariant, the oracle's π pulse too: ω·dt is the
    # same at every decade, and its RK4 steps keep their fourth order.
    argv = ["verify", "all", "--natural-units", "--json", "--omega", scale, "--b0", scale]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert strict_json(out)["payload"]["all_passed"] is True


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd=None):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


class TestClosedStdout:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["build", "cccnot", "--natural-units", "--json"], 0),
            (["schedule", "cz", "--natural-units", "--j=1.5", "--b-prime=0.5",
              "--mode", "shared-constants"], 2),
            (["verify", "everything", "--json"], 3),
        ],
    )
    def test_exit_code_is_the_commands_own(self, monkeypatch, argv, expected):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(argv) == expected

    def test_buffered_output_goes_to_devnull(self, monkeypatch, tmp_path):
        with open(tmp_path / "stdout", "wb") as fh:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
            assert main(["build", "not", "--natural-units"]) == 0
            os.write(fh.fileno(), b"flushed at exit")
        assert (tmp_path / "stdout").read_bytes() == b""

    def test_closed_pipe_prints_no_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(pathlib.Path(spinforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spinforge.cli", "build", "cccnot", "--natural-units", "--json"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Each `spinforge ...` line of the README "Command line" block, as argv."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("spinforge ")]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_lines_exit_zero(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert code == 0, out


def readme_json_commands():
    """Each README `spinforge ...` line with --json, as argv up to any pipe or redirect.

    "$gate" is expanded over the README's `for gate in ...` loop.
    """
    text = README.read_text(encoding="utf-8").replace("\\\n", " ")
    gates = re.search(r"for gate in ([^;]+); do", text).group(1).split()
    commands = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("spinforge ") and "--json" in line:
            argv = shlex.split(line, comments=True)[1:]
            ends = [i for i, a in enumerate(argv) if a in (">", "|")]
            argv = argv[: ends[0]] if ends else argv
            names = gates if "$gate" in argv else [None]
            commands += [[name if a == "$gate" else a for a in argv] for name in names]
    return commands


@pytest.mark.parametrize("argv", readme_json_commands(), ids=" ".join)
def test_readme_json_lines_print_one_sorted_line(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    assert_one_sorted_line(out)
