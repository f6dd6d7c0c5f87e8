"""Command-line front end: build, schedule, verify, simulate.

Every subcommand produces a CommandResult with a machine-readable payload
and a human summary. Stdout carries the summary, or the CSV mirror with
--csv where one exists; with --json it carries the JSON document alone.
Exit code 0 means every invoked check passed. Handlers raise their errors;
``main`` alone maps them to a status and an exit code.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import gates, oracle
from .config import FILE_KEYS, PhysicalConfig, resolve_config
from .operators import pauli
from .tensor import basis_state, matrix_to_json, unitarity_defect
from .timing import (
    DEFAULT_SEARCH_BOUND,
    DERIVE_CONSTANTS,
    GATE_TABLES,
    SHARED_CONSTANTS,
    WHOLE_GATES,
    ScheduleInfeasibleError,
    gate_timing_table,
    parse_gate_name,
)

EXACT_TOL = 1e-12
ORACLE_TOL = 1e-6

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_ERROR = 3

_STATUS_EXIT = {
    "ok": EXIT_OK,
    "verification_failed": EXIT_VERIFICATION_FAILED,
    "infeasible": EXIT_INFEASIBLE,
    "error": EXIT_ERROR,
}


@dataclass(frozen=True)
class CommandResult:
    status: str
    payload: dict
    human_summary: str

    @property
    def exit_code(self) -> int:
        return _STATUS_EXIT[self.status]


class _UsageError(SystemExit):
    """A malformed command line: exits EXIT_ERROR and keeps argparse's message."""

    def __init__(self, message: str):
        super().__init__(EXIT_ERROR)
        self.message = message


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit EXIT_ERROR, not argparse's 2.

    Exit code 2 means an infeasible schedule; a malformed command line is
    an error. Subparsers inherit the class, so every subcommand agrees.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise _UsageError(message)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key-value config file")
    parser.add_argument("--omega", type=float, help="drive frequency, rad/s")
    parser.add_argument("--b0", type=float, help="static field, tesla")
    parser.add_argument("--b1", type=float, help="drive amplitude, tesla")
    parser.add_argument("--j", type=float, help="exchange coupling, rad/s")
    parser.add_argument("--b-prime", type=float, help="reference offset, rad/s")
    parser.add_argument("--gamma", type=float, help="gyromagnetic ratio, rad/s/T")
    parser.add_argument(
        "--natural-units",
        action="store_true",
        help="desk-scale defaults: gamma = 1, b0 = 1, omega = 1",
    )
    parser.add_argument(
        "--json", action="store_true", help="print only the JSON document"
    )


def _config_from_args(args) -> PhysicalConfig:
    """The config the flags select; each flag's dest is its config-file key."""
    overrides = {field: getattr(args, key) for key, field in FILE_KEYS.items()}
    return resolve_config(
        args.config, natural_units=args.natural_units, overrides=overrides
    )


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _summary_lines(checks: list[dict]) -> str:
    lines = []
    for c in checks:
        mark = "PASS" if c["passed"] else "FAIL"
        detail = f"  {c['detail']}" if c["detail"] else ""
        lines.append(f"[{mark}] {c['name']}{detail}")
    return "\n".join(lines)


def cmd_build(args) -> CommandResult:
    build = gates.build_gate(args.gate, _config_from_args(args))
    report = build.report
    payload = {
        "gate": build.label,
        "pulse_matrix": matrix_to_json(build.pulse),
        "ideal_matrix": matrix_to_json(build.ideal),
        "fidelity_report": report.to_json_dict(),
        "total_time_seconds": build.total_time,
    }
    summary = (
        f"{build.label}: fidelity={report.fidelity:.15f} "
        f"phase={report.global_phase_rad:+.12f} rad "
        f"max_dev={report.max_abs_dev:.3e}"
    )
    return CommandResult("ok", payload, summary)


def cmd_schedule(args) -> CommandResult:
    schedule = gate_timing_table(
        args.gate, _config_from_args(args), mode=args.mode, search_bound=args.search_bound
    )
    payload = schedule.to_json_dict()
    if args.csv:
        summary = schedule.to_csv_text().rstrip("\n")
    else:
        lines = [f"schedule for {schedule.gate} ({schedule.mode})"]
        for label, sol in schedule.solutions.items():
            lines.append(
                f"  {label}: duration={sol.duration!r} s  residual={sol.residual:.2e} rad"
            )
        for total, value in schedule.totals.items():
            lines.append(f"  {total} = {value!r} s")
        summary = "\n".join(lines)
    return CommandResult("ok", payload, summary)


# Whole gates checked by ``verify all``, in order: those with a timing table.
VERIFY_ALL = tuple(GATE_TABLES)

_WINDOW_CLAIM = "lab-frame window matches the evolution operator (offset phase applied)"

# Gates whose t1 window --oracle integrates in the lab frame, with the claim.
_ORACLE_WINDOWS = {
    "not": "lab-frame integration reproduces the drive window",
    "cz": _WINDOW_CLAIM,
    "cnot": _WINDOW_CLAIM,
}


def _max_dev_check(name: str, got, target, tol: float = EXACT_TOL) -> dict:
    dev = float(np.max(np.abs(got - target)))
    return _check(name, dev <= tol, f"max_dev={dev:.2e}")


def _verify_oracle_window(name, build, checks):
    """Integrate window t1 in the lab frame and compare it with u_phi.

    u_phi carries the reference-offset phase exp(-i B' t), which the lab
    Hamiltonian does not, so the integrated window takes it on first.
    """
    n = int(math.log2(len(build.pulse)))
    sched = build.schedule
    window_cfg = sched.window_config("t1")
    duration = sched.solutions["t1"].duration
    settings = oracle.IntegrationSettings(dt=duration / 20_000)
    u_lab = oracle.lab_propagator(window_cfg, n, duration, settings)
    u_gate = gates.u_phi(n, sched.solutions["t1"], window_cfg)
    phased = np.exp(-1j * window_cfg.b_prime * duration) * u_lab
    checks.append(_max_dev_check(name, phased, u_gate, ORACLE_TOL))


def _verify_gate(name, cfg, checks, use_oracle):
    """Check a gate's pulse layer against its exact target, with phase 0.

    The NOT pulse is -i*X, so NOT is also checked phase-invariantly
    against X.
    """
    build = gates.build_gate(name, cfg)
    label, r = build.label, build.report
    if label == "not":
        checks.append(
            _max_dev_check("not: composition equals -i*X", build.pulse, -1j * pauli("x"))
        )
        phase_ok = abs(r.global_phase_rad + math.pi / 2) <= EXACT_TOL
        checks.append(
            _check(
                "not: phase-invariant fidelity vs X",
                r.fidelity >= 1 - EXACT_TOL and phase_ok,
                f"F={r.fidelity:.15f} phase={r.global_phase_rad:+.12f}",
            )
        )
    else:
        claim = f"{label}: pulse layer equals the canonical matrix"
        checks.append(_max_dev_check(claim, build.pulse, build.ideal))
    if use_oracle and label in _ORACLE_WINDOWS:
        _verify_oracle_window(f"{label}: {_ORACLE_WINDOWS[label]}", build, checks)


def _verify_composed(gate, pulses, checks):
    """Check a circuit's ideal and pulse layers against the canonical Toffoli."""
    sequence = gates.CIRCUITS[gate]
    target = gates.canonical_toffoli(sequence[0].n)
    ideal = gates.ideal_sequence_product(sequence)
    checks.append(_max_dev_check(f"{gate}: ideal-layer circuit identity", ideal, target))
    pulse = gates.sequence_pulse(sequence, pulses)
    claim = f"{gate}: pulse-layer product vs canonical target"
    checks.append(_max_dev_check(claim, pulse, target))
    udef = unitarity_defect(pulse)
    checks.append(
        _check(f"{gate}: pulse product unitary", udef <= EXACT_TOL, f"defect={udef:.2e}")
    )


def _verify_audit(pulses, checks):
    reports = gates.component_reports(pulses)
    flagged = gates.flagged_components(reports)
    checks.append(
        _check(
            "components: fidelity report produced for every pulse component",
            len(reports) == len(gates.AUDIT_SPECS_3Q) + len(gates.AUDIT_SPECS_4Q),
            f"{len(reports)} reports",
        )
    )
    checks.append(
        _check(
            "components: no pulse component deviates from its ideal target",
            not flagged,
            "; ".join(f"{r.gate_label} F={r.fidelity:.12f}" for r in flagged)
            or "all exact",
        )
    )
    return reports


def _verify_oracle_basics(cfg, checks):
    rng = np.random.default_rng(20240817)
    times = rng.uniform(0.0, 10.0 / cfg.omega, size=100)
    m_dev = oracle.check_m_constancy(cfg, times)
    checks.append(
        _check(
            "oracle: rotated drive direction is constant",
            m_dev <= EXACT_TOL,
            f"max_dev={m_dev:.2e}",
        )
    )
    rabi_cfg = cfg if cfg.b1 > 0 else cfg.replace(b1=0.05 * cfg.b0)
    t_pi = math.pi / (rabi_cfg.gamma * rabi_cfg.b1)
    settings = oracle.IntegrationSettings(dt=t_pi / 10_000)
    final = oracle.integrate_lab(rabi_cfg, 1, basis_state(1, "0"), t_pi, settings)
    residual = float(abs(final[0]) ** 2)
    checks.append(
        _check(
            "oracle: resonant pi pulse inverts the population",
            residual <= ORACLE_TOL,
            f"|a|^2={residual:.2e}",
        )
    )


def cmd_verify(args) -> CommandResult:
    cfg = _config_from_args(args)
    scope = args.scope.strip().lower()
    if scope != "all":
        try:
            parse_gate_name(scope)
        except ValueError as exc:
            message = f"unknown scope {args.scope!r}; expected 'all' or a gate name ({exc})"
            return CommandResult("error", {"message": message}, message)
    checks: list[dict] = []
    payload: dict = {"scope": scope}
    pulses = None
    for name in VERIFY_ALL if scope == "all" else (scope,):
        if name not in gates.CIRCUITS:
            _verify_gate(name, cfg, checks, args.oracle)
            continue
        if pulses is None:
            # One replay of each distinct component serves both circuit
            # products and the audit.
            pulses = gates.circuit_component_pulses(cfg)
        _verify_composed(name, pulses, checks)
    if pulses is not None:
        reports = _verify_audit(pulses, checks)
        payload["components"] = [r.to_json_dict() for r in reports]
    if scope == "all" or args.oracle:
        _verify_oracle_basics(cfg, checks)

    all_passed = all(c["passed"] for c in checks)
    status = "ok" if all_passed else "verification_failed"
    payload.update(checks=checks, all_passed=all_passed)
    summary = _summary_lines(checks)
    summary += f"\n{'all checks passed' if all_passed else 'SOME CHECKS FAILED'}"
    return CommandResult(status, payload, summary)


def cmd_simulate(args) -> CommandResult:
    cfg = _config_from_args(args)
    n = args.n
    psi0 = basis_state(n, args.psi0)
    # Without --dt the oracle takes its default step.
    settings = None if args.dt is None else oracle.IntegrationSettings(dt=args.dt)
    if args.trajectory:
        times, states = oracle.integrate_lab_trajectory(
            cfg, n, psi0, args.t_final, settings
        )
        oracle.write_trajectory_csv(args.trajectory, times, states)
        final = states[-1]
    else:
        final = oracle.integrate_lab(cfg, n, psi0, args.t_final, settings)
    if args.t_final > 0:
        dt = oracle.step_plan(args.t_final, settings)[1]
    else:
        dt = 0.0 if settings is None else settings.dt
    payload = {
        "n": n,
        "t_final": args.t_final,
        "dt": dt,
        "amplitudes": [[float(z.real), float(z.imag)] for z in final],
        "populations": [float(abs(z) ** 2) for z in final],
    }
    pops = " ".join(f"{p:.6f}" for p in payload["populations"])
    summary = f"final populations: {pops}"
    if args.trajectory:
        summary += f"\ntrajectory written to {args.trajectory}"
    return CommandResult("ok", payload, summary)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it."""
    parser = _Parser(
        prog="spinforge",
        description="Pulse-level synthesis and verification of spin-qubit "
        "NOT/CNOT/CCNOT/CCCNOT gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    gate_names = "|".join(WHOLE_GATES)

    p_build = sub.add_parser("build", help="build a gate and compare both layers")
    p_build.add_argument("gate", help=f"{gate_names} or kind:c,t[@n]")
    _add_config_flags(p_build)

    p_sched = sub.add_parser("schedule", help="emit the timing table of a gate")
    p_sched.add_argument("gate")
    p_sched.add_argument(
        "--mode",
        choices=[DERIVE_CONSTANTS, SHARED_CONSTANTS],
        default=DERIVE_CONSTANTS,
    )
    p_sched.add_argument("--csv", action="store_true", help="print the CSV table")
    p_sched.add_argument("--search-bound", type=int, default=DEFAULT_SEARCH_BOUND)
    _add_config_flags(p_sched)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument(
        "scope", help=f"'all' or a gate: {gate_names} or kind:c,t[@n]"
    )
    p_verify.add_argument(
        "--oracle",
        action="store_true",
        help="include lab-frame integration cross-checks",
    )
    _add_config_flags(p_verify)

    p_sim = sub.add_parser("simulate", help="integrate the lab-frame dynamics")
    p_sim.add_argument("--n", type=int, required=True, help="number of qubits")
    p_sim.add_argument("--psi0", required=True, help="initial basis bitstring, 0=up")
    p_sim.add_argument("--t-final", type=float, required=True)
    p_sim.add_argument("--dt", type=float)
    p_sim.add_argument("--trajectory", help="write per-step amplitudes to this CSV")
    _add_config_flags(p_sim)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = make_parser().parse_args(argv)
    except _UsageError as exc:
        # The usage text has gone to stderr; a --json caller still gets
        # the error document on stdout.
        if "--json" in argv:
            _emit(_json_document("error", {"message": exc.message}))
        raise
    handlers = {
        "build": cmd_build,
        "schedule": cmd_schedule,
        "verify": cmd_verify,
        "simulate": cmd_simulate,
    }
    try:
        result = handlers[args.command](args)
    except ScheduleInfeasibleError as exc:  # a ValueError, so it comes first
        result = CommandResult("infeasible", {"message": str(exc)}, f"infeasible: {exc}")
    except (ValueError, OSError, oracle.IntegrationError) as exc:
        result = CommandResult("error", {"message": str(exc)}, f"error: {exc}")
    if args.json:
        _emit(_json_document(result.status, result.payload))
    else:
        _emit(result.human_summary)
    return result.exit_code


def _json_document(status: str, payload: dict) -> str:
    """The --json document on one line: without ``indent`` json uses its C encoder."""
    return json.dumps({"status": status, "payload": payload}, sort_keys=True)


def _emit(text: str) -> None:
    """Print the command's output; a reader that has gone is not an error."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        _discard_stdout()


def _discard_stdout() -> None:
    """Send what stdout still buffers to devnull once its reader has gone.

    A reader such as ``head -1`` may close the pipe before the output ends.
    Without this the flush at interpreter exit raises again and prints
    "Exception ignored"; the command's exit code stands either way.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor behind stdout, so nothing is flushed at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
