"""Gate synthesis: resonance evolution operators, pulse programs, and the
exact ideal layer they are verified against.

Two layers are kept deliberately separate. The pulse layer evaluates the
literal right-to-left product of pulse factors at the solved timing
residues. The ideal layer builds controlled powers of X spectrally and is
the independent verification target; discrepancies between the layers are
reported, never patched.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from .config import PhysicalConfig
from .operators import (
    check_pauli_string,
    check_system_size,
    embed_factors,
    pair_sites,
    pauli,
    pauli_string,
    z_diagonal,
)
from .tensor import FidelityReport, expm_pauli, identity, phase_fidelity
from .timing import (
    CIRCUITS,
    COMPONENT_PARENT_GATE,
    COMPONENT_TABLE,
    X_POWER_ALPHA,
    ConstraintKind,
    GateSchedule,
    GateSpec,
    PulseProgram,
    PulseSegment,
    TimingSolution,
    gate_timing_table,
    parse_gate_name,
)

DRIVE_ELIMINATION_TOL = 1e-9


# ---------------------------------------------------------------------------
# Ideal layer
# ---------------------------------------------------------------------------

def hadamard_like() -> np.ndarray:
    """The combined y-rotation used in place of a true Hadamard.

    Equals exp(-i (pi/4) sigma_y) = [[1, -1], [1, 1]] / sqrt(2).
    """
    return np.array([[1, -1], [1, 1]], dtype=complex) / math.sqrt(2)


def x_power(alpha: float) -> np.ndarray:
    """Principal power of X: eigenvalue 1 on (|0>+|1>), e^{i pi alpha} on (|0>-|1>)."""
    x = pauli("x")
    eye = identity(2)
    p_plus = (eye + x) / 2
    p_minus = (eye - x) / 2
    return p_plus + np.exp(1j * math.pi * alpha) * p_minus


def controlled_unitary(
    control: int, target: int, n: int, block: np.ndarray
) -> np.ndarray:
    """Apply ``block`` on the target qubit when the control qubit is |1>."""
    if control == target:
        raise ValueError("control and target must differ")
    z = pauli("z")
    p0 = embed_factors({control: (identity(2) + z) / 2}, n)
    p1 = embed_factors({control: (identity(2) - z) / 2, target: block}, n)
    return p0 + p1


def controlled_x_power(control: int, target: int, n: int, alpha: float) -> np.ndarray:
    return controlled_unitary(control, target, n, x_power(alpha))


def canonical_toffoli(n: int) -> np.ndarray:
    """Multi-controlled NOT on qubit n: identity with the last two rows swapped."""
    check_system_size(n)
    m = identity(2**n)
    m[[-2, -1]] = m[[-1, -2]]
    return m


def ideal_component(spec: GateSpec) -> np.ndarray:
    """Exact verification target for a gate spec."""
    kind = spec.kind
    if kind == "not":
        return pauli("x")
    if kind == "hadamard_like":
        return hadamard_like()
    if kind in CIRCUITS:
        return canonical_toffoli(CIRCUITS[kind][0].n)
    if spec.control is None or spec.target is None:
        raise ValueError(f"{kind} needs explicit control and target sites")
    if kind == "cz":
        block = pauli("z")
    elif kind == "cnot":
        block = pauli("x")
    else:
        block = x_power(X_POWER_ALPHA[kind])
    return controlled_unitary(spec.control, spec.target, spec.n, block)


# ---------------------------------------------------------------------------
# Pulse layer
# ---------------------------------------------------------------------------

def _sigma_angle(phase_over_pi: Fraction | None, divisor: int) -> float | None:
    """Reduce an exact knob phase (knob*t / pi) to a sigma-level angle.

    The generator at sigma level has period 2 pi, so the exact fraction is
    reduced mod 2 and mapped to (-pi, pi].
    """
    if phase_over_pi is None:
        return None
    # Integer reduction of num/den mod 2; int/int true division rounds
    # correctly, as float(Fraction) does, so the angle is the same float.
    den = phase_over_pi.denominator * divisor
    num = phase_over_pi.numerator % (2 * den)
    if num > den:
        num -= 2 * den
    return num / den * math.pi


def _float_angle(phase_rad: float) -> float:
    angle = math.fmod(phase_rad, 2 * math.pi)
    if angle > math.pi:
        angle -= 2 * math.pi
    elif angle <= -math.pi:
        angle += 2 * math.pi
    return angle


def _window_angle(
    timing: TimingSolution,
    kind: ConstraintKind,
    divisor: int,
    cfg: PhysicalConfig | None = None,
) -> float:
    """Sigma-level angle of one factor family, exact from the window's witness;
    only ``u_phi`` passes a config, whose knob stands in for a missing one."""
    exact = _sigma_angle(timing.knob_phase_over_pi(kind), divisor)
    if exact is not None:
        return exact
    if cfg is None:
        raise ValueError(f"window {timing.label} has no {kind.value} witness")
    return _float_angle(kind.knob_value(cfg) * timing.duration / divisor)


def _diagonal_of(key: tuple, n: int) -> np.ndarray | None:
    """diag(P) of a z-only Pauli string, None if it has an x or y; validates both."""
    factors = dict(zip(*key))
    if all(axis == "z" for axis in factors.values()):
        return z_diagonal(factors, n)
    check_pauli_string(factors, n)
    return None


def program_matrix(program: PulseProgram) -> np.ndarray:
    """Replay a pulse program: time-ordered segments compose right-to-left.

    A diagonal segment (a scalar phase, z or zz) adds angle·diag(P) to a
    real phase-angle vector θ, with diag(P) from ``z_diagonal``. θ scales
    the rows of U as exp(iθ) before the next x/y segment and once at the
    end. An x/y segment with angle exactly 0 is the identity: it is
    validated and skipped. Every other segment goes through ``expm_pauli``
    and one dense product. Each distinct segment string is validated, and
    each dense one built, once per call.
    """
    n = program.n
    diagonals: dict[tuple, np.ndarray | None] = {}
    strings: dict[tuple, np.ndarray] = {}
    u = identity(2**n)
    theta = np.zeros(2**n)
    for seg in program.segments:
        key = (seg.sites, seg.axes)
        if key not in diagonals:
            diagonals[key] = _diagonal_of(key, n)
        diagonal = diagonals[key]
        if diagonal is not None:
            theta += seg.angle * diagonal
        elif seg.angle != 0:
            if key not in strings:
                strings[key] = pauli_string(dict(zip(*key)), n)
            u = expm_pauli(strings[key], seg.angle) @ (np.exp(1j * theta)[:, None] * u)
            theta = np.zeros(2**n)
    return np.exp(1j * theta)[:, None] * u


def _u_phi_segments(
    timing: TimingSolution, n: int, cfg: PhysicalConfig | None = None
) -> list[PulseSegment]:
    a_z = _window_angle(timing, ConstraintKind.ZEEMAN, 2, cfg)
    a_x = _window_angle(timing, ConstraintKind.DRIVE, 2, cfg)
    a_zz = _window_angle(timing, ConstraintKind.EXCHANGE, 4, cfg)
    a_offset = _window_angle(timing, ConstraintKind.OFFSET, 1, cfg)
    segments = [PulseSegment((), (), -a_offset, timing.label)]
    for i, j in pair_sites(n):
        segments.append(PulseSegment((i, j), ("z", "z"), -a_zz, timing.label))
    for site in range(1, n + 1):
        segments.append(PulseSegment((site,), ("x",), a_x, timing.label))
    for site in range(1, n + 1):
        segments.append(PulseSegment((site,), ("z",), a_z, timing.label))
    return segments


def u_phi(n: int, timing: TimingSolution, cfg: PhysicalConfig) -> np.ndarray:
    """Resonance evolution operator of the coupled register at solved residues.

    The operator is the product of per-site z factors, per-site drive (x)
    factors, Ising pair factors and the reference-offset phase, each
    evaluated at the exact residue the timing solution pins down. With the
    drive factor eliminated the result is diagonal.
    """
    check_system_size(n)
    if not cfg.at_resonance:
        raise ValueError("u_phi requires the resonance condition omega = gamma*b0")
    a_x = _window_angle(timing, ConstraintKind.DRIVE, 2, cfg)
    if n >= 3 and abs(_float_angle(2 * a_x)) > DRIVE_ELIMINATION_TOL:
        raise ValueError(
            f"drive factor is not eliminated: gamma*B1*t = {2 * a_x!r} mod 2*pi"
        )
    segments = tuple(_u_phi_segments(timing, n, cfg))
    return program_matrix(PulseProgram(f"u_phi/{n}q", n, segments, timing.duration))


def _pulse_angle(schedule: GateSchedule, label: str) -> float:
    """Sigma-level angle of a free-precession pulse window (omega*t/2)."""
    return _window_angle(schedule.solutions[label], ConstraintKind.ZEEMAN, 2)


def _y_conjugated(
    target: int, a_y: float, label_y: str, inner: list[PulseSegment]
) -> tuple[PulseSegment, ...]:
    """The target-qubit y pulse, the inner segments, then the inverse y pulse."""
    return (
        PulseSegment((target,), ("y",), a_y, label_y),
        *inner,
        PulseSegment((target,), ("y",), -a_y, label_y),
    )


def _adjoint_program(program: PulseProgram, label: str) -> PulseProgram:
    segments = tuple(
        PulseSegment(s.sites, s.axes, -s.angle, s.duration_label)
        for s in reversed(program.segments)
    )
    return PulseProgram(label, program.n, segments, program.total_time)


def component_program(spec: GateSpec, schedule: GateSchedule) -> PulseProgram:
    """Time-ordered pulse list for one component of the 3q/4q circuits.

    Every component is a y-conjugated phase window: the target-qubit y
    pulse, single-z and pair-zz correction pulses on the spectator sites,
    and the phase-accumulation window between them.
    """
    key = (spec.n, spec.base_kind, spec.control, spec.target)
    if key not in COMPONENT_TABLE:
        raise ValueError(f"no pulse construction for component {spec.label}")
    if schedule.gate != COMPONENT_PARENT_GATE[spec.n]:
        raise ValueError(
            f"schedule is for {schedule.gate!r}, component {spec.label} "
            f"needs {COMPONENT_PARENT_GATE[spec.n]!r}"
        )
    labels, total_label = COMPONENT_TABLE[key]
    if spec.base_kind == "cnot":
        label_phi, label_y = labels
        label_d = label_y
    else:
        label_phi, label_y, label_d = labels
    a_d = _pulse_angle(schedule, label_d)
    c, t = spec.control, spec.target
    spectators = [s for s in range(1, spec.n + 1) if s not in (c, t)]
    spectator_pairs = [p for p in pair_sites(spec.n) if p != (min(c, t), max(c, t))]

    inner = [PulseSegment((site,), ("z",), -a_d, label_d) for site in spectators]
    for i, j in spectator_pairs:
        inner.append(PulseSegment((i, j), ("z", "z"), a_d, label_d))
    inner.extend(_u_phi_segments(schedule.solutions[label_phi], spec.n))
    segments = _y_conjugated(t, _pulse_angle(schedule, label_y), label_y, inner)

    program = PulseProgram(spec.label, spec.n, segments, schedule.totals[total_label])
    if spec.is_adjoint:
        program = _adjoint_program(program, spec.label)
    return program


def _check_schedule_config(cfg: PhysicalConfig | None, timings: GateSchedule) -> None:
    """A config given beside a schedule must be the one the schedule was solved for."""
    if cfg is not None and cfg != timings.cfg:
        raise ValueError(
            f"config {cfg} differs from the config of the {timings.gate} "
            f"schedule, {timings.cfg}"
        )


def pulse_component(
    spec: GateSpec, cfg: PhysicalConfig, timings: GateSchedule
) -> np.ndarray:
    """Evaluate one component gate as the literal product of its pulses."""
    _check_schedule_config(cfg, timings)
    return program_matrix(component_program(spec, timings))


# ---------------------------------------------------------------------------
# Named gates
# ---------------------------------------------------------------------------

def not_program(schedule: GateSchedule) -> PulseProgram:
    """Single-qubit inverter: drive flip, frame phase, then a z quarter turn."""
    t1 = schedule.solutions["t1"]
    t2 = schedule.solutions["t2"]
    a_z = _window_angle(t1, ConstraintKind.ZEEMAN, 2)
    a_x = _window_angle(t1, ConstraintKind.DRIVE, 2)
    # The closing pulse is a full-angle rotation: omega*t2 = pi/2.
    a_pulse = _window_angle(t2, ConstraintKind.ZEEMAN, 1)
    segments = (
        PulseSegment((1,), ("x",), a_x, "t1"),
        PulseSegment((1,), ("z",), a_z, "t1"),
        PulseSegment((1,), ("z",), a_pulse, "t2"),
    )
    return PulseProgram("not/1q", 1, segments, schedule.totals["T"])


def cz_program(schedule: GateSchedule) -> PulseProgram:
    """Two-qubit controlled-Z: the evolution operator of the t1 window alone."""
    segments = tuple(_u_phi_segments(schedule.solutions["t1"], 2))
    return PulseProgram("cz/2q", 2, segments, schedule.totals["T"])


def cnot_program(schedule: GateSchedule) -> PulseProgram:
    """The cz window between the target-qubit y pulse of t2 and its inverse."""
    a_y = _pulse_angle(schedule, "t2")
    segments = _y_conjugated(2, a_y, "t2", cz_program(schedule).segments)
    return PulseProgram("cnot/2q", 2, segments, schedule.totals["T"])


def hadamard_program(schedule: GateSchedule) -> PulseProgram:
    """The inverse y pulse of the cnot t2 window, exp(-i (pi/4) sigma_y)."""
    segment = PulseSegment((1,), ("y",), -_pulse_angle(schedule, "t2"), "t2")
    duration = schedule.solutions["t2"].duration
    return PulseProgram("hadamard_like/1q", 1, (segment,), duration)


CCNOT_SEQUENCE: tuple[GateSpec, ...] = CIRCUITS["ccnot"]
CCCNOT_SEQUENCE: tuple[GateSpec, ...] = CIRCUITS["cccnot"]

# The distinct components of each circuit, in order of first use.
AUDIT_SPECS_3Q: tuple[GateSpec, ...] = tuple(dict.fromkeys(CCNOT_SEQUENCE))
AUDIT_SPECS_4Q: tuple[GateSpec, ...] = tuple(dict.fromkeys(CCCNOT_SEQUENCE))


def sequence_program(
    label: str, sequence: tuple[GateSpec, ...], schedule: GateSchedule
) -> PulseProgram:
    """The component programs of a circuit, concatenated in time order."""
    segments = tuple(
        seg for spec in sequence for seg in component_program(spec, schedule).segments
    )
    return PulseProgram(label, sequence[0].n, segments, schedule.totals["T"])


def component_pulses(schedule: GateSchedule) -> dict[GateSpec, np.ndarray]:
    """Pulse matrix of each distinct component of a ccnot or cccnot schedule.

    Keys follow ``AUDIT_SPECS_3Q`` / ``AUDIT_SPECS_4Q`` order; each pulse
    is one replay of its component program.
    """
    if schedule.gate not in CIRCUITS:
        raise ValueError(
            f"schedule is for {schedule.gate!r}, not a ccnot or cccnot circuit"
        )
    return {
        spec: program_matrix(component_program(spec, schedule))
        for spec in dict.fromkeys(CIRCUITS[schedule.gate])
    }


def sequence_pulse(
    sequence: tuple[GateSpec, ...], pulses: dict[GateSpec, np.ndarray]
) -> np.ndarray:
    """Right-to-left product over a circuit's sequence, given each component's matrix."""
    u = identity(2 ** sequence[0].n)
    for spec in sequence:
        u = pulses[spec] @ u
    return u


ProgramBuilder = Callable[[GateSchedule], PulseProgram]

# Whole gate name -> (timing table, pulse program builder, ideal target).
# The pulse of a circuit is the product of its component pulses
# (``sequence_pulse``); its builder gives the same gate as one program.
GATE_REGISTRY: dict[str, tuple[str, ProgramBuilder, GateSpec]] = {
    "not": ("not", not_program, GateSpec("not", n=1)),
    "cz": ("cz", cz_program, GateSpec("cz", 1, 2, 2)),
    "cnot": ("cnot", cnot_program, GateSpec("cnot", 1, 2, 2)),
    "hadamard_like": ("cnot", hadamard_program, GateSpec("hadamard_like", n=1)),
    **{
        gate: (gate, partial(sequence_program, f"{gate}/{n}q", CIRCUITS[gate]),
               GateSpec(gate, n=n))
        for n, gate in COMPONENT_PARENT_GATE.items()
    },
}


def _registered_build(name: str, timings: GateSchedule) -> tuple[np.ndarray, float]:
    """Pulse matrix and duration of a whole gate; a circuit replays each
    distinct component once and lasts its schedule's total T."""
    if name in CIRCUITS:
        pulse = sequence_pulse(CIRCUITS[name], component_pulses(timings))
        return pulse, timings.totals["T"]
    _, build_program, _ = GATE_REGISTRY[name]
    program = build_program(timings)
    return program_matrix(program), program.total_time


def _registered_pulse(
    name: str, cfg: PhysicalConfig | None, timings: GateSchedule | None
) -> np.ndarray:
    """Pulse matrix of a whole gate, from ``timings`` or from the schedule
    solved for ``cfg`` (natural units when neither is given)."""
    if timings is None:
        if cfg is None:
            cfg = PhysicalConfig.natural_units()
        timings = gate_timing_table(GATE_REGISTRY[name][0], cfg)
    else:
        _check_schedule_config(cfg, timings)
    return _registered_build(name, timings)[0]


def not_gate_1q(
    cfg: PhysicalConfig | None = None, timings: GateSchedule | None = None
) -> np.ndarray:
    """Composed single-qubit NOT; equals X up to the global phase -i."""
    return _registered_pulse("not", cfg, timings)


def controlled_z_2q(
    cfg: PhysicalConfig | None = None, timings: GateSchedule | None = None
) -> np.ndarray:
    """Two-qubit controlled-Z from the evolution operator alone."""
    return _registered_pulse("cz", cfg, timings)


def cnot_2q(
    cfg: PhysicalConfig | None = None, timings: GateSchedule | None = None
) -> np.ndarray:
    """Controlled-Z conjugated by the target-qubit y rotation."""
    return _registered_pulse("cnot", cfg, timings)


def compose_ccnot(
    cfg: PhysicalConfig | None = None, timings: GateSchedule | None = None
) -> np.ndarray:
    """Five-component doubly-controlled NOT on three qubits."""
    return _registered_pulse("ccnot", cfg, timings)


def compose_cccnot(
    cfg: PhysicalConfig | None = None, timings: GateSchedule | None = None
) -> np.ndarray:
    """Thirteen-component triply-controlled NOT on four qubits."""
    return _registered_pulse("cccnot", cfg, timings)


def ideal_sequence_product(sequence) -> np.ndarray:
    """Product of the ideal components of a circuit; each distinct one is built once."""
    ideals = {spec: ideal_component(spec) for spec in dict.fromkeys(sequence)}
    return sequence_pulse(sequence, ideals)


# ---------------------------------------------------------------------------
# Pulse-vs-ideal audit
# ---------------------------------------------------------------------------

AUDIT_FLAG_TOL = 1e-9


def component_reports(pulses: dict[GateSpec, np.ndarray]) -> list[FidelityReport]:
    """Fidelity report of each component pulse against its ideal target."""
    return [
        phase_fidelity(pulse, ideal_component(spec), gate_label=spec.label)
        for spec, pulse in pulses.items()
    ]


def circuit_component_pulses(cfg: PhysicalConfig) -> dict[GateSpec, np.ndarray]:
    """``component_pulses`` of the ccnot and then the cccnot schedule, each
    derived once."""
    pulses = {}
    for gate in CIRCUITS:
        pulses.update(component_pulses(gate_timing_table(gate, cfg)))
    return pulses


def audit_components(cfg: PhysicalConfig | None = None) -> list[FidelityReport]:
    """Fidelity report of every pulse component against its ideal target."""
    if cfg is None:
        cfg = PhysicalConfig.natural_units()
    return component_reports(circuit_component_pulses(cfg))


def flagged_components(reports) -> list[FidelityReport]:
    """Reports whose fidelity falls short of exact agreement."""
    return [r for r in reports if r.fidelity < 1 - AUDIT_FLAG_TOL]


# ---------------------------------------------------------------------------
# Named builds (CLI surface)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateBuild:
    """A named gate's two layers and their comparison.

    ``total_time`` is the duration of the built pulse program; for a
    component or the Hadamard-like rotation that is part of the schedule.
    """

    label: str
    pulse: np.ndarray
    ideal: np.ndarray
    report: FidelityReport
    schedule: GateSchedule
    total_time: float


def build_gate(name: str, cfg: PhysicalConfig | None = None) -> GateBuild:
    """Build the pulse and ideal layers of a named gate and compare them."""
    if cfg is None:
        cfg = PhysicalConfig.natural_units()
    parsed = parse_gate_name(name)
    if isinstance(parsed, GateSpec):
        schedule = gate_timing_table(COMPONENT_PARENT_GATE[parsed.n], cfg)
        program = component_program(parsed, schedule)
        pulse, total_time = program_matrix(program), program.total_time
        spec, label = parsed, parsed.label
    else:
        table, _, spec = GATE_REGISTRY[parsed]
        schedule = gate_timing_table(table, cfg)
        pulse, total_time = _registered_build(parsed, schedule)
        label = parsed
    ideal = ideal_component(spec)
    report = phase_fidelity(pulse, ideal, gate_label=label)
    return GateBuild(label, pulse, ideal, report, schedule, total_time)
