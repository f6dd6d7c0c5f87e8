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
from functools import cache, partial
from typing import Callable, Iterable

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


@cache
def ideal_component(spec: GateSpec) -> np.ndarray:
    """Exact verification target for a gate spec.

    Built once per spec and process; every caller shares the array, so it
    is read-only.
    """
    kind = spec.kind
    if kind == "not":
        target = pauli("x")
    elif kind == "hadamard_like":
        target = hadamard_like()
    elif kind in CIRCUITS:
        target = canonical_toffoli(CIRCUITS[kind][0].n)
    elif spec.control is None or spec.target is None:
        raise ValueError(f"{kind} needs explicit control and target sites")
    else:
        if kind == "cz":
            block = pauli("z")
        elif kind == "cnot":
            block = pauli("x")
        else:
            block = x_power(X_POWER_ALPHA[kind])
        target = controlled_unitary(spec.control, spec.target, spec.n, block)
    target.flags.writeable = False
    return target


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


@cache
def _diagonal_of(key: tuple, n: int) -> np.ndarray | None:
    """diag(P) of a z-only Pauli string, None if it has an x or y; validates
    both. Worked out once per string and process; a diagonal is read-only."""
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
    and one dense product. Each distinct segment string is validated once
    per process (``_diagonal_of``), and each dense one built once per call.
    """
    n = program.n
    strings: dict[tuple, np.ndarray] = {}
    u = identity(2**n)
    theta = np.zeros(2**n)
    for seg in program.segments:
        key = (seg.sites, seg.axes)
        diagonal = _diagonal_of(key, n)
        if diagonal is not None:
            theta += seg.angle * diagonal
        elif seg.angle != 0:
            if key not in strings:
                strings[key] = pauli_string(dict(zip(*key)), n)
            u = expm_pauli(strings[key], seg.angle) @ (np.exp(1j * theta)[:, None] * u)
            theta = np.zeros(2**n)
    return np.exp(1j * theta)[:, None] * u


def _phase_angles(
    timing: TimingSolution, n: int, cfg: PhysicalConfig | None = None
) -> tuple[float, float, float, float]:
    """The (z, x, zz, offset) sigma-level angles of a phase window on n spins.

    On n >= 2 spins the drive, which does not commute with the exchange, must
    be off: its exact phase (``cfg.b1`` without a witness) is 0, whatever the
    reduced angle, which is 0 too for a drive that turns through 4 pi.
    """
    drive = timing.knob_phase_over_pi(ConstraintKind.DRIVE)
    drive_on = cfg is not None and cfg.b1 != 0 if drive is None else drive != 0
    if n >= 2 and drive_on:
        raise ValueError(
            f"window {timing.label} leaves the drive on across {n} coupled "
            "spins; the drive does not commute with the exchange"
        )
    return (
        _window_angle(timing, ConstraintKind.ZEEMAN, 2, cfg),
        _window_angle(timing, ConstraintKind.DRIVE, 2, cfg),
        _window_angle(timing, ConstraintKind.EXCHANGE, 4, cfg),
        _window_angle(timing, ConstraintKind.OFFSET, 1, cfg),
    )


def _window_segments(
    n: int, label: str, angles: tuple[float, float, float, float]
) -> list[PulseSegment]:
    """The segments of a phase window at its ``_phase_angles``."""
    a_z, a_x, a_zz, a_offset = angles
    segments = [PulseSegment((), (), -a_offset, label)]
    for i, j in pair_sites(n):
        segments.append(PulseSegment((i, j), ("z", "z"), -a_zz, label))
    for site in range(1, n + 1):
        segments.append(PulseSegment((site,), ("x",), a_x, label))
    for site in range(1, n + 1):
        segments.append(PulseSegment((site,), ("z",), a_z, label))
    return segments


def u_phi(n: int, timing: TimingSolution, cfg: PhysicalConfig) -> np.ndarray:
    """Resonance evolution operator of the coupled register at solved residues.

    The operator is the product of per-site z factors, per-site drive (x)
    factors, Ising pair factors and the reference-offset phase, each
    evaluated at the exact residue the timing solution pins down. On n >= 2
    spins ``_phase_angles`` requires the drive off, so the result is diagonal.
    """
    check_system_size(n)
    if not cfg.at_resonance:
        raise ValueError("u_phi requires the resonance condition omega = gamma*b0")
    angles = _phase_angles(timing, n, cfg)
    segments = tuple(_window_segments(n, timing.label, angles))
    return program_matrix(PulseProgram(f"u_phi/{n}q", n, segments, timing.duration))


@cache
def _program_segments(
    build: Callable[..., Iterable[PulseSegment]], *key
) -> tuple[PulseSegment, ...]:
    """The segments ``build(*key)`` gives, built once per key and process.

    A key holds only what fixes the segments: the spec, the window labels
    and the exact sigma-level angles read from the schedule's witnesses.
    So every derive-constants schedule of a gate table, whatever its
    config, shares one entry; a schedule whose witnesses give other angles
    gets its own. The caller binds the schedule's durations.
    """
    return tuple(build(*key))


def _pulse_angle(schedule: GateSchedule, label: str) -> float:
    """Sigma-level angle of a free-precession pulse window (omega*t/2)."""
    return _window_angle(schedule.solutions[label], ConstraintKind.ZEEMAN, 2)


def _adjoint_segments(segments: tuple[PulseSegment, ...]) -> tuple[PulseSegment, ...]:
    return tuple(
        PulseSegment(s.sites, s.axes, -s.angle, s.duration_label)
        for s in reversed(segments)
    )


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
    segments = _conjugated_window(spec, schedule, labels)
    return PulseProgram(spec.label, spec.n, segments, schedule.totals[total_label])


def _conjugated_window(
    spec: GateSpec, schedule: GateSchedule, labels: tuple[str, ...]
) -> tuple[PulseSegment, ...]:
    """A component's segments at the schedule's angles, from its windows as
    ``COMPONENT_TABLE`` lists them: the phase window, the y pulse and the
    correction pulses, which a cnot times by its y pulse's window."""
    label_phi, label_y = labels[:2]
    label_d = label_y if spec.base_kind == "cnot" else labels[2]
    correction = (label_d, _pulse_angle(schedule, label_d))
    window = schedule.solutions[label_phi]
    phase = (window.label, _phase_angles(window, spec.n))
    y_pulse = (label_y, _pulse_angle(schedule, label_y))
    return _program_segments(_component_segments, spec, correction, phase, y_pulse)


def _component_segments(
    spec: GateSpec,
    correction: tuple[str, float],
    phase: tuple[str, tuple[float, float, float, float]],
    y_pulse: tuple[str, float],
) -> tuple[PulseSegment, ...]:
    """A component's segments from its (label, angle) correction and y
    pulses and its (label, angles) phase window; an adjoint kind reverses
    them with negated angles."""
    (label_d, a_d), (label_y, a_y) = correction, y_pulse
    c, t = spec.control, spec.target
    spectators = [s for s in range(1, spec.n + 1) if s not in (c, t)]
    spectator_pairs = [p for p in pair_sites(spec.n) if p != (min(c, t), max(c, t))]

    inner = [PulseSegment((site,), ("z",), -a_d, label_d) for site in spectators]
    for i, j in spectator_pairs:
        inner.append(PulseSegment((i, j), ("z", "z"), a_d, label_d))
    inner.extend(_window_segments(spec.n, *phase))
    segments = (
        PulseSegment((t,), ("y",), a_y, label_y),
        *inner,
        PulseSegment((t,), ("y",), -a_y, label_y),
    )
    return _adjoint_segments(segments) if spec.is_adjoint else segments


def pulse_component(spec: GateSpec, timings: GateSchedule) -> np.ndarray:
    """Evaluate one component gate as the literal product of its pulses."""
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
    segments = _program_segments(_not_segments, a_z, a_x, a_pulse)
    return PulseProgram("not/1q", 1, segments, schedule.totals["T"])


def _not_segments(a_z: float, a_x: float, a_pulse: float) -> tuple[PulseSegment, ...]:
    return (
        PulseSegment((1,), ("x",), a_x, "t1"),
        PulseSegment((1,), ("z",), a_z, "t1"),
        PulseSegment((1,), ("z",), a_pulse, "t2"),
    )


def cz_program(schedule: GateSchedule) -> PulseProgram:
    """Two-qubit controlled-Z: the evolution operator of the t1 window alone."""
    window = schedule.solutions["t1"]
    segments = _program_segments(_window_segments, 2, window.label, _phase_angles(window, 2))
    return PulseProgram("cz/2q", 2, segments, schedule.totals["T"])


def cnot_program(schedule: GateSchedule) -> PulseProgram:
    """The cz window between the target-qubit y pulse of t2 and its inverse:
    the circuits' cnot component on a register with no spectator qubits,
    so with no correction pulses."""
    segments = _conjugated_window(GATE_REGISTRY["cnot"][2], schedule, ("t1", "t2"))
    return PulseProgram("cnot/2q", 2, segments, schedule.totals["T"])


def hadamard_program(schedule: GateSchedule) -> PulseProgram:
    """The inverse y pulse of the cnot t2 window, exp(-i (pi/4) sigma_y)."""
    segments = _program_segments(_hadamard_segments, _pulse_angle(schedule, "t2"))
    duration = schedule.solutions["t2"].duration
    return PulseProgram("hadamard_like/1q", 1, segments, duration)


def _hadamard_segments(a_y: float) -> tuple[PulseSegment, ...]:
    return (PulseSegment((1,), ("y",), -a_y, "t2"),)


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


# Whole gate name -> (timing table, pulse program builder, ideal target).
# The pulse of a circuit is the product of its component pulses
# (``sequence_pulse``); its builder gives the same gate as one program.
GATE_REGISTRY: dict[str, tuple[str, Callable[[GateSchedule], PulseProgram], GateSpec]] = {
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


def _registered_build(
    name: str, timings: GateSchedule | None = None
) -> tuple[np.ndarray, float]:
    """Pulse matrix and duration of a whole gate, from ``timings`` or, when
    none is given, from its table's natural-units derive-constants schedule.
    A circuit replays each distinct component once and lasts its total T.

    The default is exact for every config: a derive-constants pulse takes
    each angle from the table's witnesses, so it depends on the gate table
    alone, not on the config the schedule was solved for.
    """
    if timings is None:
        timings = gate_timing_table(GATE_REGISTRY[name][0], PhysicalConfig.natural_units())
    if name in CIRCUITS:
        pulse = sequence_pulse(CIRCUITS[name], component_pulses(timings))
        return pulse, timings.totals["T"]
    program = GATE_REGISTRY[name][1](timings)
    return program_matrix(program), program.total_time


def not_gate_1q(timings: GateSchedule | None = None) -> np.ndarray:
    """Composed single-qubit NOT; equals X up to the global phase -i.

    Without ``timings``: natural units, exact for any config (see
    ``_registered_build``)."""
    return _registered_build("not", timings)[0]


def controlled_z_2q(timings: GateSchedule | None = None) -> np.ndarray:
    """Two-qubit controlled-Z from the evolution operator alone.

    Without ``timings``: natural units, exact for any config (see
    ``_registered_build``)."""
    return _registered_build("cz", timings)[0]


def cnot_2q(timings: GateSchedule | None = None) -> np.ndarray:
    """Controlled-Z conjugated by the target-qubit y rotation.

    Without ``timings``: natural units, exact for any config (see
    ``_registered_build``)."""
    return _registered_build("cnot", timings)[0]


def compose_ccnot(timings: GateSchedule | None = None) -> np.ndarray:
    """Five-component doubly-controlled NOT on three qubits.

    Without ``timings``: natural units, exact for any config (see
    ``_registered_build``)."""
    return _registered_build("ccnot", timings)[0]


def compose_cccnot(timings: GateSchedule | None = None) -> np.ndarray:
    """Thirteen-component triply-controlled NOT on four qubits.

    Without ``timings``: natural units, exact for any config (see
    ``_registered_build``)."""
    return _registered_build("cccnot", timings)[0]


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


def circuit_component_pulses(
    configs: dict[str, PhysicalConfig],
) -> dict[GateSpec, np.ndarray]:
    """``component_pulses`` of the ccnot and then the cccnot schedule, each
    derived once, under the config ``configs`` gives its circuit; both are
    solved before any replay, so a schedule that fails costs no replay."""
    schedules = [gate_timing_table(gate, configs[gate]) for gate in CIRCUITS]
    return {spec: u for s in schedules for spec, u in component_pulses(s).items()}


def audit_components() -> list[FidelityReport]:
    """Fidelity report of every pulse component against its ideal target,
    from the natural-units schedules (the pulses are the same under any
    config)."""
    natural = dict.fromkeys(CIRCUITS, PhysicalConfig.natural_units())
    return component_reports(circuit_component_pulses(natural))


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
