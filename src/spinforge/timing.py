"""Pulse-timing congruences: solving and derivation, and per-gate schedules.

Each gate needs durations t such that several angular phases (drive
frequency, exchange strength, reference offset, drive amplitude) land on
prescribed residues modulo 2 pi simultaneously. Residue targets are exact
rational multiples of pi and all congruence algebra happens on rationals.
A constraint is a table fact; its coefficient (level * knob) is computed
from a config only where a number is needed: in the solver, for a
residual and on export. Floats appear only in durations, derived knobs,
coefficients and residuals.

Each Toffoli circuit is stated once, as its components in time order
(GateTable.circuit); its windows, component totals and total T, the
component table, the circuit sequences and the gate-name lists are
derived from it. The gate-name grammar (GateSpec, parse_gate_name) lives
here too, so gate_timing_table, the gate library and the CLI all resolve
names the same way.
"""
from __future__ import annotations

import enum
import functools
import io
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .config import PhysicalConfig

RESIDUAL_TOL = 1e-9
DEFAULT_SEARCH_BOUND = 50

# Rationalization guard for float coefficient ratios: anything that is not
# within RATIO_TOL of a fraction with denominator <= RATIO_MAX_DEN is
# treated as irrational.
RATIO_MAX_DEN = 10_000
RATIO_TOL = 1e-12


class EmptyConstraintsError(ValueError):
    """solve_timing was called with no constraints."""


class IncommensurateError(ValueError):
    """No duration satisfies all congruences within the witness bound."""


class ScheduleInfeasibleError(IncommensurateError):
    """A gate schedule could not be built; names the violated congruence."""


class ConstraintKind(enum.Enum):
    """Which physical knob a congruence constrains."""

    ZEEMAN = "zeeman"      # omega (= gamma * B0 at resonance)
    DRIVE = "drive"        # gamma * B1
    EXCHANGE = "exchange"  # J
    OFFSET = "offset"      # B'

    def knob_value(self, cfg: PhysicalConfig) -> float:
        if self is ConstraintKind.ZEEMAN:
            return cfg.omega
        if self is ConstraintKind.DRIVE:
            return cfg.gamma * cfg.b1
        if self is ConstraintKind.EXCHANGE:
            return cfg.j_coupling
        return cfg.b_prime

    @property
    def config_key(self) -> str:
        return _CONFIG_KEYS[self]


_CONFIG_KEYS = {
    ConstraintKind.ZEEMAN: "omega",
    ConstraintKind.DRIVE: "b1",
    ConstraintKind.EXCHANGE: "j",
    ConstraintKind.OFFSET: "b_prime",
}


@dataclass(frozen=True)
class TimingConstraint:
    """One congruence: level * knob * t = 2 k pi + residue, integer k.

    ``level`` is the exact factor in front of the knob (e.g. 1/2 for the
    half-angle form, 1/4 for exchange quarters), ``residue_over_pi`` the
    exact target residue as a multiple of pi, and ``min_witness`` the
    smallest admissible integer k. A constraint is a table fact; its
    coefficient (level * knob, rad/s) belongs to a config.
    """

    kind: ConstraintKind
    level: Fraction
    residue_over_pi: Fraction
    description: str = ""
    min_witness: int = 1

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError(f"level must be positive, got {self.level}")
        if not -2 < self.residue_over_pi < 2:
            raise ValueError(
                f"residue {self.residue_over_pi}*pi outside (-2*pi, 2*pi)"
            )
        if self.min_witness < 0:
            raise ValueError(f"min_witness must be >= 0, got {self.min_witness}")

    def coefficient_in(self, cfg: PhysicalConfig) -> float:
        """level * knob (rad/s) under ``cfg``."""
        return float(self.level) * self.kind.knob_value(cfg)


@dataclass(frozen=True)
class TimingWitness:
    """A constraint together with its chosen integer k."""

    constraint: TimingConstraint
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"witness must be >= 0, got {self.k}")

    # The exact phases and their float forms are worked out once per
    # witness; a gate table's witnesses serve every config.

    @functools.cached_property
    def phase_over_pi(self) -> Fraction:
        """Exact (level * knob * t) / pi = 2k + residue."""
        return 2 * self.k + self.constraint.residue_over_pi

    @functools.cached_property
    def knob_phase_over_pi(self) -> Fraction:
        """Exact (knob * t) / pi."""
        return self.phase_over_pi / self.constraint.level

    @functools.cached_property
    def phase_float(self) -> float:
        """float(phase_over_pi)."""
        return float(self.phase_over_pi)

    @functools.cached_property
    def level_float(self) -> float:
        """float(constraint.level)."""
        return float(self.constraint.level)


@dataclass(frozen=True)
class TimingSolution:
    """A duration plus the integer witnesses of every congruence it meets."""

    label: str
    duration: float
    witnesses: tuple[TimingWitness, ...]
    residual: float

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration {self.duration!r} s is not positive and finite")
        if not self.residual <= RESIDUAL_TOL:
            raise ValueError(
                f"residual {self.residual:.3e} exceeds {RESIDUAL_TOL:.0e} rad"
            )

    def witness_for(self, kind: ConstraintKind) -> TimingWitness | None:
        for w in self.witnesses:
            if w.constraint.kind is kind:
                return w
        return None

    def knob_phase_over_pi(self, kind: ConstraintKind) -> Fraction | None:
        w = self.witness_for(kind)
        return None if w is None else w.knob_phase_over_pi


def _rationalize(x: float) -> Fraction | None:
    if not math.isfinite(x):
        return None  # a subnormal reference coefficient overflows the ratio
    frac = Fraction(x).limit_denominator(RATIO_MAX_DEN)
    if abs(x - float(frac)) <= RATIO_TOL * max(1.0, abs(x)):
        return frac
    return None


def _max_residual(duration: float, terms: Iterable[tuple[float, float]]) -> float:
    """The largest |coefficient * duration - phase * pi| over (coefficient, phase) terms."""
    worst = 0.0
    for coefficient, phase in terms:
        worst = max(worst, abs(coefficient * duration - phase * math.pi))
    return worst


def solve_timing(
    constraints: list[TimingConstraint],
    cfg: PhysicalConfig,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    *,
    label: str = "t",
) -> TimingSolution:
    """Find the smallest duration meeting every congruence simultaneously.

    Each constraint's coefficient is its level times its knob in ``cfg``.
    The system is solved exactly when all coefficient ratios are rational:
    the witness of the smallest-coefficient constraint is enumerated upward
    and the other witnesses are derived on exact fractions, so the first hit
    is minimal. Irrational ratios, or exhaustion of the witness bound, raise
    IncommensurateError.
    """
    if not constraints:
        raise EmptyConstraintsError("at least one timing constraint is required")
    if search_bound < 1:
        raise ValueError(f"search_bound must be >= 1, got {search_bound}")

    trivial: list[TimingWitness] = []
    active: list[tuple[TimingConstraint, float]] = []
    for c in constraints:
        coefficient = c.coefficient_in(cfg)
        if coefficient == 0.0:
            if c.residue_over_pi != 0:
                raise IncommensurateError(
                    f"zero coefficient cannot reach residue "
                    f"{c.residue_over_pi}*pi ({c.description})"
                )
            trivial.append(TimingWitness(c, 0))
        else:
            active.append((c, coefficient))
    if not active:
        raise IncommensurateError(
            "all coefficients are zero; no duration is determined"
        )

    ref, ref_coeff = min(active, key=lambda pair: pair[1])
    others = [(c, coeff) for c, coeff in active if c is not ref]
    ratios: list[Fraction] = []
    for c, coeff in others:
        ratio = _rationalize(coeff / ref_coeff)
        if ratio is None:
            raise IncommensurateError(
                f"coefficient ratio {coeff / ref_coeff!r} of "
                f"({c.description or c.kind.value}) vs "
                f"({ref.description or ref.kind.value}) is not rational"
            )
        ratios.append(ratio)

    blockers: dict[str, int] = {}
    for k_ref in range(max(ref.min_witness, 0), search_bound + 1):
        phase_ref = 2 * k_ref + ref.residue_over_pi
        if phase_ref <= 0:
            continue
        witnesses = [TimingWitness(ref, k_ref)]
        ok = True
        for (c, _), ratio in zip(others, ratios):
            k_frac = (ratio * phase_ref - c.residue_over_pi) / 2
            if k_frac.denominator != 1 or not (
                c.min_witness <= k_frac <= search_bound
            ):
                name = c.description or c.kind.value
                blockers[name] = blockers.get(name, 0) + 1
                ok = False
                break
            witnesses.append(TimingWitness(c, int(k_frac)))
        if not ok:
            continue
        duration = float(phase_ref) * math.pi / ref_coeff
        coefficients = (ref_coeff, *(coeff for _, coeff in others))
        residual = _max_residual(
            duration, zip(coefficients, (w.phase_float for w in witnesses))
        )
        return TimingSolution(label, duration, (*witnesses, *trivial), residual)

    detail = ""
    if blockers:
        worst = max(blockers, key=blockers.get)
        detail = f"; most often violated: {worst}"
    raise IncommensurateError(
        f"no simultaneous solution with witnesses <= {search_bound}{detail}"
    )


# ---------------------------------------------------------------------------
# Pulse programs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseSegment:
    """One pulse: exp(i * angle * P) for a Pauli string P over sites.

    Empty ``sites`` means a scalar phase factor exp(i * angle).
    """

    sites: tuple[int, ...]
    axes: tuple[str, ...]
    angle: float
    duration_label: str = ""


@dataclass(frozen=True)
class PulseProgram:
    """Time-ordered pulse list; right-to-left replay reproduces the gate."""

    gate_label: str
    n: int
    segments: tuple[PulseSegment, ...]
    total_time: float


# ---------------------------------------------------------------------------
# Gate timing tables
# ---------------------------------------------------------------------------

def _c(
    kind: ConstraintKind,
    level: str,
    residue: str,
    min_witness: int,
    description: str,
) -> TimingConstraint:
    return TimingConstraint(
        kind=kind,
        level=Fraction(level),
        residue_over_pi=Fraction(residue),
        description=description,
        min_witness=min_witness,
    )


def _term(residue: str) -> str:
    """The residue term of a description: '+ pi/4', '- pi/8'."""
    frac = Fraction(residue)
    return f"{'-' if frac < 0 else '+'} pi/{frac.denominator}"


def _phase_window(residue: str, drive_level: str) -> tuple[TimingConstraint, ...]:
    """omega*t/2, J*t/4 and B'*t land on one residue; the drive turns whole."""
    term = _term(residue)
    drive = "gamma*B1*t/2" if drive_level == "1/2" else "gamma*B1*t"
    return (
        _c(ConstraintKind.ZEEMAN, "1/2", residue, 1, f"omega*t/2 = 2n*pi {term}"),
        _c(ConstraintKind.EXCHANGE, "1/4", residue, 1, f"J*t/4 = 2m*pi {term}"),
        _c(ConstraintKind.OFFSET, "1", residue, 1, f"B'*t = 2p*pi {term}"),
        _c(ConstraintKind.DRIVE, drive_level, "0", 0, f"{drive} = 2m*pi"),
    )


def _free_pulse(residue: str, witness: str) -> tuple[TimingConstraint, ...]:
    text = f"omega*t/2 = 2{witness}*pi {_term(residue)}"
    return (_c(ConstraintKind.ZEEMAN, "1/2", residue, 1, text),)


def _cz_window() -> tuple[TimingConstraint, ...]:
    return (
        _c(ConstraintKind.ZEEMAN, "1", "1/2", 1, "omega*t = 2n*pi + pi/2"),
        _c(ConstraintKind.EXCHANGE, "1", "1", 0, "J*t = (2p+1)*pi"),
        _c(ConstraintKind.OFFSET, "1", "1/4", 0, "B'*t = (2q+1/4)*pi"),
        _c(ConstraintKind.DRIVE, "1", "0", 0, "gamma*B1*t = 2m*pi"),
    )


def _quarter_turn_pulse() -> tuple[TimingConstraint, ...]:
    return (_c(ConstraintKind.ZEEMAN, "1", "1/2", 0, "omega*t = pi/2"),)


@dataclass(frozen=True)
class GateTable:
    """A gate's timing windows and weighted totals. A Toffoli circuit's
    ``circuit`` rows (kind, control, target, total) list its components in
    time order; every other statement of them is derived from these rows."""

    windows: tuple[tuple[str, tuple[TimingConstraint, ...]], ...]
    totals: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]
    circuit: tuple[tuple[str, int, int, str], ...] = ()

    @functools.cached_property
    def first_window(self) -> dict[str, str]:
        """Each window label -> the first window label with equal constraints."""
        first: dict[tuple[TimingConstraint, ...], str] = {}
        return {label: first.setdefault(cons, label) for label, cons in self.windows}

    @functools.cached_property
    def derive_witnesses(self) -> dict[str, tuple[TimingWitness, ...]]:
        """Each distinct window label -> its derive-constants witnesses, clock first.

        The witnesses and their exact phases depend on the table alone, so
        they are worked out once; a config only scales them.
        """
        return {
            label: _window_witnesses(cons)
            for label, cons in self.windows
            if self.first_window[label] == label
        }


def _window_witnesses(
    constraints: tuple[TimingConstraint, ...],
) -> tuple[TimingWitness, ...]:
    """The derive-constants witnesses of one window, clock first.

    The clock (Zeeman) constraint takes its least witness with a positive
    phase; so does every other one, except a whole-turn constraint whose
    least witness is 0.
    """
    clock = next(c for c in constraints if c.kind is ConstraintKind.ZEEMAN)
    witnesses = []
    for c in (clock, *[other for other in constraints if other is not clock]):
        k = c.min_witness
        if c is clock or not (c.residue_over_pi == 0 and c.min_witness == 0):
            while 2 * k + c.residue_over_pi <= 0:
                k += 1
        witnesses.append(TimingWitness(c, k))
    return tuple(witnesses)


def _circuit_table(n: int, drive_level: str, circuit) -> GateTable:
    """A circuit's table from its register size, its phase windows' drive
    level and its circuit rows (kind, control, target, total).

    Each total, at its first use, owns one component's windows in order:
    the phase window (residue -1/2^n; a cnot's is 1/4), weight 1; the
    target's y pulse, weight 2; and the correction pulse (residue -1/2^n),
    weight m, one pulse per spectator site and per spectator pair; a cnot
    times its corrections by its y window, of weight 2 + m. T weights each
    component total by its number of uses, in order of first use.
    """
    m = (n - 2) + (math.comb(n, 2) - 1)
    residue = f"-1/{2**n}"
    y, d = _free_pulse("1/4", "m"), _free_pulse(residue, "n")
    windows: list[tuple[str, tuple[TimingConstraint, ...]]] = []
    totals: dict[str, tuple[tuple[str, int], ...]] = {}
    for kind, _, _, total in circuit:
        if total in totals:
            continue
        cnot = kind == "cnot"  # its corrections run on its y window
        phase = _phase_window("1/4" if cnot else residue, drive_level)
        owned = ((phase, 1), (y, 2 + m)) if cnot else ((phase, 1), (y, 2), (d, m))
        terms = []
        for constraints, weight in owned:
            windows.append((f"t{len(windows) + 1}", constraints))
            terms.append((windows[-1][0], weight))
        totals[total] = tuple(terms)
    uses = Counter(total for *_, total in circuit)
    return GateTable(
        tuple(windows), (*totals.items(), ("T", tuple(uses.items()))), circuit
    )


GATE_TABLES: dict[str, GateTable] = {
    "not": GateTable(
        windows=(
            (
                "t1",
                (
                    _c(ConstraintKind.ZEEMAN, "1/2", "1/2", 1,
                       "gamma*B0*t/2 = 2n*pi + pi/2"),
                    _c(ConstraintKind.DRIVE, "1/2", "1/2", 0,
                       "gamma*B1*t/2 = 2m*pi + pi/2"),
                ),
            ),
            ("t2", _quarter_turn_pulse()),
        ),
        totals=(("T", (("t1", 1), ("t2", 1))),),
    ),
    "cz": GateTable(
        windows=(("t1", _cz_window()),),
        totals=(("T", (("t1", 1),)),),
    ),
    "cnot": GateTable(
        windows=(("t1", _cz_window()), ("t2", _quarter_turn_pulse())),
        totals=(("T", (("t1", 1), ("t2", 2))),),
    ),
    "ccnot": _circuit_table(3, "1/2", (
        ("cx_half", 2, 3, "T1"),
        ("cnot", 1, 2, "T2"),
        ("cx_neg_half", 2, 3, "T1"),
        ("cnot", 1, 2, "T2"),
        ("cx_half", 1, 3, "T3"),
    )),
    "cccnot": _circuit_table(4, "1", (
        ("cx_quarter", 1, 4, "T1"),
        ("cnot", 1, 2, "T2"),
        ("cx_neg_quarter", 2, 4, "T3"),
        ("cnot", 1, 2, "T2"),
        ("cx_quarter", 2, 4, "T3"),
        ("cnot", 2, 3, "T4"),
        ("cx_neg_quarter", 3, 4, "T5"),
        ("cnot", 1, 3, "T6"),
        ("cx_quarter", 3, 4, "T5"),
        ("cnot", 2, 3, "T4"),
        ("cx_neg_quarter", 3, 4, "T5"),
        ("cnot", 1, 3, "T6"),
        ("cx_quarter", 3, 4, "T5"),
    )),
}

COMPONENT_PARENT_GATE = {3: "ccnot", 4: "cccnot"}

X_POWER_ALPHA = {
    "cx_half": 0.5,
    "cx_neg_half": -0.5,
    "cx_quarter": 0.25,
    "cx_neg_quarter": -0.25,
}

ADJOINT_BASE = {"cx_neg_half": "cx_half", "cx_neg_quarter": "cx_quarter"}

# Gates built whole, by name alone; every other kind is a component.
WHOLE_GATES = (*GATE_TABLES, "hadamard_like")

GATE_KINDS = (*WHOLE_GATES, *X_POWER_ALPHA)

# Each component gate, keyed by (n, base kind, control, target) in order of
# first use: the labels of its windows (its total's terms) and that total.
COMPONENT_TABLE: dict[tuple[int, str, int, int], tuple[tuple[str, ...], str]] = {
    (n, ADJOINT_BASE.get(kind, kind), c, t): (
        tuple(label for label, _ in dict(GATE_TABLES[gate].totals)[total]),
        total,
    )
    for n, gate in COMPONENT_PARENT_GATE.items()
    for kind, c, t, total in GATE_TABLES[gate].circuit
}


@dataclass(frozen=True)
class GateSpec:
    """A gate kind with optional control/target sites in an n-qubit register."""

    kind: str
    control: int | None = None
    target: int | None = None
    n: int = 1

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if not 1 <= self.n <= 4:
            raise ValueError(f"system size {self.n} outside 1..4")
        for site in (self.control, self.target):
            if site is not None and not 1 <= site <= self.n:
                raise ValueError(f"site {site} outside 1..{self.n}")
        if self.control is not None and self.control == self.target:
            raise ValueError("control and target must differ")

    @property
    def base_kind(self) -> str:
        return ADJOINT_BASE.get(self.kind, self.kind)

    @property
    def is_adjoint(self) -> bool:
        return self.kind in ADJOINT_BASE

    @property
    def label(self) -> str:
        if self.control is not None and self.target is not None:
            return f"{self.kind}({self.control},{self.target})/{self.n}q"
        return f"{self.kind}/{self.n}q"


# Circuit gate name -> its component sequence, 3q before 4q.
CIRCUITS: dict[str, tuple[GateSpec, ...]] = {
    gate: tuple(GateSpec(kind, c, t, n) for kind, c, t, _ in GATE_TABLES[gate].circuit)
    for n, gate in COMPONENT_PARENT_GATE.items()
}


def parse_gate_name(text: str) -> GateSpec | str:
    """Parse a gate name: a whole gate or a component 'kind:control,target[@n]'.

    Whole gates come back as their lower-case name, components as a
    GateSpec. Without '@n' a component takes the smallest register whose
    circuit contains it.
    """
    name = text.strip().lower()
    if ":" not in name:
        if name in WHOLE_GATES:
            return name
        raise ValueError(
            f"unknown gate {text!r}; expected one of {list(WHOLE_GATES)} "
            "or a component like 'cx_half:2,3'"
        )
    kind, _, rest = name.partition(":")
    if kind not in GATE_KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    sites, _, n_text = rest.partition("@")
    try:
        control, target = (int(s) for s in sites.split(","))
        sizes = (int(n_text),) if n_text else tuple(COMPONENT_PARENT_GATE)
    except ValueError:
        raise ValueError(f"expected 'kind:control,target[@n]', got {text!r}") from None
    base = ADJOINT_BASE.get(kind, kind)
    for n in sizes:
        if (n, base, control, target) in COMPONENT_TABLE:
            return GateSpec(kind, control, target, n)
    raise ValueError(f"no pulse construction for component {text!r}")


DERIVE_CONSTANTS = "derive-constants"
SHARED_CONSTANTS = "shared-constants"


@dataclass(frozen=True)
class GateSchedule:
    """All timing solutions for one gate, plus totals and derived knobs."""

    gate: str
    mode: str
    cfg: PhysicalConfig
    solutions: dict[str, TimingSolution]
    totals: dict[str, float]
    derived: dict[str, dict[str, float]] = field(default_factory=dict)
    flags: dict[str, object] = field(default_factory=dict)

    def window_config(self, label: str) -> PhysicalConfig:
        """Config with this window's derived constants applied."""
        deltas = self.derived.get(label)
        return self.cfg.with_derived(deltas) if deltas else self.cfg

    def to_json_dict(self) -> dict:
        windows = []
        for label, sol in self.solutions.items():
            cfg = self.window_config(label)
            rows = []
            for w in sol.witnesses:
                rows.append(
                    {
                        "kind": w.constraint.kind.value,
                        "description": w.constraint.description,
                        "level": str(w.constraint.level),
                        "residue_over_pi": str(w.constraint.residue_over_pi),
                        "witness": w.k,
                        "coefficient": w.constraint.coefficient_in(cfg),
                    }
                )
            windows.append(
                {
                    "segment": label,
                    "duration_seconds": sol.duration,
                    "residual_rad": sol.residual,
                    "constraints": rows,
                    "derived": self.derived.get(label, {}),
                }
            )
        return {
            "gate": self.gate,
            "mode": self.mode,
            "config": self.cfg.to_json_dict(),
            "windows": windows,
            "totals": self.totals,
            "flags": self.flags,
        }

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write("gate,segment,coefficient,residue,witness,duration_seconds\n")
        for label, sol in self.solutions.items():
            cfg = self.window_config(label)
            for w in sol.witnesses:
                residue = w.constraint.residue_over_pi
                residue_text = "0" if residue == 0 else f"{residue}*pi"
                out.write(
                    f"{self.gate},{label},{w.constraint.coefficient_in(cfg)!r},"
                    f"{residue_text},{w.k},{sol.duration!r}\n"
                )
        for name, value in self.totals.items():
            out.write(f"{self.gate},{name},,,,{value!r}\n")
        return out.getvalue()


def _derive_window(
    label: str, witnesses: tuple[TimingWitness, ...], cfg: PhysicalConfig
) -> tuple[TimingSolution, dict[str, float]]:
    """Solve a window from its table witnesses (clock first) and a config, in floats only.

    The clock fixes the duration t; every other knob is phase * pi / (level * t),
    per unit of its config value: gamma for the drive (B1), else an exact 1.0.
    The solution holds the table's own witnesses.
    """
    clock, others = witnesses[0], witnesses[1:]
    coefficient = clock.level_float * clock.constraint.kind.knob_value(cfg)
    # A coefficient that underflows to 0 stands for a duration past the float range.
    duration = clock.phase_float * math.pi / coefficient if coefficient else math.inf

    deltas: dict[str, float] = {}
    terms = [(coefficient, clock.phase_float)]
    for w in others:
        kind = w.constraint.kind
        per_unit = cfg.gamma if kind is ConstraintKind.DRIVE else 1.0
        value = w.phase_float * math.pi / (w.level_float * duration) / per_unit
        if not math.isfinite(value):
            raise ValueError(f"derived {kind.config_key} = {value!r} is not finite")
        deltas[kind.config_key] = value
        terms.append((w.level_float * (per_unit * value), w.phase_float))

    solution = TimingSolution(label, duration, witnesses, _max_residual(duration, terms))
    return solution, deltas


def gate_timing_table(
    gate: str,
    cfg: PhysicalConfig,
    mode: str = DERIVE_CONSTANTS,
    search_bound: int = DEFAULT_SEARCH_BOUND,
) -> GateSchedule:
    """Build the full timing schedule for a gate.

    In derive-constants mode the drive frequency fixes each duration and
    the remaining knobs (J, B', B1) are tuned to their congruences per
    window. In shared-constants mode every knob comes from ``cfg`` and the
    simultaneous system is solved outright; infeasibility is reported with
    the violated congruence named; a coupled window with b1 > 0 is infeasible
    there, as the drive does not commute with the exchange.

    Component names like ``cx_half:2,3`` resolve to the parent circuit's
    table, which contains the component's windows and aggregate totals.
    """
    parsed = parse_gate_name(gate)
    name = parsed if isinstance(parsed, str) else COMPONENT_PARENT_GATE[parsed.n]
    if name not in GATE_TABLES:
        raise ValueError(f"gate {gate!r} has no timing table of its own")
    if mode not in (DERIVE_CONSTANTS, SHARED_CONSTANTS):
        raise ValueError(f"unknown mode {mode!r}")
    if cfg.omega <= 0:
        raise ValueError("schedules need a positive drive frequency omega")
    if not cfg.at_resonance:
        raise ValueError("schedules are defined at resonance (omega = gamma*b0)")
    if search_bound < 1:
        raise ValueError(f"search_bound must be >= 1, got {search_bound}")

    table = GATE_TABLES[name]
    solutions: dict[str, TimingSolution] = {}
    derived: dict[str, dict[str, float]] = {}
    for label, constraints in table.windows:
        first = table.first_window[label]
        if first != label:
            sol = solutions[first]
            solutions[label] = TimingSolution(label, sol.duration, sol.witnesses, sol.residual)
            if first in derived:
                derived[label] = dict(derived[first])
            continue
        if mode == SHARED_CONSTANTS and cfg.b1 > 0 and any(
            c.kind is ConstraintKind.EXCHANGE for c in constraints
        ):
            raise ScheduleInfeasibleError(
                f"{name} window {label} is infeasible with the shared constants: "
                f"b1 = {cfg.b1!r} drives the coupled spins, and the drive does "
                "not commute with the exchange"
            )
        try:
            if mode == DERIVE_CONSTANTS:
                sol, deltas = _derive_window(label, table.derive_witnesses[label], cfg)
                if deltas:
                    derived[label] = deltas
            else:
                sol = solve_timing(constraints, cfg, search_bound, label=label)
        except IncommensurateError as exc:
            raise ScheduleInfeasibleError(
                f"{name} window {label} is infeasible with the shared "
                f"constants: {exc}"
            ) from exc
        except ValueError as exc:
            raise ValueError(f"{name} window {label}: {exc}") from exc
        solutions[label] = sol

    totals: dict[str, float] = {}
    for total_label, terms in table.totals:
        value = 0.0
        for ref, weight in terms:
            base = totals[ref] if ref in totals else solutions[ref].duration
            value += weight * base
        if not math.isfinite(value):
            raise ValueError(f"{name} total {total_label} = {value!r} s is not finite")
        totals[total_label] = value

    flags: dict[str, object] = {}
    if mode == DERIVE_CONSTANTS:
        j_values = {
            label: deltas["j"] for label, deltas in derived.items() if "j" in deltas
        }
        if j_values:
            values = list(j_values.values())
            spread = max(values) - min(values)
            flags["shared_j_consistent"] = bool(
                spread <= 1e-12 * max(abs(v) for v in values)
            )
            flags["derived_j_values"] = j_values

    return GateSchedule(
        gate=name,
        mode=mode,
        cfg=cfg,
        solutions=solutions,
        totals=totals,
        derived=derived,
        flags=flags,
    )
