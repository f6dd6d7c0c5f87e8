"""Tests for the congruence solver and gate timing tables."""

import contextlib
import io
import json
import math
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinforge import gates, timing
from spinforge.cli import main
from spinforge.config import GAMMA_ELECTRON, PhysicalConfig
from spinforge.timing import (
    RATIO_MAX_DEN,
    RATIO_TOL,
    ConstraintKind,
    EmptyConstraintsError,
    IncommensurateError,
    ScheduleInfeasibleError,
    TimingConstraint,
    TimingSolution,
    TimingWitness,
    RESIDUAL_TOL,
    gate_timing_table,
    _rationalize,
    solve_timing,
)

PI = math.pi


def constraint(kind, level, residue, min_witness=1, text=""):
    return TimingConstraint(
        kind=kind,
        level=Fraction(level),
        residue_over_pi=Fraction(residue),
        description=text,
        min_witness=min_witness,
    )


def reference_coefficient(c, cfg, derived=None):
    """float(level) x knob, the knob read from ``derived`` (keyed as in
    config files) before ``cfg``: the coefficient an export must carry."""
    derived = derived or {}
    knob = {
        ConstraintKind.ZEEMAN: cfg.omega,
        ConstraintKind.DRIVE: cfg.gamma * derived.get("b1", cfg.b1),
        ConstraintKind.EXCHANGE: derived.get("j", cfg.j_coupling),
        ConstraintKind.OFFSET: derived.get("b_prime", cfg.b_prime),
    }[c.kind]
    return float(c.level) * knob


def brute_force_minimum(constraints, cfg, bound=50, tol=1e-9):
    """Independent oracle: intersect the per-constraint duration sets."""
    candidate_sets = []
    for c in constraints:
        coefficient = reference_coefficient(c, cfg)
        if coefficient == 0:
            continue
        durations = {
            k: (2 * k + float(c.residue_over_pi)) * PI / coefficient
            for k in range(c.min_witness, bound + 1)
            if 2 * k + float(c.residue_over_pi) > 0
        }
        candidate_sets.append(sorted(durations.values()))
    best = None
    for t in candidate_sets[0]:
        if all(any(abs(t - s) <= tol for s in other) for other in candidate_sets[1:]):
            best = t
            break
    return best


NATURAL = PhysicalConfig.natural_units()


class TestSolveTiming:
    def test_single_constraint_smallest_witness(self):
        c = constraint(ConstraintKind.ZEEMAN, 1, "1/4")
        sol = solve_timing([c], NATURAL)
        assert sol.duration == pytest.approx(2 * PI + PI / 4, abs=1e-12)
        assert sol.witnesses[0].k == 1

    def test_worked_two_qubit_system(self):
        # omega = 1, J = 0.4, B' = 0.1: the clock's witness 1 gives
        # t1 = 5*pi/2, where J*t = pi and B'*t = pi/4 meet at witness 0.
        cs = [
            constraint(ConstraintKind.ZEEMAN, 1, "1/2"),
            constraint(ConstraintKind.EXCHANGE, 1, 1, min_witness=0),
            constraint(ConstraintKind.OFFSET, 1, "1/4", min_witness=0),
        ]
        sol = solve_timing(cs, PhysicalConfig.natural_units(j_coupling=0.4, b_prime=0.1))
        assert sol.duration == pytest.approx(5 * PI / 2, abs=1e-12)
        assert [sol.witness_for(c.kind).k for c in cs] == [1, 0, 0]
        assert sol.residual <= 1e-12

    def test_the_solution_holds_the_given_constraints(self):
        cs = [
            constraint(ConstraintKind.ZEEMAN, 1, "1/2"),
            constraint(ConstraintKind.EXCHANGE, 1, 1, min_witness=0),
            constraint(ConstraintKind.DRIVE, 1, 0, min_witness=0),
        ]
        sol = solve_timing(cs, PhysicalConfig.natural_units(j_coupling=0.4))
        assert len(sol.witnesses) == len(cs)
        for c in cs:
            assert sol.witness_for(c.kind).constraint is c

    def test_irrational_ratio_is_incommensurate(self):
        c1 = constraint(ConstraintKind.ZEEMAN, 1, "1/2")
        c2 = constraint(ConstraintKind.EXCHANGE, 1, "1/2")
        with pytest.raises(IncommensurateError, match="not rational"):
            solve_timing([c1, c2], PhysicalConfig.natural_units(j_coupling=math.sqrt(2)))

    def test_empty_constraints_rejected(self):
        with pytest.raises(EmptyConstraintsError):
            solve_timing([], NATURAL)

    def test_bound_exhaustion_names_blocker(self):
        c1 = constraint(ConstraintKind.ZEEMAN, 1, "1/2")
        # Rational but never simultaneously satisfiable with witness <= 5:
        # second needs (3/2)(2k + 1/2) - 1/2 even, i.e. 3k + 1/4 integer.
        c2 = constraint(ConstraintKind.OFFSET, 1, "1/2", text="offset congruence")
        with pytest.raises(IncommensurateError, match="offset congruence"):
            solve_timing([c1, c2], PhysicalConfig.natural_units(b_prime=1.5), search_bound=5)

    def test_zero_coefficient_with_zero_residue_is_trivial(self):
        quiet = constraint(ConstraintKind.DRIVE, 1, 0, min_witness=0)
        clock = constraint(ConstraintKind.ZEEMAN, 1, "1/2")
        sol = solve_timing([clock, quiet], NATURAL)
        drive = sol.witness_for(ConstraintKind.DRIVE)
        assert drive.k == 0

    def test_zero_coefficient_with_residue_rejected(self):
        bad = constraint(ConstraintKind.DRIVE, 1, "1/2")
        with pytest.raises(IncommensurateError, match="zero coefficient"):
            solve_timing([bad], NATURAL)

    def test_minimality_against_brute_force(self):
        # Shared constants make a nontrivial simultaneous system.
        cs = [
            constraint(ConstraintKind.ZEEMAN, 1, "1/2"),
            constraint(ConstraintKind.EXCHANGE, 1, 1, min_witness=0),
            constraint(ConstraintKind.OFFSET, 1, "1/4", min_witness=0),
        ]
        cfg = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5)
        sol = solve_timing(cs, cfg)
        expected = brute_force_minimum(cs, cfg)
        assert expected is not None
        assert sol.duration == pytest.approx(expected, abs=1e-9)
        assert sol.duration == pytest.approx(9 * PI / 2, abs=1e-12)


DERIVE_CONFIGS = {
    "natural": PhysicalConfig.natural_units(),
    "si": PhysicalConfig(b0=0.37, omega=GAMMA_ELECTRON * 0.37),
    "j-b-prime": PhysicalConfig.natural_units(j_coupling=0.3, b_prime=0.2),
}


class TestDerivedConstants:
    """Derive-constants mode: each derived knob meets its own congruence."""

    @pytest.mark.parametrize("config", DERIVE_CONFIGS)
    @pytest.mark.parametrize("gate", list(timing.GATE_TABLES))
    def test_every_derived_knob_meets_its_constraint(self, gate, config):
        sched = gate_timing_table(gate, DERIVE_CONFIGS[config])
        for label, sol in sched.solutions.items():
            window = sched.window_config(label)
            for w in sol.witnesses:
                c = w.constraint
                phase = float(c.level) * c.kind.knob_value(window) * sol.duration
                target = float(2 * w.k + c.residue_over_pi) * PI
                assert abs(phase - target) <= RESIDUAL_TOL, (label, c.description)

    @pytest.mark.parametrize("config", DERIVE_CONFIGS)
    def test_not_drive_amplitude_is_a_half_turn(self, config):
        # gamma*B1*t1/2 = pi/2 at witness 0, so B1 = pi / (gamma*t1).
        cfg = DERIVE_CONFIGS[config]
        sched = gate_timing_table("not", cfg)
        t1 = sched.solutions["t1"].duration
        assert sched.derived["t1"]["b1"] == pytest.approx(PI / (cfg.gamma * t1), rel=1e-15)


class TestGateTables:
    @pytest.fixture
    def cfg(self):
        return PhysicalConfig.natural_units()

    def test_not_gate_rows(self, cfg):
        sched = gate_timing_table("not", cfg)
        assert list(sched.solutions) == ["t1", "t2"]
        # The closing pulse is pinned to a quarter turn of the drive frame.
        assert sched.solutions["t2"].duration == pytest.approx(
            PI / (2 * cfg.omega), abs=1e-15
        )
        assert sched.totals["T"] == pytest.approx(
            sched.solutions["t1"].duration + sched.solutions["t2"].duration
        )

    def test_cz_worked_example(self, cfg):
        sched = gate_timing_table("cz", cfg)
        sol = sched.solutions["t1"]
        assert sol.duration == pytest.approx(5 * PI / 2, abs=1e-12)
        assert sched.derived["t1"]["j"] == pytest.approx(0.4, abs=1e-13)
        assert sched.derived["t1"]["b_prime"] == pytest.approx(0.1, abs=1e-13)
        assert sched.derived["t1"]["b1"] == 0.0

    def test_cnot_totals(self, cfg):
        sched = gate_timing_table("cnot", cfg)
        t1 = sched.solutions["t1"].duration
        t2 = sched.solutions["t2"].duration
        assert t2 == pytest.approx(PI / 2, abs=1e-15)
        assert sched.totals["T"] == pytest.approx(t1 + 2 * t2)

    def test_ccnot_table_shape_and_totals(self, cfg):
        sched = gate_timing_table("ccnot", cfg)
        assert list(sched.solutions) == [f"t{i}" for i in range(1, 9)]
        d = {k: s.duration for k, s in sched.solutions.items()}
        assert sched.totals["T1"] == pytest.approx(d["t1"] + 2 * d["t2"] + 3 * d["t3"])
        assert sched.totals["T2"] == pytest.approx(d["t4"] + 5 * d["t5"])
        assert sched.totals["T3"] == pytest.approx(d["t6"] + 2 * d["t7"] + 3 * d["t8"])
        assert sched.totals["T"] == pytest.approx(
            2 * sched.totals["T1"] + 2 * sched.totals["T2"] + sched.totals["T3"]
        )

    def test_cccnot_table_shape_and_totals(self, cfg):
        sched = gate_timing_table("cccnot", cfg)
        assert list(sched.solutions) == [f"t{i}" for i in range(1, 16)]
        d = {k: s.duration for k, s in sched.solutions.items()}
        t = sched.totals
        assert t["T1"] == pytest.approx(d["t1"] + 2 * d["t2"] + 7 * d["t3"])
        assert t["T2"] == pytest.approx(d["t4"] + 9 * d["t5"])
        assert t["T5"] == pytest.approx(d["t11"] + 2 * d["t12"] + 7 * d["t13"])
        assert t["T"] == pytest.approx(
            t["T1"] + 2 * t["T2"] + 2 * t["T3"] + 2 * t["T4"] + 4 * t["T5"] + 2 * t["T6"]
        )

    @pytest.mark.parametrize("gate", ["not", "cz", "cnot", "ccnot", "cccnot"])
    def test_all_residuals_tiny(self, cfg, gate):
        sched = gate_timing_table(gate, cfg)
        for sol in sched.solutions.values():
            assert sol.residual <= 1e-9

    @pytest.mark.parametrize("gate", ["ccnot", "cccnot"])
    def test_derive_mode_minimality_per_window(self, cfg, gate):
        sched = gate_timing_table(gate, cfg)
        for label, sol in sched.solutions.items():
            witnesses = {w.constraint.kind: w for w in sol.witnesses}
            clock = witnesses[ConstraintKind.ZEEMAN]
            best = brute_force_minimum([clock.constraint], sched.window_config(label))
            assert best is not None
            assert sol.duration == pytest.approx(best, abs=1e-9), label

    def test_derived_constants_strictly_positive_for_windows(self, cfg):
        sched = gate_timing_table("ccnot", cfg)
        for label in ("t1", "t4", "t6"):
            deltas = sched.derived[label]
            assert deltas["j"] > 0
            assert deltas["b_prime"] > 0
            assert deltas["b1"] == 0.0

    def test_shared_j_flag_reported(self, cfg):
        sched = gate_timing_table("ccnot", cfg)
        assert "shared_j_consistent" in sched.flags
        assert set(sched.flags["derived_j_values"]) == {"t1", "t4", "t6"}

    def test_shared_mode_solves_feasible_constants(self):
        cfg = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5)
        sched = gate_timing_table("cz", cfg, mode="shared-constants")
        sol = sched.solutions["t1"]
        assert sol.duration == pytest.approx(9 * PI / 2, abs=1e-12)
        assert sol.residual <= 1e-9

    def test_shared_mode_brute_force_minimality(self):
        cfg = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5)
        sched = gate_timing_table("ccnot", cfg, mode="shared-constants")
        for label, sol in sched.solutions.items():
            best = brute_force_minimum([w.constraint for w in sol.witnesses], cfg)
            assert best is not None
            assert sol.duration == pytest.approx(best, rel=1e-9), label

    def test_shared_mode_infeasible_names_window(self):
        cfg = PhysicalConfig.natural_units(j_coupling=math.sqrt(2), b_prime=0.5)
        with pytest.raises(ScheduleInfeasibleError, match="t1"):
            gate_timing_table("cz", cfg, mode="shared-constants")

    def test_shared_mode_with_active_drive(self):
        # gamma*B1 = 4/9 would meet its congruence at t1 = 9*pi/2 with
        # witness 1, but the drive does not commute with the exchange, so
        # the factored window would be wrong by order one.
        cfg = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5, b1=4 / 9)
        with pytest.raises(
            ScheduleInfeasibleError, match=r"^cz window t1 .*does not commute with the exchange$"
        ):
            gate_timing_table("cz", cfg, mode="shared-constants")

    def test_shared_mode_keeps_the_drive_of_an_uncoupled_window(self):
        # NOT's t1 has no exchange: gamma*B1 = omega/5 meets
        # gamma*B1*t/2 = pi/2 where omega*t/2 = 2*pi + pi/2.
        cfg = PhysicalConfig.natural_units(b1=0.2)
        sched = gate_timing_table("not", cfg, mode="shared-constants")
        sol = sched.solutions["t1"]
        assert sol.duration == pytest.approx(5 * PI, abs=1e-12)
        assert sol.witness_for(ConstraintKind.DRIVE).k == 0

    def test_shared_mode_drive_on_exits_2(self):
        argv = [
            "schedule", "cz", "--mode", "shared-constants", "--natural-units",
            "--j", "0.4", "--b-prime", "0.1", "--b1", "0.8",
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 2
        assert "window t1" in out.getvalue()
        assert "does not commute with the exchange" in out.getvalue()

    @pytest.mark.parametrize("mode", ["derive-constants", "shared-constants"])
    def test_search_bound_below_one_rejected_in_both_modes(self, cfg, mode):
        with pytest.raises(ValueError, match=r"^search_bound must be >= 1, got 0$"):
            gate_timing_table("cz", cfg, mode=mode, search_bound=0)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["schedule", "cz", "--natural-units", "--mode", mode, "--search-bound", "0"])
        assert code == 3
        assert out.getvalue() == "error: search_bound must be >= 1, got 0\n"

    def test_component_names_resolve_to_parent_table(self, cfg):
        sched = gate_timing_table("cx_half:2,3", cfg)
        assert sched.gate == "ccnot"
        assert "t3" in sched.solutions
        sched = gate_timing_table("cnot:1,3@4", cfg)
        assert sched.gate == "cccnot"
        sched = gate_timing_table("cx_quarter:3,4", cfg)
        assert sched.gate == "cccnot"

    def test_unknown_gate_rejected(self, cfg):
        with pytest.raises(ValueError, match="unknown gate"):
            gate_timing_table("swap", cfg)

    @pytest.mark.parametrize(
        "name",
        ["cx_half:1,2", "cx_half:9,9", "cx_quarter:junk", "cnot:2,4", "cx_half:2,3@4"],
    )
    def test_malformed_component_names_rejected(self, cfg, name):
        with pytest.raises(ValueError):
            gate_timing_table(name, cfg)

    def test_off_resonance_rejected(self):
        cfg = PhysicalConfig.natural_units(omega=1.5)
        with pytest.raises(ValueError, match="resonance"):
            gate_timing_table("cz", cfg)


class TestRepeatedWindows:
    """Windows with equal constraints are derived once and relabelled."""

    @pytest.mark.parametrize("gate, distinct", [("ccnot", 4), ("cccnot", 4), ("cnot", 2)])
    def test_each_distinct_window_is_derived_once(self, monkeypatch, gate, distinct):
        calls = []
        derive = timing._derive_window

        def counted(label, constraints, cfg):
            calls.append(label)
            return derive(label, constraints, cfg)

        monkeypatch.setattr(timing, "_derive_window", counted)
        gate_timing_table(gate, PhysicalConfig.natural_units())
        assert len(calls) == distinct

    @pytest.mark.parametrize("gate", ["ccnot", "cccnot"])
    @pytest.mark.parametrize(
        "mode, cfg",
        [
            ("derive-constants", PhysicalConfig.natural_units()),
            ("derive-constants", PhysicalConfig(b0=0.3, omega=GAMMA_ELECTRON * 0.3)),
            ("shared-constants", PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5)),
        ],
        ids=["derive-natural", "derive-si", "shared"],
    )
    def test_repeats_equal_their_first_window_but_for_the_label(self, gate, mode, cfg):
        sched = gate_timing_table(gate, cfg, mode=mode)
        first = {}
        for label, constraints in timing.GATE_TABLES[gate].windows:
            sol = sched.solutions[label]
            assert sol.label == label
            origin = first.setdefault(constraints, label)
            assert sol == replace(sched.solutions[origin], label=label)
            assert sched.derived.get(label) == sched.derived.get(origin)
        assert len(first) < len(timing.GATE_TABLES[gate].windows)

    @pytest.mark.parametrize("gate", ["ccnot", "cccnot"])
    def test_derived_dicts_are_independent(self, gate):
        sched = gate_timing_table(gate, PhysicalConfig.natural_units())
        before = {label: dict(d) for label, d in sched.derived.items()}
        for label in sched.derived:
            sched.derived[label]["j"] = -1.0
            for other, deltas in sched.derived.items():
                if other != label:
                    assert deltas == before[other], (label, other)
            sched.derived[label]["j"] = before[label]["j"]


def _fresh(c):
    """The constraint rebuilt from the text of its Fractions."""
    return TimingConstraint(
        c.kind,
        Fraction(str(c.level)),
        Fraction(str(c.residue_over_pi)),
        c.description,
        c.min_witness,
    )


# The config key each derived knob is stored under.
DERIVED_KEYS = {
    ConstraintKind.DRIVE: "b1",
    ConstraintKind.EXCHANGE: "j",
    ConstraintKind.OFFSET: "b_prime",
}


def recomputed_window(constraints, cfg):
    """A derive-constants window worked out on fresh Fractions.

    Each knob is inverted here from its exact phase: knob = phase * pi /
    (level * t), with B1 = knob / gamma for the drive, in the library's
    float operation order. Returns the duration, the witnesses, the
    constraints, their coefficients, the derived constants and the residual.
    """
    fresh = [_fresh(c) for c in constraints]
    clock = next(c for c in fresh if c.kind is ConstraintKind.ZEEMAN)
    others = [c for c in fresh if c is not clock]

    def least(c):
        k = c.min_witness
        if c is clock or c.residue_over_pi != 0 or c.min_witness != 0:
            while 2 * k + c.residue_over_pi <= 0:
                k += 1
        return k

    ks = [least(c) for c in (clock, *others)]
    phases = [2 * k + c.residue_over_pi for c, k in zip((clock, *others), ks)]
    coefficient = float(clock.level) * cfg.omega
    duration = float(phases[0]) * PI / coefficient
    deltas = {}
    coefficients = [coefficient]
    for c, phase in zip(others, phases[1:]):
        key = DERIVED_KEYS[c.kind]
        knob = float(phase) * PI / (float(c.level) * duration)
        if c.kind is ConstraintKind.DRIVE:
            deltas[key] = knob / cfg.gamma
            knob = deltas[key] * cfg.gamma
        else:
            deltas[key] = knob
        coefficients.append(float(c.level) * knob)
    residual = 0.0
    for x, phase in zip(coefficients, phases):
        residual = max(residual, abs(x * duration - float(phase) * PI))
    return duration, ks, [clock, *others], coefficients, deltas, residual


@st.composite
def resonant_configs(draw):
    """Resonant configs over decades, in natural units or in SI units."""
    if draw(st.booleans()):
        gamma, b0 = 1.0, 10 ** draw(st.floats(-4, 4))
    else:
        gamma, b0 = GAMMA_ELECTRON, 10 ** draw(st.floats(-4, 1))
    knobs = {
        name: draw(st.sampled_from([0.0, 10 ** draw(st.floats(-3, 3))]))
        for name in ("j_coupling", "b_prime")
    }
    return PhysicalConfig(gamma=gamma, b0=b0, omega=gamma * b0, **knobs)


class TestWindowsBindTableWitnesses:
    """Derive-constants windows hold per-table exact witnesses; a config only scales them."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=resonant_configs())
    def test_every_window_equals_the_fresh_fraction_result(self, cfg):
        for gate, table in timing.GATE_TABLES.items():
            sched = gate_timing_table(gate, cfg)
            for label, constraints in table.windows:
                duration, ks, fresh, coefficients, deltas, residual = recomputed_window(
                    constraints, cfg
                )
                sol = sched.solutions[label]
                window = sched.window_config(label)
                assert sol.duration == duration, (gate, label)
                assert [w.k for w in sol.witnesses] == ks, (gate, label)
                assert [w.constraint for w in sol.witnesses] == fresh, (gate, label)
                assert [
                    w.constraint.coefficient_in(window) for w in sol.witnesses
                ] == coefficients, (gate, label)
                assert sched.derived.get(label, {}) == deltas, (gate, label)
                assert sol.residual == residual, (gate, label)
                for w, c, k in zip(sol.witnesses, fresh, ks):
                    assert w.phase_over_pi == 2 * k + c.residue_over_pi
                    assert w.knob_phase_over_pi == (2 * k + c.residue_over_pi) / c.level

    def test_table_witnesses_are_worked_out_once(self):
        table = timing.GATE_TABLES["cccnot"]
        assert table.derive_witnesses is table.derive_witnesses
        assert list(table.derive_witnesses) == ["t1", "t2", "t3", "t4"]
        sched = gate_timing_table("cccnot", PhysicalConfig.natural_units())
        for label, witnesses in table.derive_witnesses.items():
            sol = sched.solutions[label]
            assert len(sol.witnesses) == len(witnesses)
            for i, w in enumerate(sol.witnesses):
                assert w is table.derive_witnesses[label][i]

    def test_a_second_config_does_no_fraction_arithmetic(self, monkeypatch):
        for gate in timing.GATE_TABLES:
            gate_timing_table(gate, PhysicalConfig.natural_units())

        def forbidden(*args):
            raise AssertionError("Fraction arithmetic after the warm-up")

        for name in ("__add__", "__radd__", "__truediv__", "__rtruediv__"):
            monkeypatch.setattr(Fraction, name, forbidden)
        with pytest.raises(AssertionError):
            2 + Fraction(1, 2)
        with pytest.raises(AssertionError):
            Fraction(1, 2) / 2
        cfg = PhysicalConfig(b0=0.37, omega=GAMMA_ELECTRON * 0.37)
        for gate in timing.GATE_TABLES:
            sched = gate_timing_table(gate, cfg)
            for spec in dict.fromkeys(gates.CIRCUITS.get(gate, ())):
                gates.component_program(spec, sched)

    def test_a_second_config_does_no_fraction_comparison(self, monkeypatch):
        # A derive-mode window holds its table's validated constraints, so
        # a config builds and checks no constraint.
        for gate in timing.GATE_TABLES:
            gate_timing_table(gate, PhysicalConfig.natural_units())

        def forbidden(*args):
            raise AssertionError("Fraction comparison after the warm-up")

        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(Fraction, name, forbidden)
        with pytest.raises(AssertionError):
            Fraction(1, 2) <= 0
        with pytest.raises(AssertionError):
            -2 < Fraction(1, 2)
        configs = (
            PhysicalConfig(b0=0.37, omega=GAMMA_ELECTRON * 0.37),
            PhysicalConfig.natural_units(j_coupling=0.3, b_prime=0.2),
        )
        for gate in timing.GATE_TABLES:
            for cfg in configs:
                assert gate_timing_table(gate, cfg).cfg == cfg

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"level": 0}, "level must be positive, got 0"),
            ({"residue": "2"}, "residue 2*pi outside (-2*pi, 2*pi)"),
            ({"min_witness": -1}, "min_witness must be >= 0, got -1"),
        ],
    )
    def test_a_bad_constraint_built_directly_is_named(self, fields, message):
        args = {"kind": ConstraintKind.ZEEMAN, "level": 1, "residue": "1/2", **fields}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            constraint(**args)

    def test_a_constraint_is_a_table_fact(self):
        assert [f.name for f in fields(TimingConstraint)] == [
            "kind", "level", "residue_over_pi", "description", "min_witness",
        ]
        table_constraint = timing.GATE_TABLES["cz"].windows[0][1][0]
        with pytest.raises(AttributeError):
            table_constraint.coefficient
        cfg = PhysicalConfig.natural_units(j_coupling=0.4)
        assert table_constraint.coefficient_in(cfg) == reference_coefficient(table_constraint, cfg)


class TestScheduleExport:
    def test_csv_columns_and_rows(self):
        cfg = PhysicalConfig.natural_units()
        sched = gate_timing_table("cz", cfg)
        text = sched.to_csv_text()
        lines = text.strip().splitlines()
        assert lines[0] == "gate,segment,coefficient,residue,witness,duration_seconds"
        data = [line.split(",") for line in lines[1:]]
        # 4 congruence rows for t1 plus the total row.
        assert sum(1 for row in data if row[1] == "t1") == 4
        assert any(row[1] == "T" for row in data)
        t1_rows = [row for row in data if row[1] == "t1"]
        assert {"1/2*pi", "1*pi", "1/4*pi", "0"} == {row[3] for row in t1_rows}

    def test_json_mirror_round_trips(self):
        cfg = PhysicalConfig.natural_units()
        sched = gate_timing_table("ccnot", cfg)
        doc = sched.to_json_dict()
        text = json.dumps(doc)
        back = json.loads(text)
        assert back["gate"] == "ccnot"
        assert len(back["windows"]) == 8
        durations = {w["segment"]: w["duration_seconds"] for w in back["windows"]}
        assert durations["t1"] == sched.solutions["t1"].duration

    def test_duration_roundtrip_is_lossless(self):
        cfg = PhysicalConfig.natural_units()
        sched = gate_timing_table("cccnot", cfg)
        doc = json.loads(json.dumps(sched.to_json_dict()))
        for window in doc["windows"]:
            assert window["duration_seconds"] == sched.solutions[window["segment"]].duration


def assert_exports_carry_level_times_knob(sched):
    """Every JSON and CSV coefficient is float(level) x the window's knob, bit for bit."""
    expected = [
        reference_coefficient(w.constraint, sched.cfg, sched.derived.get(label)).hex()
        for label, sol in sched.solutions.items()
        for w in sol.witnesses
    ]
    doc = json.loads(json.dumps(sched.to_json_dict()))
    exported = [row["coefficient"].hex() for w in doc["windows"] for row in w["constraints"]]
    assert exported == expected
    rows = [line.split(",") for line in sched.to_csv_text().splitlines()[1:]]
    assert [float(row[2]).hex() for row in rows if row[2]] == expected


class TestExportedCoefficients:
    """A coefficient is computed on export from the window's config."""

    @settings(max_examples=40, deadline=None)
    @given(cfg=resonant_configs())
    def test_derive_mode_exports_level_times_knob(self, cfg):
        for gate in timing.GATE_TABLES:
            assert_exports_carry_level_times_knob(gate_timing_table(gate, cfg))

    @pytest.mark.parametrize("gate", list(timing.GATE_TABLES))
    def test_shared_mode_exports_level_times_knob(self, gate):
        # NOT's one-spin window needs the drive on; every coupled one, off.
        b1 = 0.2 if gate == "not" else 0.0
        cfg = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5, b1=b1)
        assert_exports_carry_level_times_knob(
            gate_timing_table(gate, cfg, mode="shared-constants")
        )


class TestNonFiniteNumbers:
    """A duration, derived knob or total past the float range is a named error."""

    @pytest.mark.parametrize(
        "duration, residual, message",
        [
            (math.nan, math.nan, "duration nan s is not positive and finite"),
            (math.inf, 0.0, "duration inf s is not positive and finite"),
            (0.0, 0.0, "duration 0.0 s is not positive and finite"),
            (1.0, math.nan, "residual nan exceeds 1e-09 rad"),
            (1.0, 1e-8, "residual 1.000e-08 exceeds 1e-09 rad"),
        ],
    )
    def test_a_solution_rejects_what_is_not_a_number(self, duration, residual, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TimingSolution("t", duration, (), residual)

    @pytest.mark.parametrize(
        "gate, scale, message",
        [
            # omega*t = 2*pi + pi/2 needs t = 2.5*pi/1e-310, past the float range.
            ("cz", 1e-310, "cz window t1: duration inf s is not positive and finite"),
            # omega/2 underflows to 0, so the clock never turns.
            ("not", 5e-324, "not window t1: duration inf s is not positive and finite"),
            ("cccnot", 1.7e308, "cccnot window t1: derived j = inf is not finite"),
            # Each window fits, but T1 = t1 + 2*t2 + 7*t3 does not.
            ("cccnot", 1e-307, "cccnot total T1 = inf s is not finite"),
            ("ccnot", 1e-307, "ccnot total T1 = inf s is not finite"),
        ],
    )
    def test_gate_timing_table_names_the_window_or_total(self, gate, scale, message):
        cfg = PhysicalConfig.natural_units(omega=scale, b0=scale)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gate_timing_table(gate, cfg)


class TestWitnessBookkeeping:
    def test_negative_witness_rejected(self):
        c = constraint(ConstraintKind.ZEEMAN, 1, "1/2")
        with pytest.raises(ValueError):
            TimingWitness(c, -1)

    def test_residue_range_enforced(self):
        with pytest.raises(ValueError, match="residue"):
            constraint(ConstraintKind.ZEEMAN, 1, "5/2")

    def test_knob_phase_levels(self):
        c = constraint(ConstraintKind.EXCHANGE, "1/4", "-1/8")
        w = TimingWitness(c, 1)
        assert w.phase_over_pi == Fraction(15, 8)
        assert w.knob_phase_over_pi == Fraction(15, 2)


# ---------------------------------------------------------------------------
# Rationalization at the RATIO_MAX_DEN / RATIO_TOL edge
# ---------------------------------------------------------------------------

EDGE_DENOMINATORS = st.one_of(st.integers(1, 50), st.integers(RATIO_MAX_DEN - 50, RATIO_MAX_DEN))
PAST_THE_LIMIT = st.one_of(
    st.integers(RATIO_MAX_DEN + 1, RATIO_MAX_DEN + 50),
    st.integers(RATIO_MAX_DEN + 1, 100 * RATIO_MAX_DEN),
)
# Square roots of non-squares: far (> 5e-10) from every fraction with a
# denominator up to RATIO_MAX_DEN, since their continued fractions have
# small partial quotients.
IRRATIONALS = [math.sqrt(k) for k in range(2, 100) if math.isqrt(k) ** 2 != k]


@st.composite
def ratios(draw, denominators=EDGE_DENOMINATORS):
    """A reduced fraction p/q in [1, 10].

    Two fractions with denominators up to RATIO_MAX_DEN lie at least
    1/RATIO_MAX_DEN**2 = 1e-8 apart, so a float within a few 1e-9 of p/q
    is far from every other candidate.
    """
    q = draw(denominators)
    p = draw(st.integers(q, 10 * q))
    assume(math.gcd(p, q) == 1)
    return Fraction(p, q)


@st.composite
def near_rationals(draw):
    """p/q moved by 10 to 400 times RATIO_TOL (relative): not rational."""
    r = draw(ratios())
    offset = draw(st.floats(10 * RATIO_TOL, 4e-10)) * draw(st.sampled_from([-1, 1]))
    return float(r) * (1 + offset)


def shared_constants_schedule(j):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "schedule", "cz", "--natural-units", f"--j={j!r}", "--b-prime=0.5",
            "--mode", "shared-constants", "--json",
        ])
    return code, out.getvalue()


class TestRationalizeBoundary:
    @given(r=ratios())
    def test_rational_ratios_are_recovered(self, r):
        assert _rationalize(float(r)) == r

    @given(r=ratios(), shift=st.floats(-0.5, 0.5))
    def test_ratios_within_the_tolerance_are_recovered(self, r, shift):
        assert _rationalize(float(r) * (1 + shift * RATIO_TOL)) == r

    @given(x=near_rationals())
    def test_near_rational_ratios_are_rejected(self, x):
        assert _rationalize(x) is None

    @given(r=ratios(PAST_THE_LIMIT))
    def test_denominators_past_the_limit_are_rejected(self, r):
        assert _rationalize(float(r)) is None

    @pytest.mark.parametrize("x", IRRATIONALS[::7])
    def test_irrational_ratios_are_rejected(self, x):
        assert _rationalize(x) is None

    @given(r=ratios(), scale=st.floats(0.5, 2.0))
    @settings(max_examples=20, deadline=None)
    def test_rational_knob_ratios_solve(self, r, scale):
        # omega*t = 2k*pi and J*t = 2m*pi with J/omega = p/q first meet at
        # k = q, m = p: the solver must find exactly that witness pair.
        ref = constraint(ConstraintKind.ZEEMAN, 1, 0, text="omega")
        other = constraint(ConstraintKind.EXCHANGE, 1, 0, text="J")
        cfg = PhysicalConfig.natural_units(omega=scale, b0=scale, j_coupling=scale * float(r))
        sol = solve_timing([ref, other], cfg, search_bound=r.numerator)
        assert sol.duration == pytest.approx(2 * r.denominator * PI / scale, rel=1e-12)
        assert sol.witness_for(ConstraintKind.ZEEMAN).k == r.denominator
        assert sol.witness_for(ConstraintKind.EXCHANGE).k == r.numerator

    @given(j=st.one_of(near_rationals(), st.sampled_from(IRRATIONALS)))
    @settings(max_examples=30, deadline=None)
    def test_non_rational_knob_ratios_are_infeasible_and_named(self, j):
        cfg = PhysicalConfig.natural_units(j_coupling=j, b_prime=0.5)
        with pytest.raises(ScheduleInfeasibleError, match=r"J\*t = \(2p\+1\)\*pi") as exc:
            gate_timing_table("cz", cfg, mode="shared-constants")
        assert "not rational" in str(exc.value)
        code, out = shared_constants_schedule(j)
        assert code == 2
        message = json.loads(out[out.index("{"):])["payload"]["message"]
        assert message == str(exc.value)
