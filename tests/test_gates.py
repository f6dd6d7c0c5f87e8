"""Tests for gate synthesis: both layers, their agreement, and compositions."""

import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinforge.gates as gates_module
from spinforge.config import PhysicalConfig
from spinforge.gates import (
    AUDIT_SPECS_3Q,
    AUDIT_SPECS_4Q,
    CCCNOT_SEQUENCE,
    CCNOT_SEQUENCE,
    GATE_REGISTRY,
    GateSpec,
    _adjoint_program,
    _sigma_angle,
    audit_components,
    build_gate,
    canonical_toffoli,
    cnot_2q,
    component_program,
    compose_ccnot,
    compose_cccnot,
    component_pulses,
    component_reports,
    controlled_x_power,
    controlled_z_2q,
    flagged_components,
    hadamard_like,
    ideal_component,
    ideal_sequence_product,
    not_gate_1q,
    not_program,
    parse_gate_name,
    program_matrix,
    pulse_component,
    sequence_program,
    sequence_pulse,
    u_phi,
    x_power,
)
from spinforge.operators import pauli, pauli_string
from spinforge.tensor import (
    basis_state,
    dagger,
    expm_pauli,
    identity,
    kron,
    phase_fidelity,
    unitarity_defect,
)
from spinforge.timing import (
    ADJOINT_BASE,
    COMPONENT_PARENT_GATE,
    COMPONENT_TABLE,
    GATE_KINDS,
    WHOLE_GATES,
    ConstraintKind,
    GateSchedule,
    PulseProgram,
    PulseSegment,
    gate_timing_table,
)

CFG = PhysicalConfig.natural_units()


@pytest.fixture(scope="module")
def cz_schedule():
    return gate_timing_table("cz", CFG)


@pytest.fixture(scope="module")
def ccnot_schedule():
    return gate_timing_table("ccnot", CFG)


@pytest.fixture(scope="module")
def cccnot_schedule():
    return gate_timing_table("cccnot", CFG)


class TestUPhi:
    def test_two_qubit_window_is_controlled_z(self, cz_schedule):
        got = u_phi(2, cz_schedule.solutions["t1"], cz_schedule.window_config("t1"))
        assert np.max(np.abs(got - np.diag([1, 1, 1, -1]))) <= 1e-12

    def test_three_qubit_phase_window_diagonal_oracle(self, ccnot_schedule):
        # Multiply the diagonal exponentials entrywise, independently.
        sol = ccnot_schedule.solutions["t1"]
        got = u_phi(3, sol, ccnot_schedule.window_config("t1"))
        diag = np.ones(8, dtype=complex) * np.exp(1j * math.pi / 8)
        for idx in range(8):
            bits = [1 - 2 * int(b) for b in format(idx, "03b")]  # +1 for 0, -1 for 1
            z_sum = sum(bits)
            zz_sum = bits[0] * bits[1] + bits[0] * bits[2] + bits[1] * bits[2]
            diag[idx] *= np.exp(-1j * math.pi / 8 * z_sum)
            diag[idx] *= np.exp(1j * math.pi / 8 * zz_sum)
        assert np.max(np.abs(got - np.diag(diag))) <= 1e-12

    def test_diagonal_when_drive_eliminated(self, cccnot_schedule):
        sol = cccnot_schedule.solutions["t1"]
        got = u_phi(4, sol, cccnot_schedule.window_config("t1"))
        off = got - np.diag(np.diag(got))
        assert np.max(np.abs(off)) <= 1e-15

    def test_identity_at_zero_residues(self):
        # All residues zero: every factor degenerates to the identity.
        cfg = PhysicalConfig.natural_units()
        sched = gate_timing_table("cz", cfg)
        sol = sched.solutions["t1"]
        from spinforge.timing import TimingSolution, TimingWitness
        from dataclasses import replace
        from fractions import Fraction

        witnesses = tuple(
            TimingWitness(
                replace(w.constraint, residue_over_pi=Fraction(0)), w.k
            )
            for w in sol.witnesses
        )
        zeroed = TimingSolution("t0", sol.duration, witnesses, 0.0)
        got = u_phi(2, zeroed, cfg)
        assert np.max(np.abs(got - identity(4))) <= 1e-12

    def test_off_resonance_rejected(self, cz_schedule):
        detuned = PhysicalConfig.natural_units(omega=1.5)
        with pytest.raises(ValueError, match="resonance"):
            u_phi(2, cz_schedule.solutions["t1"], detuned)

    def test_missing_witness_falls_back_to_config(self, cz_schedule):
        # A solution carrying only the frequency witness still evaluates:
        # the remaining angles come from the config constants.
        from spinforge.timing import ConstraintKind, TimingSolution

        full = cz_schedule.solutions["t1"]
        clock_only = TimingSolution(
            "t1",
            full.duration,
            tuple(
                w for w in full.witnesses if w.constraint.kind is ConstraintKind.ZEEMAN
            ),
            full.residual,
        )
        cfg = PhysicalConfig.natural_units(j_coupling=0.4, b_prime=0.1)
        got = u_phi(2, clock_only, cfg)
        exact = u_phi(2, full, cz_schedule.window_config("t1"))
        assert np.max(np.abs(got - exact)) <= 1e-12

    def test_unitary(self, cccnot_schedule):
        for label in ("t1", "t4"):
            got = u_phi(
                4,
                cccnot_schedule.solutions[label],
                cccnot_schedule.window_config(label),
            )
            assert unitarity_defect(got) <= 1e-12


class TestNotGate:
    def test_exact_matrix(self):
        got = not_gate_1q(CFG)
        assert np.max(np.abs(got - (-1j) * pauli("x"))) <= 1e-12

    def test_action_on_up_state(self):
        got = not_gate_1q(CFG) @ basis_state(1, "0")
        assert np.allclose(got, [0, -1j], atol=1e-12)

    def test_applied_twice_gives_minus_identity(self):
        u = not_gate_1q(CFG)
        assert np.max(np.abs(u @ u + identity(2))) <= 1e-12

    def test_phase_report(self):
        r = phase_fidelity(not_gate_1q(CFG), pauli("x"))
        assert r.fidelity == pytest.approx(1.0, abs=1e-12)
        assert r.global_phase_rad == pytest.approx(-math.pi / 2, abs=1e-12)

    def test_program_replay_matches(self):
        sched = gate_timing_table("not", CFG)
        program = not_program(sched)
        replayed = identity(2)
        for seg in reversed(program.segments):
            from spinforge.operators import pauli_string

            g = pauli_string(dict(zip(seg.sites, seg.axes)), 1)
            replayed = replayed @ expm_pauli(g, seg.angle)
        assert np.allclose(replayed, program_matrix(program))
        assert program.total_time == pytest.approx(sched.totals["T"])


class TestHadamardLike:
    def test_matrix_value(self):
        expected = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
        assert np.allclose(hadamard_like(), expected)

    def test_is_y_rotation(self):
        assert np.max(
            np.abs(hadamard_like() - expm_pauli(pauli("y"), -math.pi / 4))
        ) <= 1e-15

    def test_unitary(self):
        h = hadamard_like()
        assert np.allclose(dagger(h) @ h, identity(2))

    def test_action_on_up(self):
        got = hadamard_like() @ basis_state(1, "0")
        assert np.allclose(got, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_differs_from_true_hadamard(self):
        # tr(H_true^dagger H') vanishes identically: the overlap is zero.
        h_true = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        r = phase_fidelity(hadamard_like(), h_true)
        assert r.fidelity < 1.0
        assert r.fidelity == pytest.approx(0.0, abs=1e-12)


class TestCnot2q:
    def test_exact_permutation(self):
        got = cnot_2q(CFG)
        expected = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_truth_table_rows(self):
        u = cnot_2q(CFG)
        assert np.allclose(u @ basis_state(2, "10"), basis_state(2, "11"), atol=1e-12)
        assert np.allclose(u @ basis_state(2, "01"), basis_state(2, "01"), atol=1e-12)

    def test_conjugation_identity(self, cz_schedule):
        cz = controlled_z_2q(CFG, cz_schedule)
        u_h = kron(identity(2), hadamard_like())
        sandwich = u_h @ cz @ dagger(u_h)
        assert np.max(np.abs(sandwich - cnot_2q(CFG))) <= 1e-12


class TestIdealComponents:
    def test_x_power_half_block(self):
        expected = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
        assert np.allclose(x_power(0.5), expected, atol=1e-15)

    def test_x_power_zero_is_identity(self):
        assert np.allclose(x_power(0.0), identity(2))

    def test_controlled_half_block_placement(self):
        u = controlled_x_power(2, 3, 3, 0.5)
        expected_block = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]) / 2
        # Control qubit 2 set: basis indices with bit pattern .1. -> rows 2,3 and 6,7.
        assert np.allclose(u[2:4, 2:4], expected_block)
        assert np.allclose(u[6:8, 6:8], expected_block)
        assert np.allclose(u[0:2, 0:2], identity(2))

    def test_cnot_12_of_3_is_cnot4_tensor_identity(self):
        got = ideal_component(GateSpec("cnot", 1, 2, 3))
        cnot4 = np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
        assert np.allclose(got, kron(cnot4, identity(2)))

    def test_square_roots_compose(self):
        assert np.max(np.abs(x_power(0.5) @ x_power(0.5) - pauli("x"))) <= 1e-12
        q = x_power(0.25)
        assert np.max(np.abs(q @ q @ q @ q - pauli("x"))) <= 1e-12

    def test_controlled_powers_compose(self):
        v = controlled_x_power(1, 3, 3, 0.5)
        assert np.max(
            np.abs(v @ v - ideal_component(GateSpec("cnot", 1, 3, 3)))
        ) <= 1e-12

    def test_canonical_toffoli_shapes(self):
        t3 = canonical_toffoli(3)
        assert np.array_equal(t3[:6, :6], np.eye(6))
        assert t3[6, 7] == 1 and t3[7, 6] == 1
        t4 = canonical_toffoli(4)
        assert np.array_equal(t4[:14, :14], np.eye(14))
        assert t4[14, 15] == 1 and t4[15, 14] == 1

    def test_adjoint_pairs(self):
        for kind, adjoint, c, t, n in (
            ("cx_half", "cx_neg_half", 2, 3, 3),
            ("cx_quarter", "cx_neg_quarter", 3, 4, 4),
        ):
            u = ideal_component(GateSpec(kind, c, t, n))
            v = ideal_component(GateSpec(adjoint, c, t, n))
            assert np.max(np.abs(v - dagger(u))) <= 1e-15

    @pytest.mark.parametrize(
        "spec",
        [GateSpec("cz"), GateSpec("cnot", n=3), GateSpec("cnot", control=2, n=2),
         GateSpec("cx_half", target=3, n=3)],
        ids=lambda s: s.label,
    )
    def test_controlled_gate_without_sites_is_named(self, spec):
        # No site is filled in: a 1-qubit cz spec is not a 4x4 CZ.
        with pytest.raises(ValueError, match=f"{spec.kind} needs explicit control and target sites"):
            ideal_component(spec)


class TestPulseComponents:
    @pytest.mark.parametrize("spec", AUDIT_SPECS_3Q, ids=lambda s: s.label)
    def test_three_qubit_components_match_ideal(self, spec, ccnot_schedule):
        pulse = pulse_component(spec, CFG, ccnot_schedule)
        ideal = ideal_component(spec)
        assert np.max(np.abs(pulse - ideal)) <= 1e-12

    @pytest.mark.parametrize("spec", AUDIT_SPECS_4Q, ids=lambda s: s.label)
    def test_four_qubit_components_match_ideal(self, spec, cccnot_schedule):
        pulse = pulse_component(spec, CFG, cccnot_schedule)
        ideal = ideal_component(spec)
        assert np.max(np.abs(pulse - ideal)) <= 1e-12

    def test_adjoint_kind_is_dagger_of_base(self, ccnot_schedule):
        base = pulse_component(GateSpec("cx_half", 2, 3, 3), CFG, ccnot_schedule)
        adj = pulse_component(GateSpec("cx_neg_half", 2, 3, 3), CFG, ccnot_schedule)
        assert np.max(np.abs(adj - dagger(base))) <= 1e-12

    @pytest.mark.parametrize(
        "spec", AUDIT_SPECS_3Q + AUDIT_SPECS_4Q, ids=lambda s: s.label
    )
    def test_program_replay_invariant(self, spec, ccnot_schedule, cccnot_schedule):
        # Right-to-left replay of the time-ordered segments is the gate.
        schedule = ccnot_schedule if spec.n == 3 else cccnot_schedule
        program = component_program(spec, schedule)
        from spinforge.operators import pauli_string

        replayed = identity(2**spec.n)
        for seg in reversed(program.segments):
            if seg.sites:
                g = pauli_string(dict(zip(seg.sites, seg.axes)), spec.n)
                replayed = replayed @ expm_pauli(g, seg.angle)
            else:
                replayed = replayed * np.exp(1j * seg.angle)
        assert np.max(
            np.abs(replayed - pulse_component(spec, CFG, schedule))
        ) <= 1e-13

    def test_program_pulse_counts(self, ccnot_schedule, cccnot_schedule):
        # 3q phase component: 2 y + 1 z + 2 zz pulses around the window.
        p3 = component_program(GateSpec("cx_half", 2, 3, 3), ccnot_schedule)
        labels3 = [s.duration_label for s in p3.segments]
        assert labels3.count("t2") == 2
        assert labels3.count("t3") == 3
        # 4q phase component: 2 y + 2 z + 5 zz pulses.
        p4 = component_program(GateSpec("cx_quarter", 1, 4, 4), cccnot_schedule)
        labels4 = [s.duration_label for s in p4.segments]
        assert labels4.count("t2") == 2
        assert labels4.count("t3") == 7
        # 4q embedded inverter: 9 pulses at the shared duration.
        c4 = component_program(GateSpec("cnot", 1, 2, 4), cccnot_schedule)
        labels_c4 = [s.duration_label for s in c4.segments]
        assert labels_c4.count("t5") == 9

    def test_total_time_matches_schedule_totals(self, ccnot_schedule):
        program = component_program(GateSpec("cnot", 1, 2, 3), ccnot_schedule)
        assert program.total_time == pytest.approx(ccnot_schedule.totals["T2"])

    def test_wrong_schedule_rejected(self, ccnot_schedule):
        with pytest.raises(ValueError, match="needs"):
            pulse_component(GateSpec("cx_quarter", 1, 4, 4), CFG, ccnot_schedule)

    def test_unknown_component_rejected(self, ccnot_schedule):
        with pytest.raises(ValueError, match="no pulse construction"):
            pulse_component(GateSpec("cnot", 1, 3, 3), CFG, ccnot_schedule)


def toffoli_truth_table_oracle(u, n):
    """Check the permutation action on every basis state directly."""
    for idx in range(2**n):
        bits = format(idx, f"0{n}b")
        controls, target = bits[:-1], bits[-1]
        if controls == "1" * (n - 1):
            expected = controls + ("1" if target == "0" else "0")
        else:
            expected = bits
        out = u @ basis_state(n, bits)
        assert np.allclose(out, basis_state(n, expected), atol=1e-12), bits


class TestCompositions:
    def test_ideal_ccnot_identity(self):
        prod = ideal_sequence_product(CCNOT_SEQUENCE)
        assert np.max(np.abs(prod - canonical_toffoli(3))) <= 1e-12

    def test_ideal_cccnot_identity(self):
        prod = ideal_sequence_product(CCCNOT_SEQUENCE)
        assert np.max(np.abs(prod - canonical_toffoli(4))) <= 1e-12

    def test_pulse_ccnot(self, ccnot_schedule):
        u = compose_ccnot(CFG, ccnot_schedule)
        assert np.max(np.abs(u - canonical_toffoli(3))) <= 1e-12
        toffoli_truth_table_oracle(u, 3)

    def test_pulse_cccnot(self, cccnot_schedule):
        u = compose_cccnot(CFG, cccnot_schedule)
        assert np.max(np.abs(u - canonical_toffoli(4))) <= 1e-12
        toffoli_truth_table_oracle(u, 4)

    def test_ccnot_truth_rows(self, ccnot_schedule):
        u = compose_ccnot(CFG, ccnot_schedule)
        assert np.allclose(u @ basis_state(3, "110"), basis_state(3, "111"), atol=1e-12)
        assert np.allclose(u @ basis_state(3, "010"), basis_state(3, "010"), atol=1e-12)

    def test_cccnot_truth_rows(self, cccnot_schedule):
        u = compose_cccnot(CFG, cccnot_schedule)
        assert np.allclose(u @ basis_state(4, "1110"), basis_state(4, "1111"), atol=1e-12)
        assert np.allclose(u @ basis_state(4, "1010"), basis_state(4, "1010"), atol=1e-12)


SI_CFG = PhysicalConfig()  # an electron at resonance in 1 T


class TestConfigBesideASchedule:
    """A config given with a schedule must be the one the schedule was solved for."""

    OTHER = PhysicalConfig.natural_units(j_coupling=0.4)

    @pytest.mark.parametrize(
        "gate, build",
        [("not", not_gate_1q), ("cz", controlled_z_2q), ("cnot", cnot_2q),
         ("ccnot", compose_ccnot), ("cccnot", compose_cccnot)],
    )
    def test_whole_gate_rejects_another_config(self, gate, build):
        schedule = gate_timing_table(gate, CFG)
        with pytest.raises(ValueError) as exc:
            build(self.OTHER, schedule)
        assert str(exc.value) == (
            f"config {self.OTHER} differs from the config of the {gate} schedule, {CFG}"
        )
        assert np.array_equal(build(None, schedule), build(CFG, schedule))

    def test_component_rejects_another_config(self, ccnot_schedule):
        spec = AUDIT_SPECS_3Q[0]
        with pytest.raises(ValueError, match="differs from the config of the ccnot schedule"):
            pulse_component(spec, self.OTHER, ccnot_schedule)
        assert np.array_equal(
            pulse_component(spec, None, ccnot_schedule),
            pulse_component(spec, CFG, ccnot_schedule),
        )


class TestComponentPulses:
    @pytest.mark.parametrize(
        "gate, specs", [("ccnot", AUDIT_SPECS_3Q), ("cccnot", AUDIT_SPECS_4Q)]
    )
    def test_one_replay_per_distinct_component(self, gate, specs):
        schedule = gate_timing_table(gate, CFG)
        pulses = component_pulses(schedule)
        assert list(pulses) == list(specs)
        for spec, pulse in pulses.items():
            assert np.array_equal(pulse, pulse_component(spec, CFG, schedule))

    def test_other_schedules_rejected(self, cz_schedule):
        with pytest.raises(ValueError, match="not a ccnot or cccnot circuit"):
            component_pulses(cz_schedule)

    def test_sequence_pulse_is_the_right_to_left_product(self, ccnot_schedule):
        pulses = component_pulses(ccnot_schedule)
        expected = identity(8)
        for spec in CCNOT_SEQUENCE:
            expected = pulses[spec] @ expected
        assert np.array_equal(sequence_pulse(CCNOT_SEQUENCE, pulses), expected)

    @pytest.mark.parametrize("cfg", [CFG, SI_CFG], ids=["natural", "si"])
    @pytest.mark.parametrize(
        "compose, label, sequence",
        [
            (compose_ccnot, "ccnot/3q", CCNOT_SEQUENCE),
            (compose_cccnot, "cccnot/4q", CCCNOT_SEQUENCE),
        ],
        ids=["ccnot", "cccnot"],
    )
    def test_composed_gate_matches_the_literal_replay(self, cfg, compose, label, sequence):
        schedule = gate_timing_table(label.split("/")[0], cfg)
        replayed = program_matrix(sequence_program(label, sequence, schedule))
        assert np.max(np.abs(compose(cfg, schedule) - replayed)) <= 1e-13

    def test_component_reports_follow_the_pulses(self, cccnot_schedule):
        pulses = component_pulses(cccnot_schedule)
        reports = component_reports(pulses)
        assert [r.gate_label for r in reports] == [spec.label for spec in pulses]
        assert flagged_components(reports) == []


def reference_sigma_angle(phase, divisor):
    """The Fraction-arithmetic reduction of phase/divisor to (-1, 1], times pi."""
    frac = (phase / divisor) % 2
    if frac > 1:
        frac -= 2
    return float(frac) * math.pi


class TestSigmaAngle:
    @given(phase=st.fractions(), divisor=st.sampled_from([1, 2, 4]))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_reference_bitwise(self, phase, divisor):
        assert _sigma_angle(phase, divisor).hex() == reference_sigma_angle(phase, divisor).hex()

    @pytest.mark.parametrize(
        "phase, divisor, expected",
        [
            (0, 1, 0.0),
            (1, 1, math.pi),
            (-1, 1, math.pi),
            (2, 1, 0.0),
            (-2, 1, 0.0),
            (2, 2, math.pi),
            (-2, 2, math.pi),
            (-2, 4, -math.pi / 2),
        ],
    )
    def test_edges(self, phase, divisor, expected):
        got = _sigma_angle(Fraction(phase), divisor)
        assert got.hex() == expected.hex()  # +0.0, never -0.0
        assert got.hex() == reference_sigma_angle(Fraction(phase), divisor).hex()

    def test_no_witness_gives_none(self):
        assert _sigma_angle(None, 2) is None


class TestAudit:
    def test_reports_cover_all_component_specs(self):
        reports = audit_components(CFG)
        labels = {r.gate_label for r in reports}
        assert len(reports) == len(AUDIT_SPECS_3Q) + len(AUDIT_SPECS_4Q)
        for spec in AUDIT_SPECS_3Q + AUDIT_SPECS_4Q:
            assert spec.label in labels

    def test_no_component_flagged(self):
        reports = audit_components(CFG)
        assert flagged_components(reports) == []

    def test_phase_recorded_where_exact(self):
        for r in audit_components(CFG):
            if r.fidelity >= 1 - 1e-9:
                assert abs(r.global_phase_rad) <= 1e-9


class TestBuildGate:
    @pytest.mark.parametrize("name", ["not", "cz", "cnot", "ccnot", "cccnot"])
    def test_whole_gates(self, name):
        build = build_gate(name, CFG)
        assert build.report.fidelity == pytest.approx(1.0, abs=1e-12)
        assert unitarity_defect(build.pulse) <= 1e-12

    def test_component_name_parsing(self):
        spec = parse_gate_name("cx_half:2,3")
        assert spec == GateSpec("cx_half", 2, 3, 3)
        spec = parse_gate_name("cx_quarter:1,4")
        assert spec == GateSpec("cx_quarter", 1, 4, 4)
        spec = parse_gate_name("cnot:1,2@4")
        assert spec == GateSpec("cnot", 1, 2, 4)
        assert parse_gate_name("cnot:1,2") == GateSpec("cnot", 1, 2, 3)

    def test_bad_names_rejected(self):
        with pytest.raises(ValueError):
            parse_gate_name("swap")
        with pytest.raises(ValueError):
            parse_gate_name("cx_half:1,2")  # no such pulse construction

    def test_component_build(self):
        build = build_gate("cx_neg_quarter:3,4", CFG)
        assert build.report.fidelity == pytest.approx(1.0, abs=1e-12)


class TestGateSpecValidation:
    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            GateSpec("cnot", 2, 2, 3)

    def test_site_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="site"):
            GateSpec("cnot", 1, 5, 4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            GateSpec("sqrtswap", 1, 2, 2)


WRAPPERS = {
    "not": not_gate_1q,
    "cz": controlled_z_2q,
    "cnot": cnot_2q,
    "ccnot": compose_ccnot,
    "cccnot": compose_cccnot,
}

# Every component name the parser accepts, adjoint kinds included.
COMPONENT_NAMES = [
    f"{kind}:{c},{t}@{n}"
    for n, base, c, t in COMPONENT_TABLE
    for kind in GATE_KINDS
    if ADJOINT_BASE.get(kind, kind) == base
]


class TestEveryAcceptedName:
    def test_registry_holds_every_whole_gate(self):
        assert set(GATE_REGISTRY) == set(WHOLE_GATES)

    @pytest.mark.parametrize("name", [*GATE_REGISTRY, *COMPONENT_NAMES])
    def test_build_is_exact(self, name):
        build = build_gate(name, CFG)
        assert build.report.fidelity == pytest.approx(1.0, abs=1e-12)
        if name in WRAPPERS:
            assert np.array_equal(WRAPPERS[name](CFG), build.pulse)


# ---------------------------------------------------------------------------
# program_matrix against the literal segment-by-segment product
# ---------------------------------------------------------------------------

angles = st.floats(-math.pi, math.pi, allow_nan=False)


@st.composite
def diagonal_segments(draw, n):
    """A scalar phase, a single z, or a zz pair (when n >= 2)."""
    kinds = ["phase", "z"] + (["zz"] if n >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "phase":
        sites = ()
    elif kind == "z":
        sites = (draw(st.integers(1, n)),)
    else:
        sites = tuple(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    return PulseSegment(sites, ("z",) * len(sites), draw(angles))


@st.composite
def dense_segments(draw, n):
    """A single x or y, or a string of mixed axes over distinct sites."""
    if draw(st.booleans()):
        sites = (draw(st.integers(1, n)),)
        axes = (draw(st.sampled_from("xy")),)
    else:
        sites = tuple(draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)))
        axes = tuple(draw(st.sampled_from("xyz")) for _ in sites)
    return PulseSegment(sites, axes, draw(angles))


@st.composite
def pulse_programs(draw):
    """Random programs mixing runs of diagonal segments and dense segments."""
    n = draw(st.integers(1, 4))
    segments = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            segments.extend(draw(st.lists(diagonal_segments(n), min_size=1, max_size=4)))
        else:
            segments.append(draw(dense_segments(n)))
    program = PulseProgram("random", n, tuple(segments), 1.0)
    if draw(st.booleans()):
        program = _adjoint_program(program, "random_dag")
    return program


def literal_product(program):
    """Right-to-left product of exp(i a P), one Pauli string per segment."""
    u = identity(2**program.n)
    for seg in program.segments:
        g = pauli_string(dict(zip(seg.sites, seg.axes)), program.n)
        u = expm_pauli(g, seg.angle) @ u
    return u


class TestProgramMatrixReference:
    @given(program=pulse_programs())
    @settings(max_examples=150, deadline=None)
    def test_matches_literal_product(self, program):
        got = program_matrix(program)
        assert np.max(np.abs(got - literal_product(program))) <= 1e-12

    @given(program=pulse_programs())
    @settings(max_examples=50, deadline=None)
    def test_adjoint_program_is_dagger(self, program):
        adjoint = _adjoint_program(program, "dag")
        assert np.max(np.abs(program_matrix(adjoint) - dagger(program_matrix(program)))) <= 1e-12

    @pytest.mark.parametrize(
        "segment",
        [PulseSegment((1,), ("w",), 0.3), PulseSegment((1, 2), ("z", "q"), 0.3)],
        ids=["single", "mixed"],
    )
    def test_bad_axis_segment_names_the_accepted_axes(self, segment):
        program = PulseProgram("bad", 2, (PulseSegment((1,), ("x",), 0.1), segment), 1.0)
        with pytest.raises(ValueError, match="unknown Pauli axis"):
            program_matrix(program)

    def test_every_named_gate_matches_literal_product(self):
        for name, (table, build_program, _) in GATE_REGISTRY.items():
            program = build_program(gate_timing_table(table, CFG))
            assert np.max(np.abs(program_matrix(program) - literal_product(program))) <= 1e-12

    def test_every_component_matches_literal_product(self):
        for n, base, control, target in COMPONENT_TABLE:
            schedule = gate_timing_table(COMPONENT_PARENT_GATE[n], CFG)
            kinds = [base] + [k for k, b in ADJOINT_BASE.items() if b == base]
            for kind in kinds:
                program = component_program(GateSpec(kind, control, target, n), schedule)
                assert np.max(np.abs(program_matrix(program) - literal_product(program))) <= 1e-12

    @given(program=pulse_programs(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_zero_angle_dense_segment_leaves_u_unchanged(self, program, data):
        n = program.n
        zero = PulseSegment((data.draw(st.integers(1, n)),), (data.draw(st.sampled_from("xy")),), 0.0)
        at = data.draw(st.integers(0, len(program.segments)))
        segments = program.segments[:at] + (zero,) + program.segments[at:]
        padded = PulseProgram("padded", n, segments, 1.0)
        assert np.array_equal(program_matrix(padded), program_matrix(program))

    def test_zero_angle_dense_segment_builds_nothing(self, monkeypatch):
        calls = []
        monkeypatch.setattr(gates_module, "expm_pauli", lambda *a: calls.append(a))
        monkeypatch.setattr(gates_module, "pauli_string", lambda *a: calls.append(a))
        segments = (PulseSegment((1,), ("x",), 0.0), PulseSegment((2,), ("y",), -0.0))
        u = program_matrix(PulseProgram("idle", 2, segments, 1.0))
        assert calls == []
        assert np.array_equal(u, identity(4))

    @pytest.mark.parametrize(
        "segment, message",
        [
            (PulseSegment((1,), ("w",), 0.0), "unknown Pauli axis 'w'"),
            (PulseSegment((1, 2), ("x", "q"), 0.0), "unknown Pauli axis 'q'"),
            (PulseSegment((3,), ("x",), 0.0), "site 3 outside 1..2"),
            (PulseSegment((3,), ("z",), 0.0), "site 3 outside 1..2"),
        ],
        ids=["axis", "mixed-axis", "dense-site", "diagonal-site"],
    )
    def test_zero_angle_bad_segment_still_raises(self, segment, message):
        program = PulseProgram("bad", 2, (PulseSegment((1,), ("x",), 0.1), segment), 1.0)
        with pytest.raises(ValueError, match=re.escape(message)):
            program_matrix(program)


class TestBuildersReadOnlyWitnesses:
    """Program builders take every angle from the schedule's witnesses."""

    @pytest.fixture
    def no_window_config(self, monkeypatch):
        def fail(schedule, label):
            raise AssertionError(f"window_config({label!r}) was called")

        monkeypatch.setattr(GateSchedule, "window_config", fail)

    @pytest.mark.parametrize("name", [*GATE_REGISTRY, *COMPONENT_NAMES])
    def test_every_name_builds_without_a_window_config(self, no_window_config, name):
        assert build_gate(name, CFG).report.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_shared_constants_components_build_without_a_window_config(
        self, no_window_config
    ):
        cfg = PhysicalConfig.natural_units(j_coupling=2.0, b_prime=0.5)
        schedule = gate_timing_table("ccnot", cfg, mode="shared-constants")
        drive = schedule.solutions["t1"].witness_for(ConstraintKind.DRIVE)
        assert (drive.k, drive.constraint.coefficient) == (0, 0.0)
        for spec, pulse in component_pulses(schedule).items():
            report = phase_fidelity(pulse, ideal_component(spec))
            assert report.fidelity == pytest.approx(1.0, abs=1e-12), spec.label

    def test_a_missing_witness_is_named(self, ccnot_schedule):
        sol = ccnot_schedule.solutions["t1"]
        witnesses = tuple(
            w for w in sol.witnesses if w.constraint.kind is not ConstraintKind.EXCHANGE
        )
        solutions = {**ccnot_schedule.solutions, "t1": replace(sol, witnesses=witnesses)}
        schedule = replace(ccnot_schedule, solutions=solutions)
        with pytest.raises(ValueError, match=r"^window t1 has no exchange witness$"):
            component_program(GateSpec("cx_half", 2, 3, 3), schedule)
