"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines, or `spinforge verify all` for the CLI equivalent.
"""

import math

import numpy as np
import pytest

from spinforge.config import PhysicalConfig
from spinforge.gates import (
    AUDIT_SPECS_3Q,
    AUDIT_SPECS_4Q,
    CCCNOT_SEQUENCE,
    CCNOT_SEQUENCE,
    GateSpec,
    audit_components,
    canonical_toffoli,
    cnot_2q,
    component_program,
    flagged_components,
    ideal_component,
    ideal_sequence_product,
    not_gate_1q,
    program_matrix,
    pulse_component,
    u_phi,
    x_power,
)
from spinforge.hamiltonians import lab_hamiltonian
from spinforge.operators import pauli
from spinforge.oracle import (
    IntegrationSettings,
    analytic_rotating,
    check_m_constancy,
    convergence_study,
    cross_validate,
    integrate_lab,
    rabi_period,
)
from spinforge.tensor import (
    basis_state,
    dagger,
    hermiticity_defect,
    phase_fidelity,
    unitarity_defect,
)
from spinforge.timing import gate_timing_table

EXACT_TOL = 1e-12
RESIDUAL_TOL = 1e-9
ORACLE_TOL = 1e-6

CFG = PhysicalConfig.natural_units()
CFG_DRIVEN = PhysicalConfig.natural_units(b1=0.05)


def report(number, description, passed, detail):
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] criterion {number}: {description}  ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


@pytest.fixture(scope="module")
def schedules():
    return {
        gate: gate_timing_table(gate, CFG)
        for gate in ("not", "cz", "cnot", "ccnot", "cccnot")
    }


def test_criterion_1_controlled_z(schedules):
    sched = schedules["cz"]
    got = u_phi(2, sched.solutions["t1"], sched.window_config("t1"))
    dev = float(np.max(np.abs(got - np.diag([1, 1, 1, -1]))))
    report(
        1,
        "two-qubit evolution window equals diag(1,1,1,-1)",
        dev <= EXACT_TOL,
        f"max_dev={dev:.3e} tol={EXACT_TOL:.0e}",
    )


def test_criterion_2_cnot_sandwich(schedules):
    got = cnot_2q(schedules["cnot"])
    target = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    dev = float(np.max(np.abs(got - target)))
    report(
        2,
        "y-conjugated window equals the 4x4 CNOT permutation",
        dev <= EXACT_TOL,
        f"max_dev={dev:.3e} tol={EXACT_TOL:.0e}",
    )


def test_criterion_3_not_gate(schedules):
    got = not_gate_1q(schedules["not"])
    dev = float(np.max(np.abs(got - (-1j) * pauli("x"))))
    r = phase_fidelity(got, pauli("x"))
    ok = (
        dev <= EXACT_TOL
        and r.fidelity >= 1 - EXACT_TOL
        and abs(r.global_phase_rad + math.pi / 2) <= EXACT_TOL
    )
    report(
        3,
        "single-qubit composition equals -i X with extracted phase -pi/2",
        ok,
        f"max_dev={dev:.3e} F={r.fidelity:.15f} phase={r.global_phase_rad:+.15f}",
    )


def test_criterion_4_ideal_ccnot_identity():
    prod = ideal_sequence_product(CCNOT_SEQUENCE)
    dev = float(np.max(np.abs(prod - canonical_toffoli(3))))
    report(
        4,
        "five-gate ideal product equals the 8x8 doubly-controlled NOT",
        dev <= EXACT_TOL,
        f"max_dev={dev:.3e} tol={EXACT_TOL:.0e}",
    )


def test_criterion_5_ideal_cccnot_identity():
    prod = ideal_sequence_product(CCCNOT_SEQUENCE)
    dev = float(np.max(np.abs(prod - canonical_toffoli(4))))
    report(
        5,
        "thirteen-gate ideal product equals the 16x16 triply-controlled NOT",
        dev <= EXACT_TOL,
        f"max_dev={dev:.3e} tol={EXACT_TOL:.0e}",
    )


def test_criterion_6_pulse_layer_audit(schedules):
    reports = audit_components()
    labels = {r.gate_label for r in reports}
    expected_specs = AUDIT_SPECS_3Q + AUDIT_SPECS_4Q
    covered = all(spec.label in labels for spec in expected_specs)

    unitary_defects = []
    for n, sched_name, specs in (
        (3, "ccnot", AUDIT_SPECS_3Q),
        (4, "cccnot", AUDIT_SPECS_4Q),
    ):
        sched = schedules[sched_name]
        for spec in specs:
            unitary_defects.append(
                unitarity_defect(pulse_component(spec, sched))
            )
    worst_unitarity = max(unitary_defects)
    flagged = flagged_components(reports)
    ok = covered and len(reports) >= 8 and worst_unitarity <= EXACT_TOL
    detail = (
        f"{len(reports)} reports, worst unitarity defect {worst_unitarity:.3e}, "
        f"{len(flagged)} flagged"
    )
    if flagged:
        detail += " [" + "; ".join(
            f"{r.gate_label} F={r.fidelity:.12f}" for r in flagged
        ) + "]"
    report(6, "fidelity report for every pulse component, all unitary", ok, detail)


def test_criterion_7_timing_solver(schedules):
    worst_residual = max(
        sol.residual
        for sched in schedules.values()
        for sol in sched.solutions.values()
    )

    # Brute-force lattice scan (witnesses <= 50) confirms minimality of
    # every solved window against an independent duration intersection.
    def brute_minimum(constraints, window, bound=50):
        sets = []
        for c in constraints:
            coefficient = float(c.level) * c.kind.knob_value(window)
            if coefficient == 0:
                continue
            values = [
                (2 * k + float(c.residue_over_pi)) * math.pi / coefficient
                for k in range(c.min_witness, bound + 1)
                if 2 * k + float(c.residue_over_pi) > 0
            ]
            sets.append(values)
        for t in sets[0]:
            if all(any(abs(t - s) <= 1e-9 for s in other) for other in sets[1:]):
                return t
        return None

    minimal = True
    for sched in schedules.values():
        for label, sol in sched.solutions.items():
            constraints = [w.constraint for w in sol.witnesses]
            best = brute_minimum(constraints, sched.window_config(label))
            if best is None or abs(best - sol.duration) > 1e-9:
                minimal = False

    cz = schedules["cz"]
    t1 = cz.solutions["t1"].duration
    j = cz.derived["t1"]["j"]
    b_prime = cz.derived["t1"]["b_prime"]
    worked = (
        abs(t1 - 5 * math.pi / 2) <= 1e-12
        and abs(j - 0.4) <= 1e-13
        and abs(b_prime - 0.1) <= 1e-13
    )
    ok = worst_residual <= RESIDUAL_TOL and minimal and worked
    report(
        7,
        "congruence residuals <= 1e-9, minimal durations, worked example exact",
        ok,
        f"worst_residual={worst_residual:.3e} minimal={minimal} "
        f"t1={t1!r} j={j!r} b_prime={b_prime!r}",
    )


def test_criterion_8_rotating_frame_oracle():
    rng = np.random.default_rng(20240817)
    times = rng.uniform(0.0, 10.0 / CFG_DRIVEN.omega, size=100)
    m_dev = check_m_constancy(CFG_DRIVEN, times)

    period = rabi_period(CFG_DRIVEN)
    cv = cross_validate(
        CFG_DRIVEN,
        1,
        basis_state(1, "0"),
        period,
        IntegrationSettings(period / 10_000),
    )

    devs = convergence_study(
        CFG_DRIVEN, 1, basis_state(1, "0"), period, period / 1_000, halvings=2
    )
    ratios = [devs[i] / devs[i + 1] for i in range(len(devs) - 1)]
    fourth_order = all(abs(r - 16) <= 16 * 0.3 for r in ratios)

    ok = m_dev <= EXACT_TOL and cv.max_amp_dev <= ORACLE_TOL and fourth_order
    report(
        8,
        "drive direction constant; integrator matches closed form at O(dt^4)",
        ok,
        f"m_dev={m_dev:.3e} cross_dev={cv.max_amp_dev:.3e} "
        f"ratios={[f'{r:.1f}' for r in ratios]}",
    )


def test_criterion_9_rabi_pi_pulse():
    t_pi = math.pi / (CFG_DRIVEN.gamma * CFG_DRIVEN.b1)
    final = integrate_lab(
        CFG_DRIVEN,
        1,
        basis_state(1, "0"),
        t_pi,
        IntegrationSettings(t_pi / 10_000),
    )
    residual = float(abs(final[0]) ** 2)
    report(
        9,
        "resonant pi pulse transfers the full population",
        residual <= ORACLE_TOL,
        f"|a|^2={residual:.3e} tol={ORACLE_TOL:.0e}",
    )


def test_criterion_10_property_suite(schedules):
    checks = []

    # Unitarity of every built operator.
    built = [
        not_gate_1q(schedules["not"]),
        u_phi(2, schedules["cz"].solutions["t1"], schedules["cz"].window_config("t1")),
        cnot_2q(schedules["cnot"]),
        program_matrix(component_program(GateSpec("cx_half", 2, 3, 3), schedules["ccnot"])),
        program_matrix(component_program(GateSpec("cx_quarter", 1, 4, 4), schedules["cccnot"])),
    ]
    for spec in AUDIT_SPECS_3Q:
        built.append(pulse_component(spec, schedules["ccnot"]))
    for spec in AUDIT_SPECS_4Q:
        built.append(pulse_component(spec, schedules["cccnot"]))
    worst_unitarity = max(unitarity_defect(u) for u in built)
    checks.append(("unitarity", worst_unitarity <= EXACT_TOL))

    # Hermiticity of every Hamiltonian on a sampled time grid.
    cfg_full = PhysicalConfig.natural_units(b1=0.05, j_coupling=0.4, b_prime=0.1)
    worst_herm = max(
        hermiticity_defect(lab_hamiltonian(cfg_full, n, t))
        for n in (1, 2, 3, 4)
        for t in np.linspace(0.0, 20.0, 13)
    )
    checks.append(("hermiticity", worst_herm <= EXACT_TOL))

    # Norm conservation of both propagation paths.
    period = rabi_period(CFG_DRIVEN)
    psi_rk = integrate_lab(
        CFG_DRIVEN, 1, basis_state(1, "0"), period, IntegrationSettings(period / 10_000)
    )
    psi_an = analytic_rotating(CFG_DRIVEN, 1, basis_state(1, "0"), period)
    norm_ok = (
        abs(np.linalg.norm(psi_rk) - 1) <= 1e-8
        and abs(np.linalg.norm(psi_an) - 1) <= EXACT_TOL
    )
    checks.append(("norm conservation", norm_ok))

    # Root powers compose back to the inverter.
    half_ok = np.max(np.abs(x_power(0.5) @ x_power(0.5) - pauli("x"))) <= EXACT_TOL
    q = x_power(0.25)
    quarter_ok = np.max(np.abs(q @ q @ q @ q - pauli("x"))) <= EXACT_TOL
    checks.append(("root powers", half_ok and quarter_ok))

    # Adjoint symmetry of the signed-power components, both layers.
    adjoint_ok = True
    for base, adj, c, t, n, sched in (
        ("cx_half", "cx_neg_half", 2, 3, 3, schedules["ccnot"]),
        ("cx_quarter", "cx_neg_quarter", 3, 4, 4, schedules["cccnot"]),
    ):
        iu = ideal_component(GateSpec(base, c, t, n))
        iv = ideal_component(GateSpec(adj, c, t, n))
        pu = pulse_component(GateSpec(base, c, t, n), sched)
        pv = pulse_component(GateSpec(adj, c, t, n), sched)
        if (
            np.max(np.abs(iv - dagger(iu))) > EXACT_TOL
            or np.max(np.abs(pv - dagger(pu))) > EXACT_TOL
        ):
            adjoint_ok = False
    checks.append(("adjoint symmetry", adjoint_ok))

    failed = [name for name, ok in checks if not ok]
    report(
        10,
        "unitarity, Hermiticity, norm conservation, root powers, adjoints",
        not failed,
        f"worst_unitarity={worst_unitarity:.3e} worst_hermiticity={worst_herm:.3e}"
        + (f" failed={failed}" if failed else ""),
    )
