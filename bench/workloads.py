"""Seeded job generators and runners for the four benchmark workloads.

A workload is an endless series of blocks. Every block holds the same
multiset of job slots in a seeded order, and every job draws a fresh seeded
config, so each run measures the same job mix on different inputs. Runs stop
on a block boundary, which keeps the mix of a run exact.

Jobs reach spinforge only through `spinforge.cli.main` (stdout captured,
the `--json` document parsed) or, for the window propagators, through the
public functions. Module attributes are looked up at call time, so wrappers
installed by the traced run see every call.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import checks

GAMMA_SI = 1.76085963e11      # electron gyromagnetic ratio, rad s^-1 T^-1
SEARCH_BOUND = 2000           # witness bound of every shared-constants job

@dataclass
class Job:
    slot: tuple
    check: Callable
    argv: list[str] | None      # CLI job; None for a public-API job
    params: dict


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

def resonant_knobs(rng: random.Random) -> dict:
    """Resonant constants over several decades, in natural or SI units."""
    if rng.random() < 0.5:
        omega = 10 ** rng.uniform(-1, 2)
        return {"natural": True, "gamma": 1.0, "b0": omega, "omega": omega}
    b0 = 10 ** rng.uniform(-2, 1)
    return {"natural": False, "gamma": GAMMA_SI, "b0": b0, "omega": GAMMA_SI * b0}


def config_args(knobs: dict) -> list[str]:
    """CLI flags that reproduce the knobs exactly (floats pass through repr)."""
    args = ["--natural-units"] if knobs["natural"] else ["--gamma", repr(knobs["gamma"])]
    args += ["--b0", repr(knobs["b0"]), "--omega", repr(knobs["omega"])]
    for key, flag in (("b1", "--b1"), ("j", "--j"), ("b_prime", "--b-prime")):
        if key in knobs:
            args += [flag, repr(knobs[key])]
    return args


# ---------------------------------------------------------------------------
# Gate windows: the clock congruence level * omega * t = (2k + residue) pi,
# k >= min witness, of every window (the paper's timing tables).
# ---------------------------------------------------------------------------

_Y = ("1/2", "1/4", 1)
_QUARTER_TURN = ("1", "1/2", 0)
_CZ = ("1", "1/2", 1)
_PHASE3, _CNOT3 = ("1/2", "-1/8", 1), ("1/2", "1/4", 1)
_PHASE4, _CNOT4 = ("1/2", "-1/16", 1), ("1/2", "1/4", 1)

WINDOW_CLOCKS = {
    "not": {"t1": ("1/2", "1/2", 1), "t2": _QUARTER_TURN},
    "cz": {"t1": _CZ},
    "cnot": {"t1": _CZ, "t2": _QUARTER_TURN},
    "ccnot": {
        "t1": _PHASE3, "t2": _Y, "t3": _PHASE3, "t4": _CNOT3,
        "t5": _Y, "t6": _PHASE3, "t7": _Y, "t8": _PHASE3,
    },
    "cccnot": {
        "t1": _PHASE4, "t2": _Y, "t3": _PHASE4, "t4": _CNOT4, "t5": _Y,
        "t6": _PHASE4, "t7": _Y, "t8": _PHASE4, "t9": _CNOT4, "t10": _Y,
        "t11": _PHASE4, "t12": _Y, "t13": _PHASE4, "t14": _CNOT4, "t15": _Y,
    },
}

# Windows that also constrain J and B' in shared-constants mode.
PHASE_WINDOWS = {"ccnot": ("t1", "t6"), "cccnot": ("t1", "t6", "t11")}
CNOT_WINDOWS = {"ccnot": ("t4",), "cccnot": ("t4", "t9", "t14")}


def clock_duration(clock: tuple, omega: float, k: int | None = None) -> float:
    """Duration of a clock witness; the smallest admissible one when k is None."""
    level, residue, min_k = Fraction(clock[0]), Fraction(clock[1]), clock[2]
    if k is None:
        k = min_k
        while 2 * k + residue <= 0:
            k += 1
    return float(2 * k + residue) * math.pi / (float(level) * omega)


def minimal_durations(gate: str, omega: float) -> dict[str, float]:
    return {label: clock_duration(c, omega) for label, c in WINDOW_CLOCKS[gate].items()}


# ---------------------------------------------------------------------------
# build_verify
# ---------------------------------------------------------------------------

WHOLE_GATES = ("not", "cz", "cnot", "ccnot", "cccnot", "hadamard_like")
COMPONENTS_3Q = ("cx_half:2,3", "cx_neg_half:2,3", "cnot:1,2@3", "cx_half:1,3", "cx_neg_half:1,3")
COMPONENTS_4Q = (
    "cx_quarter:1,4", "cx_neg_quarter:1,4", "cnot:1,2@4", "cx_quarter:2,4",
    "cx_neg_quarter:2,4", "cnot:2,3@4", "cx_quarter:3,4", "cx_neg_quarter:3,4",
    "cnot:1,3@4",
)
VERIFY_SCOPES = ("not", "cz", "cnot", "ccnot", "cccnot")


def make_build_verify(slot: tuple, rng: random.Random) -> Job:
    command, gate = slot
    argv = [command, gate, "--json", *config_args(resonant_knobs(rng))]
    check = checks.check_build if command == "build" else checks.check_verify
    return Job(slot, check, argv, {"gate": gate})


# ---------------------------------------------------------------------------
# schedule_solve
# ---------------------------------------------------------------------------

_IRRATIONALS = (math.sqrt(2), math.sqrt(3), math.sqrt(5), (1 + math.sqrt(5)) / 2)


def _shared_knobs(kind: str, gate: str, omega: float, rng: random.Random):
    """J and B' for a shared-constants job, and the constructed window durations.

    Feasible knobs come from chosen witnesses, so the constructed durations
    bound the solver's minimal ones. For ccnot (d = 16, k_clock even) and
    cccnot (d = 32, k_clock divisible by 4) the phase-window clock witness
    k_phase and the CNOT-window clock witness k_clock satisfy
    d k_phase - 1 = (d - 1)(8 k_clock + 1); then J/(2 omega) =
    (8 k_j + 1)/(8 k_clock + 1) and 2B'/omega = (8 k_offset + 1)/(8 k_clock + 1)
    meet both kinds of window. Infeasible kinds return None durations.
    """
    clocks = WINDOW_CLOCKS[gate]
    durations = minimal_durations(gate, omega)
    if gate in ("cz", "cnot"):
        if kind == "early":
            n, p, q = rng.randint(1, 5), rng.randint(0, 5), rng.randint(0, 5)
        elif kind == "late":
            n, p, q = (rng.randint(300, 1200) for _ in range(3))
        if kind in ("early", "late"):
            durations["t1"] = clock_duration(clocks["t1"], omega, n)
            return omega * (4 * p + 2) / (4 * n + 1), omega * (8 * q + 1) / (8 * n + 2), durations
        if kind == "irrational":
            return omega * rng.choice(_IRRATIONALS) * rng.randint(1, 3), omega / 10, None
        return omega * (2 * rng.randint(0, 3) + 1) / (2 * rng.randint(0, 3) + 1), omega / 10, None

    step = 2 if gate == "ccnot" else 4
    if kind in ("early", "late"):
        top = 2 if kind == "early" else rng.randint(10, 45)
        k_clock, k_j, k_offset = (step * rng.randint(max(1, top - 8), top) for _ in range(3))
        d = 16 if gate == "ccnot" else 32
        k_phase = ((d - 1) * (8 * k_clock + 1) + 1) // d
        for label in PHASE_WINDOWS[gate]:
            durations[label] = clock_duration(clocks[label], omega, k_phase)
        for label in CNOT_WINDOWS[gate]:
            durations[label] = clock_duration(clocks[label], omega, k_clock)
        j = 2 * omega * (8 * k_j + 1) / (8 * k_clock + 1)
        return j, omega * (8 * k_offset + 1) / (8 * k_clock + 1) / 2, durations
    if kind == "irrational":
        return 2 * omega * rng.choice(_IRRATIONALS) / rng.randint(1, 3), omega / 2, None
    # Every feasible J/(2 omega) is odd/odd, so an even part cannot be met.
    even_part = rng.choice((Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(1, 4), Fraction(3, 4)))
    return 2 * omega * float(even_part), omega / 2, None


def make_schedule_solve(slot: tuple, rng: random.Random) -> Job:
    kind, gate = slot
    knobs = resonant_knobs(rng)
    if kind == "derive":
        argv = ["schedule", gate, "--csv", *config_args(knobs)]
        params = {"gate": gate, "max_durations": minimal_durations(gate, knobs["omega"])}
        return Job(slot, checks.check_schedule_csv, argv, params)
    j, b_prime, durations = _shared_knobs(kind, gate, knobs["omega"], rng)
    knobs.update(j=j, b_prime=b_prime)
    argv = [
        "schedule", gate, "--mode", "shared-constants",
        "--search-bound", str(SEARCH_BOUND), "--json", *config_args(knobs),
    ]
    if durations is None:
        return Job(slot, checks.check_infeasible, argv, {"gate": gate})
    by_kind = {"zeeman": knobs["omega"], "exchange": j, "offset": b_prime, "drive": 0.0}
    params = {"gate": gate, "knob_by_kind": by_kind, "max_durations": durations}
    return Job(slot, checks.check_schedule_json, argv, params)


# ---------------------------------------------------------------------------
# oracle_propagate
# ---------------------------------------------------------------------------

# RK4 steps per window, fixed so the oracle error stays >= 10x under 1e-6.
PROPAGATE_STEPS = {1: 300, 2: 300, 3: 2000}


def make_oracle_propagate(slot: tuple, rng: random.Random) -> Job:
    gate, label, n = slot
    params = {"gate": gate, "label": label, "n": n, "steps": PROPAGATE_STEPS[n]}
    params["knobs"] = resonant_knobs(rng)
    return Job(slot, checks.check_propagator, None, params)


def propagate_window(sf, params: dict) -> dict:
    """Public-API job: schedule, window config, u_phi and the RK4 lab propagator."""
    k = params["knobs"]
    overrides = {"gamma": k["gamma"], "b0": k["b0"], "omega": k["omega"]}
    cfg = sf.config.resolve_config(natural_units=k["natural"], overrides=overrides)
    schedule = sf.timing.gate_timing_table(params["gate"], cfg)
    window = schedule.window_config(params["label"])
    solution = schedule.solutions[params["label"]]
    settings = sf.oracle.IntegrationSettings(dt=solution.duration / params["steps"])
    u_lab = sf.oracle.lab_propagator(window, params["n"], solution.duration, settings)
    u_gate = sf.gates.u_phi(params["n"], solution, window)
    knobs = {
        "gamma": window.gamma, "b0": window.b0, "b1": window.b1,
        "omega": window.omega, "j": window.j_coupling, "b_prime": window.b_prime,
    }
    return {"duration": solution.duration, "u_lab": u_lab, "u_gate": u_gate, "knobs": knobs}


# ---------------------------------------------------------------------------
# oracle_states
# ---------------------------------------------------------------------------

# RK4 steps of every simulate job: >= 10x under 1e-6 at n = 4 and
# omega * t_final <= 3 pi. One count for every n gives every job the same
# cost (about 50 us per step whatever n is), so the job-time percentiles
# never sit on an edge between sizes.
STATE_STEPS = 1200


def make_oracle_states(slot: tuple, rng: random.Random) -> Job:
    tuning, n = slot
    knobs = resonant_knobs(rng)
    if tuning == "detuned":
        knobs["b0"] /= 1 + rng.choice((-1, 1)) * rng.uniform(0.02, 0.3)
    knobs["b1"] = knobs["b0"] * rng.uniform(0.02, 0.15)
    knobs["j"] = knobs["omega"] * rng.uniform(0.1, 0.5)
    t_final = rng.uniform(1.5, 3.0) * math.pi / knobs["omega"]
    psi0 = "".join(rng.choice("01") for _ in range(n))
    argv = [
        "simulate", "--n", str(n), "--psi0", psi0, "--t-final", repr(t_final),
        "--dt", repr(t_final / STATE_STEPS), "--json", *config_args(knobs),
    ]
    params = {"n": n, "psi0": psi0, "t_final": t_final, "knobs": knobs}
    return Job(slot, checks.check_simulate, argv, params)


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------

MAKERS = {
    "build_verify": make_build_verify,
    "schedule_solve": make_schedule_solve,
    "oracle_propagate": make_oracle_propagate,
    "oracle_states": make_oracle_states,
}
WORKLOADS = tuple(MAKERS)

# Slot multiplicities put the median and the 90th percentile of job time
# inside groups of jobs of about equal cost, away from the edge between two
# groups: on build_verify the median falls among the 4-qubit components and
# the 90th percentile among `build cccnot` / `verify ccnot`; on
# oracle_propagate among the 2-qubit windows and the 3-qubit windows.
BLOCK_SLOTS = {
    "build_verify": [("build", g) for g in WHOLE_GATES + COMPONENTS_3Q + 2 * COMPONENTS_4Q]
    + [("build", "cccnot"), ("verify", "ccnot")]
    + [("verify", g) for g in VERIFY_SCOPES],
    "schedule_solve": [
        (kind, g) for kind in ("early", "late", "irrational", "exhaust")
        for g in ("cz", "cnot", "ccnot", "cccnot")
    ] + [("derive", g) for g in ("not", "cz", "cnot", "ccnot", "cccnot")],
    "oracle_propagate": [("not", "t1", 1)] * 5 + [("cz", "t1", 2)] * 6 + [("cnot", "t1", 2)] * 6
    + [("ccnot", "t1", 3), ("ccnot", "t4", 3), ("ccnot", "t6", 3)],
    "oracle_states": [(tuning, n) for n in (1, 2, 3, 4) for tuning in ("resonant", "detuned")],
}

# A cheap, seed-independent job of each workload, run once before measuring.
WARMUP_SLOT = {
    "build_verify": ("build", "cnot"),
    "schedule_solve": ("early", "cnot"),
    "oracle_propagate": ("not", "t1", 1),
    "oracle_states": ("resonant", 2),
}


def blocks(workload: str, seed: int):
    """Endless seeded blocks of jobs; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}/{seed}")
    make = MAKERS[workload]
    while True:
        slots = list(BLOCK_SLOTS[workload])
        rng.shuffle(slots)
        yield [make(slot, rng) for slot in slots]


def warmup_job(workload: str) -> Job:
    return MAKERS[workload](WARMUP_SLOT[workload], random.Random(f"{workload}/warmup"))


# ---------------------------------------------------------------------------
# Running one job
# ---------------------------------------------------------------------------

def execute(sf, job: Job):
    """Run the program on one job and return its raw output."""
    if job.argv is None:
        return propagate_window(sf, job.params)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sf.cli.main(list(job.argv))
    return code, out.getvalue()


def verify_output(job: Job, output) -> float:
    """The job's independent check; returns its largest residual."""
    if job.argv is None:
        return job.check(job, output)
    return job.check(job, *output)
