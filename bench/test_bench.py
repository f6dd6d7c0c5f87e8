"""Tests of the benchmark itself: run with `python3 -m pytest bench -q`."""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

SF = run.import_program()


def first_jobs(workload: str, seed: int, n_blocks: int = 2) -> list:
    generator = workloads.blocks(workload, seed)
    return [job for _ in range(n_blocks) for job in next(generator)]


def job_of(workload: str, slot: tuple, seed: int = 0):
    return next(j for j in first_jobs(workload, seed, 1) if j.slot == slot)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert first_jobs(workload, 7) == first_jobs(workload, 7)
    assert first_jobs(workload, 7) != first_jobs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_block_has_no_failures(workload):
    jobs = first_jobs(workload, 0, 1)
    results = [run.run_job(SF, job) for job in jobs]
    assert [r.error for r in results if r.residual is None] == []


def test_trace_covers_layers_and_restores_functions():
    tracer = spans.Tracer()
    original = SF.gates.expm_pauli
    tracer.install()
    try:
        assert SF.gates.expm_pauli is not original
        assert SF.cli.gate_timing_table is SF.timing.gate_timing_table
        for workload in workloads.WORKLOADS:
            before = {layer: tracer.layer_calls(layer) for layer in spans.LAYERS}
            job = workloads.warmup_job(workload)
            assert run.run_job(SF, job).residual is not None
            touched = {layer for layer in spans.LAYERS if tracer.layer_calls(layer) > before[layer]}
            assert set(run.EXERCISES[workload]) <= touched, workload
            assert not touched & set(run.FORBIDDEN.get(workload, ())), workload
    finally:
        tracer.uninstall()
    assert SF.gates.expm_pauli is original
    assert tracer.self_s["cli.main"] > 0


def test_state_steps_are_computed_from_inputs():
    tracer = spans.Tracer()
    job = job_of("oracle_propagate", ("ccnot", "t4", 3))
    tracer.install()
    try:
        run.run_job(SF, job)
    finally:
        tracer.uninstall()
    assert tracer.counters["oracle.state_steps"] == 8 * workloads.PROPAGATE_STEPS[3]


def cli_output(job):
    code, stdout = workloads.execute(SF, job)
    job.check(job, code, stdout)   # the genuine output passes
    return code, stdout


def test_build_check_rejects_flipped_sign():
    job = job_of("build_verify", ("build", "cnot:1,2@3"))
    code, stdout = cli_output(job)
    doc = checks.json_document(stdout)
    entry = doc["payload"]["pulse_matrix"]["rows"][0][0]
    entry[:] = [-entry[0], -entry[1]]
    with pytest.raises(checks.CheckFailed):
        job.check(job, code, json.dumps(doc))


def test_schedule_checks_reject_perturbed_duration():
    job = job_of("schedule_solve", ("late", "ccnot"))
    code, stdout = cli_output(job)
    doc = checks.json_document(stdout)
    doc["payload"]["windows"][0]["duration_seconds"] *= 1 + 1e-9
    with pytest.raises(checks.CheckFailed):
        job.check(job, code, json.dumps(doc))

    job = job_of("schedule_solve", ("derive", "cccnot"))
    code, stdout = cli_output(job)
    header, first, *rest = stdout.splitlines()
    cells = first.split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed):
        job.check(job, code, "\n".join([header, ",".join(cells), *rest]))


@pytest.mark.parametrize(
    "workload, slot, wrong_code",
    [
        ("build_verify", ("build", "cz"), 1),
        ("build_verify", ("verify", "ccnot"), 1),
        ("schedule_solve", ("early", "cnot"), 2),
        ("schedule_solve", ("exhaust", "cz"), 0),
        ("schedule_solve", ("derive", "not"), 3),
        ("oracle_states", ("detuned", 2), 3),
    ],
)
def test_checks_reject_wrong_exit_code(workload, slot, wrong_code):
    job = job_of(workload, slot)
    _, stdout = cli_output(job)
    with pytest.raises(checks.CheckFailed):
        job.check(job, wrong_code, stdout)


def test_oracle_checks_reject_perturbed_state():
    job = job_of("oracle_propagate", ("cz", "t1", 2))
    output = workloads.execute(SF, job)
    job.check(job, output)
    bad = copy.deepcopy(output)
    bad["u_lab"][1, 1] *= -1
    with pytest.raises(checks.CheckFailed):
        job.check(job, bad)

    job = job_of("oracle_states", ("resonant", 3))
    code, stdout = cli_output(job)
    doc = checks.json_document(stdout)
    doc["payload"]["amplitudes"][0][0] += 1e-5
    with pytest.raises(checks.CheckFailed):
        job.check(job, code, json.dumps(doc))


def test_closed_form_matches_spinforge_reference():
    """The benchmark's closed form agrees with spinforge.oracle.analytic_rotating."""
    knobs = {"gamma": 1.0, "b0": 1.3, "b1": 0.07, "omega": 1.1, "j": 0.4}
    cfg = SF.config.PhysicalConfig(
        gamma=1.0, b0=1.3, b1=0.07, omega=1.1, j_coupling=0.4, b_prime=0.0
    )
    psi0 = np.zeros(8, dtype=complex)
    psi0[5] = 1
    ours = checks.closed_form_propagator(knobs, 3, 2.7) @ psi0
    theirs = SF.oracle.analytic_rotating(cfg, 3, psi0, 2.7)
    assert np.max(np.abs(ours - theirs)) < 1e-12


def test_run_fails_without_program_sources(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build_verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
