"""spinforge benchmark: four checked workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload build_verify --seed 1 --seconds 55 --trace 0

One single-threaded process drives spinforge as a closed loop with one
client: each job starts only after the previous one has returned. Every job
draws a fresh seeded config (the program sees only the generated argv or
arguments) and its output is checked against a reference the benchmark
computes itself (checks.py); a job that fails its check counts as failed.

--trace 0 reports the end-to-end metrics:
  setup_s       median over fresh processes of importing numpy and spinforge
                plus one unmeasured warm-up job
  jobs_per_s    jobs completed per second of job time (generation and
                checking excluded)
  job_p50_s     median wall time of one job, each job counted at the mean
                time of its slot (job kind) over the run
  job_p90_s     90th percentile, counted the same way; the run lasts at
                least MIN_JOBS jobs so that ten or more lie beyond it
  peak_rss_mib  peak resident memory of this process (ru_maxrss)
The failed ratio is printed as `failed_ratio` and carried by the result's
`attempted` and `failed` fields.

--trace 1 runs a fixed number of blocks twice per job, untraced and then
traced, and reports per-layer call counts, self times, work counters and
residuals (spans.py), plus the tracing overhead. It fails when a layer the
workload exercises records no span, or when the oracle runs on
build_verify or schedule_solve.

BENCHMARK.json lists build_verify and oracle_propagate, which between them
exercise every layer; schedule_solve and oracle_states run the same way when
named on the command line.

The last line of stdout is the JSON result. The exit code is non-zero, and
no result is printed, when spinforge cannot be imported from this checkout.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"   # before numpy is imported, here and in every probe

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
import warnings
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
MIN_JOBS = 110          # p90 of 110 samples leaves ten beyond it
PROBE_TIMEOUT_S = 60
REPORTED_FAILURES = 5

# Blocks of the traced run: fixed, so its counts repeat exactly per seed.
TRACE_BLOCKS = {"build_verify": 10, "schedule_solve": 40, "oracle_propagate": 2, "oracle_states": 20}

# Layers each workload must record spans in, and layers it must not touch.
EXERCISES = {
    "build_verify": ("cli", "config", "timing", "gates", "tensor", "operators"),
    "schedule_solve": ("cli", "config", "timing"),
    "oracle_propagate": ("config", "timing", "gates", "tensor", "operators", "hamiltonians", "oracle"),
    "oracle_states": ("cli", "config", "tensor", "operators", "hamiltonians", "oracle"),
}
FORBIDDEN = {"build_verify": ("oracle",), "schedule_solve": ("oracle",)}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(1)


def import_program() -> types.SimpleNamespace:
    """Import numpy and spinforge from this checkout's src/ directory."""
    sys.path.insert(0, str(SRC))
    try:
        import numpy  # noqa: F401
        from spinforge import cli, config, gates, oracle, timing
    except ImportError as exc:
        fail(f"cannot import spinforge from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        fail(f"spinforge was imported from {cli.__file__}, not from {SRC}")
    return types.SimpleNamespace(cli=cli, config=config, gates=gates, oracle=oracle, timing=timing)


@dataclass
class JobResult:
    seconds: float
    warnings: int
    residual: float | None     # None when the job failed
    error: str = ""


def run_job(sf, job) -> JobResult:
    """Run one job with warnings recorded (not printed), then check its output."""
    import workloads

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            output = workloads.execute(sf, job)
        except (Exception, SystemExit) as exc:
            output = exc
        seconds = time.perf_counter() - start
    n_warnings = sum(issubclass(w.category, UserWarning) for w in caught)
    if isinstance(output, BaseException):
        return JobResult(seconds, n_warnings, None, f"raised {output!r}")
    try:
        return JobResult(seconds, n_warnings, workloads.verify_output(job, output))
    except Exception as exc:
        return JobResult(seconds, n_warnings, None, f"check failed: {exc!r}")


def count_failure(job, result: JobResult, failed: int) -> int:
    """Failures so far, counting this result; the first few go to stderr."""
    if result.residual is not None:
        return failed
    if failed < REPORTED_FAILURES:
        print(f"bench: job {job.slot} failed: {result.error[:300]}", file=sys.stderr)
    return failed + 1


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup_probe(workload: str) -> None:
    """Fresh-process set-up: imports plus the warm-up job, printed as JSON."""
    start = time.perf_counter()
    sf = import_program()
    import workloads

    result = run_job(sf, workloads.warmup_job(workload))
    seconds = time.perf_counter() - start
    if result.residual is None:
        fail(f"warm-up job failed: {result.error}")
    print(json.dumps({"setup_s": seconds}))


def measure_setup(workload: str) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def provenance(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, cwd=ROOT,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "spinforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def end_to_end(sf, args) -> tuple[dict, int, int]:
    """Closed loop over whole blocks until --seconds of jobs and MIN_JOBS are done."""
    import workloads

    setup = measure_setup(args.workload)
    warmup = workloads.warmup_job(args.workload)
    failed = count_failure(warmup, run_job(sf, warmup), 0)
    # Only times are kept, per job slot, so memory does not grow with the job count.
    by_slot: dict[tuple, list[float]] = {}
    busy = 0.0
    for block in workloads.blocks(args.workload, args.seed):
        for job in block:
            result = run_job(sf, job)
            failed = count_failure(job, result, failed)
            by_slot.setdefault(job.slot, []).append(result.seconds)
            busy += result.seconds
        if busy >= args.seconds and sum(map(len, by_slot.values())) >= MIN_JOBS:
            break
    # Each job counts at the mean time of its slot over the run. On a shared
    # host whose speed switches between levels for seconds at a time, a plain
    # percentile jumps with the share of slow seconds in a run; slot means
    # move in proportion to it.
    times = sorted(statistics.fmean(ts) for ts in by_slot.values() for _ in ts)
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    beyond = sum(t > p90 for t in times)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "jobs_per_s": (len(times) / busy, "1/s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (p90, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print(f"setup_s over {len(setup)} fresh processes: {[round(s, 4) for s in setup]}")
    print(f"job_p50_s, job_p90_s over {len(times)} jobs of {len(by_slot)} slots, {beyond} beyond p90")
    print(f"failed_ratio = {failed / len(times):.6g} ({failed} of {len(times)} jobs)")
    return metrics, len(times), failed


def traced(sf, args) -> tuple[dict, int, int]:
    """Each job of a fixed job list runs untraced, then traced."""
    import checks
    import spans
    import workloads

    warmup = workloads.warmup_job(args.workload)
    failed = count_failure(warmup, run_job(sf, warmup), 0)
    generator = workloads.blocks(args.workload, args.seed)
    jobs = [job for _ in range(TRACE_BLOCKS[args.workload]) for job in next(generator)]
    tracer = spans.Tracer()
    plain, results = [], []
    for job in jobs:
        plain.append(run_job(sf, job))
        tracer.install()
        try:
            results.append(run_job(sf, job))
        finally:
            tracer.uninstall()
        failed = count_failure(job, plain[-1] if plain[-1].residual is None else results[-1], failed)

    missing = [layer for layer in EXERCISES[args.workload] if not tracer.layer_calls(layer)]
    stray = [layer for layer in FORBIDDEN.get(args.workload, ()) if tracer.layer_calls(layer)]
    if missing or stray:
        fail(f"trace of {args.workload}: no spans in {missing}, unexpected spans in {stray}")

    worst = dict.fromkeys(checks.TOLERANCE, 0.0)
    for job, r in zip(jobs, results):
        name = checks.RESIDUAL_METRIC.get(job.check)
        if name and r.residual is not None:
            worst[name] = max(worst[name], r.residual)
    margin = {name: worst[name] / tol for name, tol in checks.TOLERANCE.items()}

    c, s, n = tracer.calls, tracer.self_s, tracer.counters
    oracle_self = tracer.group_self_s("oracle")
    overhead = sum(r.seconds for r in results) / sum(r.seconds for r in plain)
    metrics = {
        "cli.main.calls": (c["cli.main"], "count"),
        "cli.self_s": (tracer.group_self_s("cli"), "s"),
        "config.resolve_config.calls": (c["config.resolve_config"], "count"),
        "config.self_s": (tracer.group_self_s("config"), "s"),
        "config.warnings": (sum(r.warnings for r in results), "count"),
        "timing.gate_timing_table.calls": (c["timing.gate_timing_table"], "count"),
        "timing.solve_timing.calls": (c["timing.solve_timing"], "count"),
        "timing.self_s": (tracer.group_self_s("timing"), "s"),
        "timing.windows": (int(n["timing.windows"]), "count"),
        "timing.infeasible": (int(n["timing.infeasible"]), "count"),
        "timing.max_residual_rad": (worst["timing.max_residual_rad"], "rad"),
        "timing.residual_margin": (margin["timing.max_residual_rad"], "ratio"),
        "gates.build_gate.calls": (c["gates.build_gate"], "count"),
        "gates.program_matrix.calls": (c["gates.program_matrix"], "count"),
        "gates.segments": (int(n["gates.segments"]), "count"),
        "gates.self_s": (tracer.group_self_s("gates"), "s"),
        "gates.pulse.self_s": (tracer.group_self_s("gates.pulse"), "s"),
        "gates.ideal.self_s": (tracer.group_self_s("gates.ideal"), "s"),
        "gates.max_dev": (worst["gates.max_dev"], "1"),
        "gates.max_dev_margin": (margin["gates.max_dev"], "ratio"),
        "tensor.expm_pauli.calls": (c["tensor.expm_pauli"], "count"),
        "tensor.expm_pauli.self_s": (s["tensor.expm_pauli"], "s"),
        "tensor.kron.calls": (c["tensor.kron"], "count"),
        "tensor.phase_fidelity.calls": (c["tensor.phase_fidelity"], "count"),
        "tensor.phase_fidelity.self_s": (s["tensor.phase_fidelity"], "s"),
        "tensor.matrix_to_json.self_s": (s["tensor.matrix_to_json"], "s"),
        "operators.pauli_string.calls": (c["operators.pauli_string"], "count"),
        "operators.pauli_string.self_s": (s["operators.pauli_string"], "s"),
        "operators.total_spin.calls": (c["operators.total_spin"], "count"),
        "hamiltonians.lab_hamiltonian.calls": (c["hamiltonians.lab_hamiltonian"], "count"),
        "hamiltonians.self_s": (tracer.group_self_s("hamiltonians"), "s"),
        "oracle.lab_propagator.calls": (c["oracle.lab_propagator"], "count"),
        "oracle.integrate_lab.calls": (c["oracle.integrate_lab"], "count"),
        "oracle.self_s": (oracle_self, "s"),
        "oracle.state_steps": (int(n["oracle.state_steps"]), "count"),
        "oracle.state_steps_per_s": (n["oracle.state_steps"] / oracle_self if oracle_self else 0.0, "1/s"),
        "oracle.flops_computed": (int(n["oracle.flops_computed"]), "flop"),
        "oracle.max_dev": (worst["oracle.max_dev"], "1"),
        "oracle.max_dev_margin": (margin["oracle.max_dev"], "ratio"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.jobs": (len(jobs), "count"),
    }
    print(f"traced {len(jobs)} jobs; traced/untraced job time = {overhead:.4f}")
    return metrics, len(jobs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXERCISES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    if not (SRC / "spinforge").is_dir():
        fail(f"no spinforge sources under {SRC}")
    run = traced if args.trace else end_to_end
    sf = import_program()
    metrics, attempted, failed = run(sf, args)
    print("provenance: " + json.dumps(provenance(args), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
