"""Per-layer spans for the traced run, recorded from outside the program.

Each traced function of spinforge is replaced, in every spinforge module
namespace that binds it, by a wrapper that records a span: its duration
minus the time its child spans cover is the span's self time. Spans are
aggregated in memory per function (calls and self seconds), and a few
hooks add counts of the work each call does.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (module, function, self-time group). A layer is the module; gates splits
# its self time between the pulse layer, the ideal layer and the rest.
TRACED = (
    ("cli", "main", "cli"),
    ("config", "resolve_config", "config"),
    ("timing", "gate_timing_table", "timing"),
    ("timing", "solve_timing", "timing"),
    ("gates", "build_gate", "gates.other"),
    ("gates", "audit_components", "gates.other"),
    ("gates", "program_matrix", "gates.pulse"),
    ("gates", "pulse_component", "gates.pulse"),
    ("gates", "compose_ccnot", "gates.pulse"),
    ("gates", "compose_cccnot", "gates.pulse"),
    ("gates", "not_gate_1q", "gates.pulse"),
    ("gates", "controlled_z_2q", "gates.pulse"),
    ("gates", "cnot_2q", "gates.pulse"),
    ("gates", "u_phi", "gates.pulse"),
    ("gates", "ideal_component", "gates.ideal"),
    ("gates", "ideal_sequence_product", "gates.ideal"),
    ("gates", "canonical_toffoli", "gates.ideal"),
    ("tensor", "expm_pauli", "tensor"),
    ("tensor", "kron", "tensor"),
    ("tensor", "phase_fidelity", "tensor"),
    ("tensor", "matrix_to_json", "tensor"),
    ("operators", "pauli_string", "operators"),
    ("operators", "total_spin", "operators"),
    ("hamiltonians", "lab_hamiltonian", "hamiltonians"),
    ("oracle", "lab_propagator", "oracle"),
    ("oracle", "integrate_lab", "oracle"),
)

LAYERS = tuple(dict.fromkeys(module for module, _, _ in TRACED))


def flops_per_state_step(dim: int) -> int:
    """Real flops of one RK4 state-step, computed from the dimension, not measured.

    Four H(t) assemblies (two real-scaled matrices and two adds, 8 d^2),
    four dense matrix-vector products (8 d^2), and the stage combinations
    and norm (about 30 d).
    """
    return 4 * (8 * dim * dim + 8 * dim * dim) + 30 * dim


def rk4_steps(t_final: float, settings) -> int:
    """Fixed RK4 step count the oracle takes for these inputs."""
    if t_final == 0:
        return 0
    dt = settings.dt if settings is not None else t_final / 10_000
    return max(1, math.ceil(t_final / dt - 1e-12))


@dataclass
class Tracer:
    """Spans aggregated per traced function, plus per-layer work counters."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def _wrap(self, key: str, fn, hook):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[key] += 1
                self_s[key] += elapsed - children[0]
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return traced

    def install(self) -> None:
        """Replace each traced function in every spinforge namespace that binds it.

        Patching only the defining module would miss `from ... import` call
        sites such as `gates.expm_pauli` or `cli.gate_timing_table`.
        """
        if not self._patches:
            modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "spinforge" or name.startswith("spinforge."))]
            for module_name, func_name, _ in TRACED:
                original = getattr(sys.modules[f"spinforge.{module_name}"], func_name)
                key = f"{module_name}.{func_name}"
                wrapper = self._wrap(key, original, HOOKS.get(key))
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def layer_calls(self, layer: str) -> int:
        return sum(c for key, c in self.calls.items() if key.split(".")[0] == layer)

    def group_self_s(self, group: str) -> float:
        """Self seconds of a group ("gates.pulse") or a whole layer ("gates")."""
        layer = group.split(".")[0]
        return sum(
            self.self_s[f"{m}.{f}"] for m, f, g in TRACED
            if m == layer and (g == group or group == layer)
        )


# ---------------------------------------------------------------------------
# Work counters, computed from each call's inputs and outputs
# ---------------------------------------------------------------------------

def _timing_table(tracer, args, kwargs, result, exc):
    if exc is None:
        tracer.counters["timing.windows"] += len(result.solutions)
    elif type(exc).__name__ == "ScheduleInfeasibleError":
        tracer.counters["timing.infeasible"] += 1


def _program_matrix(tracer, args, kwargs, result, exc):
    program = args[0] if args else kwargs["program"]
    tracer.counters["gates.segments"] += len(program.segments)


def _integrate_lab(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    bound = dict(zip(("cfg", "n", "psi0", "t_final", "settings"), args), **kwargs)
    steps = rk4_steps(bound["t_final"], bound.get("settings"))
    tracer.counters["oracle.state_steps"] += steps
    tracer.counters["oracle.flops_computed"] += steps * flops_per_state_step(2 ** bound["n"])


HOOKS = {
    "timing.gate_timing_table": _timing_table,
    "gates.program_matrix": _program_matrix,
    "oracle.integrate_lab": _integrate_lab,
}
