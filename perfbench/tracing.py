"""Spans at the boundary of each toolkit module, recorded from outside the program.

``Tracer.install`` replaces every public function of the traced modules,
in every ``waveaction`` module namespace that holds it, with a wrapper
that appends a span (name, start, end, parent, root) to an in-memory list;
``Tracer.restore`` puts every original back.  Spans of one scenario share
the index of its ``runner.run_scenario`` span as their root.  A few
functions also record counts taken from their arguments or result, so
ratios such as assemblies per step are measured where the work happens.
``Wavefunction`` constructions are counted, not spanned: there are
thousands per pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import NamedTuple, Optional

PACKAGE = "waveaction"
LAYERS = ("scenario", "runner", "propagation", "hamiltonian", "variational", "diagnostics", "grids")
TASK_KINDS = ("propagate", "gp-propagate", "verify", "ground-state", "rayleigh-ritz")
BUILD_FUNCTIONS = ("build_grid", "build_config", "build_initial_state", "build_plan")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    root: int
    info: Optional[dict]


def _propagate_info(bound, result) -> dict:
    plan = bound.arguments["plan"]
    return {
        "steps": plan.n_steps,
        "point_steps": plan.n_steps * bound.arguments["psi0"].grid.n_points,
        "snapshots": len(result.snapshots),
    }


# Counts recorded at the boundary, from the bound arguments and the result.
_INFO = {
    "runner.run_scenario": lambda b, r: {"task": b.arguments["scenario"].task["kind"]},
    "propagation.propagate": _propagate_info,
    "propagation.ground_state_imaginary_time": lambda b, r: {
        "iterations": r.iterations,
        "converged": bool(r.converged),
    },
    "variational.rayleigh_ritz_minimize": lambda b, r: {"evaluations": len(r.history)},
}


class Tracer:
    """Wraps the public functions of LAYERS; spans stay in memory until ``reset``."""

    def __init__(self):
        self.spans: list = []
        self.wavefunctions_built = 0
        self._stack: list = []
        self._patched: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.wavefunctions_built = 0

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        info_of = _INFO.get(name)
        signature = inspect.signature(fn) if info_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, root = stack[-1] if stack else (-1, len(spans))
            index = len(spans)
            spans.append(None)
            stack.append((index, root))
            start = time.perf_counter()
            result = info = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if info_of is not None and result is not None:
                    info = info_of(signature.bind(*args, **kwargs), result)
                spans[index] = Span(name, start, end, parent, root, info)

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapped)
        wavefunction = sys.modules[f"{PACKAGE}.grids"].Wavefunction
        post_init = wavefunction.__post_init__

        def counted_post_init(obj):
            self.wavefunctions_built += 1
            post_init(obj)

        self._patch(wavefunction, "__post_init__", counted_post_init)

    def restore(self) -> bool:
        """Put every wrapped attribute back; True when none is left wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        intact = all(getattr(owner, attr) is original for owner, attr, original in self._patched)
        self._patched.clear()
        return intact


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer totals of one traced pass, keyed by metric name."""
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    child_time = defaultdict(float)
    in_propagate = []
    assemble_in_propagate = 0
    for span in spans:
        duration = span.end - span.start
        total[span.name] += duration
        calls[span.name] += 1
        if span.parent >= 0:
            child_time[span.parent] += duration
        inside = span.name == "propagation.propagate" or (span.parent >= 0 and in_propagate[span.parent])
        in_propagate.append(inside)
        if span.name == "hamiltonian.hamiltonian_matrix" and inside:
            assemble_in_propagate += 1
        if span.info:
            for key, value in span.info.items():
                if key == "task":
                    counts[f"task_s.{value}"] += duration
                else:
                    counts[f"{span.name}.{key}"] += value
    runner_self = sum(
        (s.end - s.start) - child_time[i] for i, s in enumerate(spans) if s.name == "runner.run_scenario"
    )
    steps = counts["propagation.propagate.steps"]
    snapshots = counts["propagation.propagate.snapshots"]
    gs_calls = calls["propagation.ground_state_imaginary_time"]
    density_evals = calls["variational.lagrangian_densities"]
    metrics = {
        "scenario.parse_s": total["scenario.parse_scenario_dict"],
        "scenario.build_s": sum(total[f"scenario.{f}"] for f in BUILD_FUNCTIONS),
        **{f"runner.task_s.{k}": counts[f"task_s.{k}"] for k in TASK_KINDS},
        "runner.self_s": runner_self,
        "propagation.propagate_s": total["propagation.propagate"],
        "propagation.steps": steps,
        "propagation.us_per_point_step": _ratio(
            1e6 * total["propagation.propagate"], counts["propagation.propagate.point_steps"]
        ),
        "propagation.ground_state_s": total["propagation.ground_state_imaginary_time"],
        "propagation.gs_iterations": counts["propagation.ground_state_imaginary_time.iterations"],
        "propagation.gs_converged_frac": _ratio(
            counts["propagation.ground_state_imaginary_time.converged"], gs_calls
        ),
        "hamiltonian.assemble_calls": calls["hamiltonian.hamiltonian_matrix"],
        "hamiltonian.assemble_s": total["hamiltonian.hamiltonian_matrix"],
        "hamiltonian.assemble_per_step": _ratio(assemble_in_propagate, steps),
        "hamiltonian.energy_calls": calls["hamiltonian.energy"],
        "hamiltonian.energy_s": total["hamiltonian.energy"],
        "variational.action_calls": calls["variational.action"],
        "variational.action_s": total["variational.action"],
        "variational.density_evals": density_evals,
        "variational.density_evals_per_snapshot": _ratio(density_evals, snapshots),
        "variational.stationarity_s": total["variational.stationarity_test"],
        "variational.reality_s": total["variational.lagrangian_reality_deviations"],
        "variational.rr_s": total["variational.rayleigh_ritz_minimize"],
        "variational.rr_evaluations": counts["variational.rayleigh_ritz_minimize.evaluations"],
        "diagnostics.continuity_s": total["diagnostics.continuity_residual"],
        "diagnostics.hamilton_s": total["diagnostics.hamilton_equations_residual"],
        "grids.wavefunctions_built": tracer.wavefunctions_built,
    }
    return {k: float(v) for k, v in metrics.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
