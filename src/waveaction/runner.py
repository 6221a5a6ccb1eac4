"""Execute scenarios and persist results in stable formats.

Outputs per run: a fixed-column CSV (diagnostics, or the energy history),
the states as one binary .npy array (``trajectory.npy``, (T, N) complex128,
row k the state at CSV row k; or ``ground_state.npy``, (N,)), and a manifest
JSON with summary scalars and the grid.  Each task returns its outputs as
CSV columns and arrays keyed by file name; ``run_scenario`` writes them and
the manifest through one atomic writer (a temporary name, then a rename).
CSV numbers carry 17 significant digits so doubles round-trip exactly.  A
run that fails with a solver error still writes its manifest, with the
error and the phase it arose in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
import numpy as np

from . import __version__
from .diagnostics import pair_residuals
from .grids import Wavefunction, norm, normalize, norms
from .hamiltonian import energies_of, hamiltonian_at, row_blocks
from .propagation import Trajectory, ground_state_imaginary_time, propagate
from .scenario import (
    Scenario,
    build_config,
    build_grid,
    build_initial_state,
    build_plan,
    scenario_json,
)
from .variational import FAMILIES, MIN_ACTION_RECORDS, action_integrals, rayleigh_ritz_minimize

VERIFY_THRESHOLDS = {
    "norm_drift": 1e-10,
    "reality_max": 1e-6,
    "action_equivalence": 1e-8,
    "stationarity_slope_low": 1.85,
    "stationarity_slope_high": 2.15,
    "continuity_sup_max": 1e-4,
}


CSV_COLUMNS = (
    "step",
    "time",
    "norm",
    "energy",
    "continuity_sup",
    "continuity_l2",
    "action_simple_running",
    "action_standard_running",
    "hamilton_r1",
)


@dataclass
class RunManifest:
    """Summary of one scenario run; every scalar also appears in the output files."""

    name: str
    task: str
    scenario_hash: str
    toolkit_version: str
    wall_time_s: float
    converged: bool
    grid: dict
    summary: dict = field(default_factory=dict)


def _write(path: Path, content) -> None:
    """Write content under a temporary name beside path, then rename it into place.

    content is CSV columns ({name: values}; ints as they are, floats to 17
    significant digits), an array (streamed into the file by np.save) or
    text.  On any error the temporary file is removed and the error re-raised.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as f:
            if isinstance(content, np.ndarray):
                np.save(f, content)
            elif isinstance(content, dict):
                rows = zip(*(np.asarray(values).tolist() for values in content.values()))
                lines = [",".join(content)]
                lines += (",".join(str(v) if isinstance(v, int) else f"{v:.17g}" for v in row) for row in rows)
                f.write(("\n".join(lines) + "\n").encode())
            else:
                f.write(content.encode())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _hash_scenario(scenario: Scenario) -> str:
    return hashlib.sha256(scenario_json(scenario).encode()).hexdigest()


def _diagnostics_columns(cfg, traj: Trajectory, stride: int, integrals) -> dict:
    """The diagnostics CSV's columns in CSV_COLUMNS order, computed a block of rows at a time.

    The norm and energy are those of each row, the continuity norms and the
    Hamilton residual those of the pair it ends (0 at the first row).
    """
    grid, times, amps = traj.grid, traj.times, traj.amplitudes
    n_rows = len(times)
    if integrals is not None:
        run_simple, run_standard = integrals.running("simple"), integrals.running("standard")
    else:
        run_simple = run_standard = np.zeros(n_rows)
    h_at = hamiltonian_at(cfg, grid)
    norm_col, energy_col = np.empty(n_rows), np.empty(n_rows)
    cont_sup, cont_l2, r1 = np.zeros(n_rows), np.zeros(n_rows), np.zeros(n_rows)
    for lo, hi in row_blocks(cfg, grid.n_points, n_rows):
        norm_col[lo:hi] = norms(grid, amps[lo:hi])
        energy_col[lo:hi] = energies_of(cfg, h_at(float(times[lo])), amps[lo:hi])
        first = max(lo, 1)
        if first < hi:
            pairs = pair_residuals(cfg, h_at, grid, times[first - 1 : hi], amps[first - 1 : hi])
            cont_sup[first:hi], cont_l2[first:hi], r1[first:hi] = pairs
    step = np.arange(n_rows) * stride
    return dict(zip(CSV_COLUMNS, (step, times, norm_col, energy_col, cont_sup, cont_l2, run_simple, run_standard, r1)))


class _Phase:
    """The phase a run is in: build, propagate (the solver), analysis or write."""

    name = "build"


def _run_propagation(scenario: Scenario, cfg, grid, phase: _Phase) -> tuple:
    """(converged, summary, outputs) of a propagate, gp-propagate or verify task."""
    psi0 = build_initial_state(scenario, grid)
    plan = build_plan(scenario)
    norm_drift = {"max": 0.0}

    def watch_norm(step, t, psi):
        norm_drift["max"] = max(norm_drift["max"], abs(norm(psi) - 1.0))

    phase.name = "propagate"
    traj = propagate(cfg, psi0, plan, observers=[watch_norm])
    phase.name = "analysis"
    integrals = action_integrals(cfg, traj) if plan.n_records >= MIN_ACTION_RECORDS else None
    columns = _diagnostics_columns(cfg, traj, plan.record_stride, integrals)
    summary = {
        "final_energy": float(columns["energy"][-1]),
        "final_norm": float(columns["norm"][-1]),
        "norm_drift": norm_drift["max"],
        "max_continuity_sup": float(columns["continuity_sup"].max()),
        "action_simple": float(columns["action_simple_running"][-1]),
        "action_standard": float(columns["action_standard_running"][-1]),
        "n_steps": plan.n_steps,
        "record_stride": plan.record_stride,
    }
    converged = True
    if scenario.task["kind"] == "verify":
        slope = integrals.stationarity(_verify_bump(traj), scenario.task["epsilons"]).slope
        th = VERIFY_THRESHOLDS
        slope_band = [th["stationarity_slope_low"], th["stationarity_slope_high"]]
        equivalence = abs(summary["action_simple"] - summary["action_standard"])
        table = (
            ("norm_drift", summary["norm_drift"], th["norm_drift"], operator.lt),
            ("reality_max", float(integrals.reality_deviations().max()), th["reality_max"], operator.lt),
            ("action_equivalence", equivalence, th["action_equivalence"], operator.lt),
            ("stationarity_slope", slope, slope_band, lambda v, band: band[0] < v < band[1]),
            ("continuity_sup", summary["max_continuity_sup"], th["continuity_sup_max"], operator.lt),
        )
        checks = {
            name: {"value": value, "threshold": limit, "passed": rule(value, limit)}
            for name, value, limit, rule in table
        }
        summary["stationarity_slope"] = slope
        summary["checks"] = checks
        converged = all(c["passed"] for c in checks.values())
    return converged, summary, {"diagnostics.csv": columns, "trajectory.npy": traj.amplitudes}


def _run_task(scenario: Scenario, phase: _Phase) -> tuple:
    """(converged, summary, outputs) of the scenario's task; outputs maps file names to CSV columns or arrays."""
    task = scenario.task["kind"]
    cfg = build_config(scenario)
    grid = build_grid(scenario)

    if task in ("propagate", "gp-propagate", "verify"):
        return _run_propagation(scenario, cfg, grid, phase)

    if task == "ground-state":
        psi0 = build_initial_state(scenario, grid)
        phase.name = "propagate"
        result = ground_state_imaginary_time(
            cfg,
            psi0,
            dtau=scenario.task["dtau"],
            tol=scenario.task["tol"],
            max_iter=scenario.task["max_iter"],
        )
        phase.name = "analysis"
        summary = {
            "final_energy": result.energy,
            "iterations": result.iterations,
            "final_norm": norm(result.state),
            "residual": result.residual,
        }
        if scenario.interaction is not None:
            summary["chemical_potential"] = result.chemical_potential
        history = {"iteration": range(len(result.energy_history)), "energy": result.energy_history}
        return result.converged, summary, {"energy_history.csv": history, "ground_state.npy": result.state.amplitudes}

    if task == "rayleigh-ritz":
        family = FAMILIES[scenario.task["family"]]()
        phase.name = "propagate"
        result = rayleigh_ritz_minimize(
            cfg,
            family,
            scenario.task["initial_params"],
            grid=grid,
            max_iter=scenario.task["max_iter"],
        )
        summary = {
            "final_energy": result.energy,
            "parameters": {
                name: float(v) for name, v in zip(family.parameter_names, result.params)
            },
            "evaluations": len(result.history),
        }
        history = {"evaluation": range(len(result.history)), "energy": result.history}
        return result.converged, summary, {"energy_history.csv": history}

    raise ValueError(f"unknown task {task!r}")  # pragma: no cover - parse_scenario guarantees the enum


def run_scenario(scenario: Scenario, out_dir, quiet: bool = False) -> RunManifest:
    """Execute one scenario, writing outputs under out_dir.

    Returns the manifest; convergence failures are flagged there (the CLI
    maps them to exit code 2), I/O errors propagate as OSError.  A solver
    error (RuntimeError or MemoryError, also exit code 2) propagates once a
    manifest with converged false and a summary of the error text and the
    phase it arose in (build, propagate, analysis or write) is written.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    phase = _Phase()

    def write_manifest(converged: bool, summary: dict) -> RunManifest:
        manifest = RunManifest(
            name=scenario.name,
            task=scenario.task["kind"],
            scenario_hash=_hash_scenario(scenario),
            toolkit_version=__version__,
            wall_time_s=time.perf_counter() - started,
            converged=converged,
            grid=dict(scenario.grid),
            summary=summary,
        )
        _write(out_dir / "manifest.json", json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n")
        return manifest

    try:
        converged, summary, outputs = _run_task(scenario, phase)
        phase.name = "write"
        for name, content in outputs.items():
            _write(out_dir / name, content)
    except (RuntimeError, MemoryError) as exc:
        with contextlib.suppress(OSError):  # the solver error, not this write, sets the exit code
            write_manifest(False, {"error": str(exc), "phase": phase.name})
        raise
    manifest = write_manifest(converged, summary)
    if not quiet:
        state = "ok" if converged else "NOT CONVERGED"
        print(f"[{scenario.name}] {manifest.task}: {state} ({manifest.wall_time_s:.2f}s) -> {out_dir}")
    return manifest


def _verify_bump(traj: Trajectory) -> Wavefunction:
    """Default stationarity envelope: a normalized central Gaussian bump."""
    grid = traj.grid
    span = grid.x_max - grid.x_min
    center = 0.5 * (grid.x_max + grid.x_min)
    width = span / 8.0
    amp = np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    return normalize(Wavefunction(grid, amp))
