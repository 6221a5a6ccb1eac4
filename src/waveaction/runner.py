"""Execute scenarios and persist results in stable formats.

Outputs per run: a fixed-column CSV (diagnostics, or the energy history),
the states as one binary .npy array (``trajectory.npy``, (T, N) complex128,
row k the state at CSV row k; or ``ground_state.npy``, (N,)), and a manifest
JSON with summary scalars and the grid.  CSV numbers carry 17 significant
digits so doubles round-trip exactly; every file is written to a temporary
name and atomically renamed.  A run that fails with a solver error still
writes its manifest, with the error and the phase it arose in.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
import numpy as np

from . import __version__
from .diagnostics import pair_residuals
from .grids import Wavefunction, norm, normalize, norms
from .hamiltonian import chemical_potential, energies_of, hamiltonian_at, row_blocks
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


@dataclass(frozen=True, eq=False)
class DiagnosticsRecord:
    """One row of the per-step diagnostics CSV."""

    step: int
    time: float
    norm: float
    energy: float
    continuity_sup: float
    continuity_l2: float
    action_simple_running: float
    action_standard_running: float
    hamilton_r1: float


CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord))


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

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v) if isinstance(v, int) else _fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_array(path: Path, array: np.ndarray) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as f:
        np.save(f, array)
    tmp.replace(path)


def _write_manifest(path: Path, manifest: RunManifest) -> None:
    _atomic_write(path, json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")


def _hash_scenario(scenario: Scenario) -> str:
    return hashlib.sha256(scenario_json(scenario).encode()).hexdigest()


def _diagnostics_rows(cfg, traj: Trajectory, stride: int, integrals) -> list:
    """One DiagnosticsRecord per recorded state; the columns are computed a block of rows at a time.

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
    return [
        DiagnosticsRecord(
            step=i * stride,
            time=float(times[i]),
            norm=float(norm_col[i]),
            energy=float(energy_col[i]),
            continuity_sup=float(cont_sup[i]),
            continuity_l2=float(cont_l2[i]),
            action_simple_running=float(run_simple[i]),
            action_standard_running=float(run_standard[i]),
            hamilton_r1=float(r1[i]),
        )
        for i in range(n_rows)
    ]


class _Phase:
    """The phase a run is in: build, propagate (the solver), analysis or write."""

    name = "build"


def _run_propagation(scenario: Scenario, cfg, grid, out_dir: Path, phase: _Phase) -> tuple:
    """(converged, summary) of a propagate, gp-propagate or verify task, once its CSV and trajectory are written."""
    psi0 = build_initial_state(scenario, grid)
    plan = build_plan(scenario)
    norm_drift = {"max": 0.0}

    def watch_norm(step, t, psi):
        norm_drift["max"] = max(norm_drift["max"], abs(norm(psi) - 1.0))

    phase.name = "propagate"
    traj = propagate(cfg, psi0, plan, observers=[watch_norm])
    phase.name = "analysis"
    integrals = action_integrals(cfg, traj) if plan.n_records >= MIN_ACTION_RECORDS else None
    rows = _diagnostics_rows(cfg, traj, plan.record_stride, integrals)
    summary = {
        "final_energy": rows[-1].energy,
        "final_norm": rows[-1].norm,
        "norm_drift": norm_drift["max"],
        "max_continuity_sup": max(r.continuity_sup for r in rows),
        "action_simple": rows[-1].action_simple_running,
        "action_standard": rows[-1].action_standard_running,
        "n_steps": plan.n_steps,
        "record_stride": plan.record_stride,
    }
    converged = True
    if scenario.task["kind"] == "verify":
        s_simple = integrals.action("simple").value
        s_standard = integrals.action("standard").value
        slope = integrals.stationarity(_verify_bump(traj), scenario.task["epsilons"]).slope
        th = VERIFY_THRESHOLDS
        slope_band = [th["stationarity_slope_low"], th["stationarity_slope_high"]]
        table = (
            ("norm_drift", summary["norm_drift"], th["norm_drift"], operator.lt),
            ("reality_max", float(integrals.reality_deviations().max()), th["reality_max"], operator.lt),
            ("action_equivalence", abs(s_simple - s_standard), th["action_equivalence"], operator.lt),
            ("stationarity_slope", slope, slope_band, lambda v, band: band[0] < v < band[1]),
            ("continuity_sup", summary["max_continuity_sup"], th["continuity_sup_max"], operator.lt),
        )
        checks = {
            name: {"value": value, "threshold": limit, "passed": rule(value, limit)}
            for name, value, limit, rule in table
        }
        summary["action_simple"] = s_simple
        summary["action_standard"] = s_standard
        summary["stationarity_slope"] = slope
        summary["checks"] = checks
        converged = all(c["passed"] for c in checks.values())
    phase.name = "write"
    _write_csv(out_dir / "diagnostics.csv", CSV_COLUMNS, map(operator.attrgetter(*CSV_COLUMNS), rows))
    _write_array(out_dir / "trajectory.npy", traj.amplitudes)
    return converged, summary


def _run_task(scenario: Scenario, out_dir: Path, phase: _Phase) -> tuple:
    """(converged, summary) of the scenario's task, once its files are written under out_dir."""
    task = scenario.task["kind"]
    cfg = build_config(scenario)
    grid = build_grid(scenario)

    if task in ("propagate", "gp-propagate", "verify"):
        return _run_propagation(scenario, cfg, grid, out_dir, phase)

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
        }
        if scenario.interaction is not None:
            summary["chemical_potential"] = chemical_potential(cfg, result.state)
        phase.name = "write"
        _write_csv(
            out_dir / "energy_history.csv",
            ("iteration", "energy"),
            list(enumerate(result.energy_history)),
        )
        _write_array(out_dir / "ground_state.npy", result.state.amplitudes)
        return result.converged, summary

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
        phase.name = "write"
        _write_csv(
            out_dir / "energy_history.csv",
            ("evaluation", "energy"),
            list(enumerate(result.history)),
        )
        summary = {
            "final_energy": result.energy,
            "parameters": {
                name: float(v) for name, v in zip(family.parameter_names, result.params)
            },
            "evaluations": len(result.history),
        }
        return result.converged, summary

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

    def manifest_of(converged: bool, summary: dict) -> RunManifest:
        return RunManifest(
            name=scenario.name,
            task=scenario.task["kind"],
            scenario_hash=_hash_scenario(scenario),
            toolkit_version=__version__,
            wall_time_s=time.perf_counter() - started,
            converged=converged,
            grid=dict(scenario.grid),
            summary=summary,
        )

    try:
        converged, summary = _run_task(scenario, out_dir, phase)
    except (RuntimeError, MemoryError) as exc:
        failure = manifest_of(False, {"error": str(exc), "phase": phase.name})
        with contextlib.suppress(OSError):  # the solver error, not this write, sets the exit code
            _write_manifest(out_dir / "manifest.json", failure)
        raise
    manifest = manifest_of(converged, summary)
    _write_manifest(out_dir / "manifest.json", manifest)
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
