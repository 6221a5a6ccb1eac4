"""Execute scenarios and persist results in stable formats.

Outputs per run: a fixed-column CSV (diagnostics, or the energy history),
the states as one binary .npy array (``trajectory.npy``, (T, N) complex128,
row k the state at CSV row k; or ``ground_state.npy``, (N,)), and a manifest
JSON with summary scalars and the grid.  CSV numbers carry 17 significant
digits so doubles round-trip exactly; every file is written to a temporary
name and atomically renamed.
"""

from __future__ import annotations

import hashlib
import json
import operator
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
import numpy as np

from . import __version__
from .diagnostics import continuity_residual, hamilton_equations_residual_of
from .grids import Wavefunction, norm, normalize
from .hamiltonian import chemical_potential, energy_of, hamiltonian_at
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


def _diagnostics_rows(cfg, traj: Trajectory, stride: int, integrals):
    rows = []
    if integrals is not None:
        run_simple, run_standard = integrals.running("simple"), integrals.running("standard")
    else:
        run_simple = run_standard = np.zeros(len(traj.times))
    h_at = hamiltonian_at(cfg, traj.grid)
    previous = None
    for i, (t, amp) in enumerate(zip(traj.times, traj.amplitudes)):
        psi = Wavefunction(traj.grid, amp, t)
        if previous is None:
            cont_sup = cont_l2 = r1 = 0.0
        else:
            report = continuity_residual(cfg, previous, psi)
            cont_sup, cont_l2 = report.sup_norm, report.l2_norm
            r1, _ = hamilton_equations_residual_of(cfg, h_at, previous, psi)
        previous = psi
        rows.append(
            DiagnosticsRecord(
                step=i * stride,
                time=float(t),
                norm=norm(psi),
                energy=energy_of(cfg, h_at(float(t)), psi),
                continuity_sup=cont_sup,
                continuity_l2=cont_l2,
                action_simple_running=float(run_simple[i]),
                action_standard_running=float(run_standard[i]),
                hamilton_r1=r1,
            )
        )
    return rows


def _run_propagation(scenario: Scenario, cfg, grid, out_dir: Path):
    """Propagate and write the CSV and trajectory; the action integrals are None below 3 records."""
    psi0 = build_initial_state(scenario, grid)
    plan = build_plan(scenario)
    norm_drift = {"max": 0.0}

    def watch_norm(step, t, psi):
        norm_drift["max"] = max(norm_drift["max"], abs(norm(psi) - 1.0))

    traj = propagate(cfg, psi0, plan, observers=[watch_norm])
    integrals = action_integrals(cfg, traj) if plan.n_records >= MIN_ACTION_RECORDS else None
    rows = _diagnostics_rows(cfg, traj, plan.record_stride, integrals)
    _write_csv(out_dir / "diagnostics.csv", CSV_COLUMNS, map(operator.attrgetter(*CSV_COLUMNS), rows))
    _write_array(out_dir / "trajectory.npy", traj.amplitudes)
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
    return traj, integrals, summary


def run_scenario(scenario: Scenario, out_dir, quiet: bool = False) -> RunManifest:
    """Execute one scenario, writing outputs under out_dir.

    Returns the manifest; convergence failures are flagged there (the CLI
    maps them to exit code 2), I/O errors propagate as OSError.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    task = scenario.task["kind"]
    cfg = build_config(scenario)
    grid = build_grid(scenario)
    converged = True
    summary: dict = {}

    if task in ("propagate", "gp-propagate"):
        _, _, summary = _run_propagation(scenario, cfg, grid, out_dir)

    elif task == "verify":
        traj, integrals, summary = _run_propagation(scenario, cfg, grid, out_dir)
        s_simple = integrals.action("simple").value
        s_standard = integrals.action("standard").value
        bump = _verify_bump(traj)
        slope = integrals.stationarity(bump, scenario.task["epsilons"]).slope
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

    elif task == "ground-state":
        psi0 = build_initial_state(scenario, grid)
        result = ground_state_imaginary_time(
            cfg,
            psi0,
            dtau=scenario.task["dtau"],
            tol=scenario.task["tol"],
            max_iter=scenario.task["max_iter"],
        )
        _write_csv(
            out_dir / "energy_history.csv",
            ("iteration", "energy"),
            list(enumerate(result.energy_history)),
        )
        _write_array(out_dir / "ground_state.npy", result.state.amplitudes)
        converged = result.converged
        summary = {
            "final_energy": result.energy,
            "iterations": result.iterations,
            "final_norm": norm(result.state),
        }
        if scenario.interaction is not None:
            summary["chemical_potential"] = chemical_potential(cfg, result.state)

    elif task == "rayleigh-ritz":
        family = FAMILIES[scenario.task["family"]]()
        result = rayleigh_ritz_minimize(
            cfg,
            family,
            scenario.task["initial_params"],
            grid=grid,
            max_iter=scenario.task["max_iter"],
        )
        _write_csv(
            out_dir / "energy_history.csv",
            ("evaluation", "energy"),
            list(enumerate(result.history)),
        )
        converged = result.converged
        summary = {
            "final_energy": result.energy,
            "parameters": {
                name: float(v) for name, v in zip(family.parameter_names, result.params)
            },
            "evaluations": len(result.history),
        }

    else:  # pragma: no cover - parse_scenario guarantees the enum
        raise ValueError(f"unknown task {task!r}")

    manifest = RunManifest(
        name=scenario.name,
        task=task,
        scenario_hash=_hash_scenario(scenario),
        toolkit_version=__version__,
        wall_time_s=time.perf_counter() - started,
        converged=converged,
        grid=dict(scenario.grid),
        summary=summary,
    )
    _write_manifest(out_dir / "manifest.json", manifest)
    if not quiet:
        state = "ok" if converged else "NOT CONVERGED"
        print(f"[{scenario.name}] {task}: {state} ({manifest.wall_time_s:.2f}s) -> {out_dir}")
    return manifest


def _verify_bump(traj: Trajectory) -> Wavefunction:
    """Default stationarity envelope: a normalized central Gaussian bump."""
    grid = traj.grid
    span = grid.x_max - grid.x_min
    center = 0.5 * (grid.x_max + grid.x_min)
    width = span / 8.0
    amp = np.exp(-((grid.x - center) ** 2) / (2.0 * width**2))
    return normalize(Wavefunction(grid, amp))
