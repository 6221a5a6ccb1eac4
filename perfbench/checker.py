"""Output oracles for one scenario run, computed from the scenario dict and
the files the runner wrote; nothing here calls the toolkit itself.

- every propagation: norm drift below 1e-10, one diagnostics row per
  recorded step, and the last row at the final time;
- static linear Crank-Nicolson: energy constant to 1e-9 relative;
- verify: the battery's own ``converged`` flag;
- linear ground state: within 1e-8 of the lowest eigenvalue of the
  discrete Hamiltonian (an independent tridiagonal eigensolve);
- condensate ground state: the energy history never increases;
- Rayleigh-Ritz: the energy is at least the discrete ground energy.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.linalg import eigh_tridiagonal

NORM_DRIFT_MAX = 1e-10
CN_ENERGY_REL_MAX = 1e-9
GROUND_ENERGY_ABS_MAX = 1e-8


def _potential(spec: dict, x: np.ndarray) -> np.ndarray:
    if spec["kind"] == "harmonic":
        return 0.5 * spec["omega"] ** 2 * (x - spec["center"]) ** 2
    if spec["kind"] == "quartic":
        return spec["strength"] * (x - spec["center"]) ** 4
    raise ValueError(f"no oracle for potential kind {spec['kind']!r}")


def discrete_ground_energy(scenario: dict) -> float:
    """Lowest eigenvalue of -1/2 d^2/dx^2 + V on the interior of a Dirichlet grid.

    Units are hbar = mass = 1, as in every generated scenario.
    """
    g = scenario["grid"]
    if g["boundary"] != "dirichlet":
        raise ValueError("the eigenvalue oracle covers Dirichlet grids only")
    x = np.linspace(g["x_min"], g["x_max"], g["n_points"])[1:-1]
    dx = (g["x_max"] - g["x_min"]) / (g["n_points"] - 1)
    diag = 1.0 / dx**2 + _potential(scenario["potentials"]["v1"], x)
    off = np.full(len(x) - 1, -0.5 / dx**2)
    return float(eigh_tridiagonal(diag, off, eigvals_only=True, select="i", select_range=(0, 0))[0])


def _read_column(path: Path, column: str) -> np.ndarray:
    with open(path, newline="") as f:
        return np.array([float(row[column]) for row in csv.DictReader(f)])


class Checker:
    """Checks the outputs of a fixed list of scenarios; oracles are computed once."""

    def __init__(self, scenarios: list):
        self.scenarios = scenarios
        self.ground_energy = {
            i: discrete_ground_energy(s)
            for i, s in enumerate(scenarios)
            if s["task"]["kind"] == "rayleigh-ritz"
            or (s["task"]["kind"] == "ground-state" and "interaction" not in s)
        }

    def problems(self, index: int, out_dir: Path) -> list:
        """Every oracle the run at out_dir misses, as readable strings; empty when correct."""
        s = self.scenarios[index]
        kind = s["task"]["kind"]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        summary = manifest["summary"]
        found = []
        if not manifest["converged"]:
            found.append(f"{kind} not converged: {summary.get('checks', '')}")
        if kind in ("propagate", "gp-propagate", "verify"):
            found += self._propagation(s, summary, out_dir)
        elif kind == "ground-state":
            if index in self.ground_energy:
                gap = abs(summary["final_energy"] - self.ground_energy[index])
                if not gap < GROUND_ENERGY_ABS_MAX:
                    found.append(f"ground energy off the discrete eigenvalue by {gap:.3g}")
            else:
                rise = np.diff(_read_column(out_dir / "energy_history.csv", "energy"))
                if np.any(rise > 0.0):
                    found.append(f"condensate energy rose by up to {rise.max():.3g}")
        elif not summary["final_energy"] >= self.ground_energy[index]:
            found.append(
                f"Rayleigh-Ritz energy {summary['final_energy']!r} is below the "
                f"discrete ground energy {self.ground_energy[index]!r}"
            )
        return found

    @staticmethod
    def _propagation(s: dict, summary: dict, out_dir: Path) -> list:
        found = []
        task = s["task"]
        if not summary["norm_drift"] < NORM_DRIFT_MAX:
            found.append(f"norm drift {summary['norm_drift']:.3g}")
        steps = _read_column(out_dir / "diagnostics.csv", "step")
        stride = s["output"]["record_stride"]
        if len(steps) != task["n_steps"] // stride + 1 or steps[-1] != task["n_steps"]:
            found.append(f"recorded steps {steps.tolist()} for {task['n_steps']} steps at stride {stride}")
        if "interaction" not in s and task.get("scheme", "crank-nicolson") == "crank-nicolson":
            e = _read_column(out_dir / "diagnostics.csv", "energy")
            drift = float(np.max(np.abs(e - e[0])) / abs(e[0]))
            if not drift < CN_ENERGY_REL_MAX:
                found.append(f"Crank-Nicolson energy drift {drift:.3g} (relative)")
        return found
