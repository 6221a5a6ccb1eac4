"""Scenario files: a strict, versioned JSON schema for batch runs.

Every default is materialized at parse time, unknown keys anywhere in the
tree are hard errors (reported with their key path), and parse ->
serialize -> parse is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import Grid, Wavefunction, gaussian_wavepacket, make_grid, normalize
from .hamiltonian import (
    HamiltonianConfig,
    PhysicalConstants,
    PotentialField,
    TwoBodyInteraction,
)
from .propagation import PropagationPlan

SPEC_VERSION = 1

TASK_KINDS = ("propagate", "gp-propagate", "ground-state", "rayleigh-ritz", "verify")
_POTENTIAL_KINDS = ("free", "harmonic", "quartic", "box", "sampled")
_STATE_KINDS = ("gaussian", "random")
_FAMILY_NAMES = ("gaussian", "gaussian-phase", "box-sine")


class ScenarioError(ValueError):
    """Schema violation; the message carries the offending key path."""


@dataclass(frozen=True)
class Scenario:
    """Fully validated, defaults-materialized description of one run."""

    name: str
    spec_version: int
    grid: dict
    constants: dict
    potentials: dict
    interaction: Optional[dict]
    initial_state: dict
    rng_seed: Optional[int]
    task: dict
    output: dict


def _fail(path: str, message: str) -> None:
    raise ScenarioError(f"{path}: {message}")


def _check_keys(d: dict, path: str, allowed) -> None:
    if not isinstance(d, dict):
        _fail(path, f"expected an object, got {type(d).__name__}")
    for key in d:
        if key not in allowed:
            _fail(path, f"unknown key {key!r} (allowed: {sorted(allowed)})")


def _get_number(d: dict, path: str, key: str, default=None, required: bool = False) -> float:
    if key not in d:
        if required:
            _fail(path, f"missing required key {key!r}")
        return float(default)
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(f"{path}.{key}", f"expected a number, got {v!r}")
    if not np.isfinite(v):
        _fail(f"{path}.{key}", "must be finite")
    return float(v)


def _get_int(d: dict, path: str, key: str, default=None, required: bool = False) -> int:
    if key not in d:
        if required:
            _fail(path, f"missing required key {key!r}")
        return int(default)
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _get_str(d: dict, path: str, key: str, default=None, required: bool = False, choices=None) -> str:
    if key not in d:
        if required:
            _fail(path, f"missing required key {key!r}")
        v = default
    else:
        v = d[key]
    if not isinstance(v, str):
        _fail(f"{path}.{key}", f"expected a string, got {v!r}")
    if choices is not None and v not in choices:
        _fail(f"{path}.{key}", f"must be one of {list(choices)}, got {v!r}")
    return v


def _parse_grid(d: dict, path: str) -> dict:
    _check_keys(d, path, {"x_min", "x_max", "n_points", "boundary"})
    x_min = _get_number(d, path, "x_min", required=True)
    x_max = _get_number(d, path, "x_max", required=True)
    n_points = _get_int(d, path, "n_points", required=True)
    boundary = _get_str(d, path, "boundary", default="dirichlet", choices=("dirichlet", "periodic"))
    if n_points < 8:
        _fail(f"{path}.n_points", f"must be at least 8, got {n_points}")
    if not x_max > x_min:
        _fail(path, f"x_max must exceed x_min, got [{x_min}, {x_max}]")
    return {"x_min": x_min, "x_max": x_max, "n_points": n_points, "boundary": boundary}


def _parse_constants(d: dict, path: str) -> dict:
    _check_keys(d, path, {"hbar", "mass", "charge"})
    out = {
        "hbar": _get_number(d, path, "hbar", default=1.0),
        "mass": _get_number(d, path, "mass", default=1.0),
        "charge": _get_number(d, path, "charge", default=1.0),
    }
    if out["hbar"] <= 0:
        _fail(f"{path}.hbar", "must be positive")
    if out["mass"] <= 0:
        _fail(f"{path}.mass", "must be positive")
    return out


def _parse_potential(d: dict, path: str) -> dict:
    kind = _get_str(d, path, "kind", default="free", choices=_POTENTIAL_KINDS)
    if kind == "free":
        _check_keys(d, path, {"kind"})
        return {"kind": "free"}
    if kind == "harmonic":
        _check_keys(d, path, {"kind", "omega", "center"})
        return {
            "kind": "harmonic",
            "omega": _get_number(d, path, "omega", default=1.0),
            "center": _get_number(d, path, "center", default=0.0),
        }
    if kind == "quartic":
        _check_keys(d, path, {"kind", "strength", "center"})
        return {
            "kind": "quartic",
            "strength": _get_number(d, path, "strength", default=1.0),
            "center": _get_number(d, path, "center", default=0.0),
        }
    if kind == "box":
        _check_keys(d, path, {"kind", "height", "half_width", "center"})
        out = {
            "kind": "box",
            "height": _get_number(d, path, "height", required=True),
            "half_width": _get_number(d, path, "half_width", required=True),
            "center": _get_number(d, path, "center", default=0.0),
        }
        if out["half_width"] <= 0:
            _fail(f"{path}.half_width", "must be positive")
        return out
    # sampled
    _check_keys(d, path, {"kind", "values"})
    values = d.get("values")
    if not isinstance(values, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    ):
        _fail(f"{path}.values", "expected a list of numbers")
    return {"kind": "sampled", "values": [float(v) for v in values]}


def _parse_potentials(d: dict, path: str) -> dict:
    _check_keys(d, path, {"v1", "a0", "a"})
    return {
        "v1": _parse_potential(d.get("v1", {}), f"{path}.v1"),
        "a0": _parse_potential(d.get("a0", {}), f"{path}.a0"),
        "a": _parse_potential(d.get("a", {}), f"{path}.a"),
    }


def _parse_interaction(d, path: str) -> Optional[dict]:
    if d is None:
        return None
    kind = _get_str(d, path, "kind", required=True, choices=("contact", "kernel"))
    n = _get_int(d, path, "n_particles", required=True)
    if n < 1:
        _fail(f"{path}.n_particles", "must be at least 1")
    if kind == "contact":
        _check_keys(d, path, {"kind", "g", "n_particles"})
        return {"kind": "contact", "g": _get_number(d, path, "g", required=True), "n_particles": n}
    _check_keys(d, path, {"kind", "kernel", "n_particles"})
    kernel = d.get("kernel")
    if not isinstance(kernel, list) or not all(isinstance(row, list) for row in kernel):
        _fail(f"{path}.kernel", "expected a matrix (list of rows)")
    return {"kind": "kernel", "kernel": [[float(v) for v in row] for row in kernel], "n_particles": n}


def _parse_initial_state(d: dict, path: str) -> dict:
    kind = _get_str(d, path, "kind", default="gaussian", choices=_STATE_KINDS)
    if kind == "gaussian":
        _check_keys(d, path, {"kind", "center", "width", "wavenumber"})
        out = {
            "kind": "gaussian",
            "center": _get_number(d, path, "center", default=0.0),
            "width": _get_number(d, path, "width", default=1.0),
            "wavenumber": _get_number(d, path, "wavenumber", default=0.0),
        }
        if out["width"] <= 0:
            _fail(f"{path}.width", "must be positive")
        return out
    _check_keys(d, path, {"kind", "smoothing"})
    out = {"kind": "random", "smoothing": _get_number(d, path, "smoothing", default=1.0)}
    if out["smoothing"] <= 0:
        _fail(f"{path}.smoothing", "must be positive")
    return out


def _parse_task(d: dict, path: str, has_interaction: bool) -> dict:
    kind = _get_str(d, path, "kind", required=True, choices=TASK_KINDS)
    if kind in ("propagate", "gp-propagate", "verify"):
        allowed = {"kind", "dt", "n_steps", "t_start", "scheme"}
        if kind == "verify":
            allowed |= {"epsilons"}
        _check_keys(d, path, allowed)
        out = {
            "kind": kind,
            "dt": _get_number(d, path, "dt", default=1e-3),
            "n_steps": _get_int(d, path, "n_steps", default=400 if kind == "verify" else None,
                                required=kind != "verify"),
            "t_start": _get_number(d, path, "t_start", default=0.0),
            "scheme": _get_str(d, path, "scheme", default="crank-nicolson",
                               choices=("crank-nicolson", "split-operator")),
        }
        if out["dt"] <= 0:
            _fail(f"{path}.dt", "must be positive")
        if out["n_steps"] < 0:
            _fail(f"{path}.n_steps", "must be non-negative")
        if kind == "gp-propagate" and not has_interaction:
            _fail(path, "gp-propagate requires an interaction section")
        if kind in ("propagate", "verify") and has_interaction:
            _fail(path, f"{kind} is the linear task; use gp-propagate for interactions")
        if kind == "verify":
            eps = d.get("epsilons", [1e-2, 1e-3, 1e-4])
            if not isinstance(eps, list) or len(eps) < 2 or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0 for v in eps
            ):
                _fail(f"{path}.epsilons", "expected a list of at least two positive numbers")
            out["epsilons"] = [float(v) for v in eps]
        return out
    if kind == "ground-state":
        _check_keys(d, path, {"kind", "dtau", "tol", "max_iter"})
        out = {
            "kind": kind,
            "dtau": _get_number(d, path, "dtau", default=0.1),
            "tol": _get_number(d, path, "tol", default=1e-10),
            "max_iter": _get_int(d, path, "max_iter", default=1_000_000),
        }
        if out["dtau"] <= 0:
            _fail(f"{path}.dtau", "must be positive")
        if out["tol"] < 0:
            _fail(f"{path}.tol", "must be non-negative")
        if out["max_iter"] < 1:
            _fail(f"{path}.max_iter", "must be at least 1")
        return out
    # rayleigh-ritz
    _check_keys(d, path, {"kind", "family", "initial_params", "max_iter"})
    out = {
        "kind": kind,
        "family": _get_str(d, path, "family", default="gaussian", choices=_FAMILY_NAMES),
        "max_iter": _get_int(d, path, "max_iter", default=500),
    }
    params = d.get("initial_params", [0.0, 1.0])
    if not isinstance(params, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in params
    ):
        _fail(f"{path}.initial_params", "expected a list of numbers")
    out["initial_params"] = [float(v) for v in params]
    if out["max_iter"] < 1:
        _fail(f"{path}.max_iter", "must be at least 1")
    return out


def parse_scenario_dict(data: dict) -> Scenario:
    """Validate a raw dict and materialize every default."""
    _check_keys(
        data,
        "scenario",
        {
            "spec_version",
            "name",
            "grid",
            "constants",
            "potentials",
            "interaction",
            "initial_state",
            "rng_seed",
            "task",
            "output",
        },
    )
    version = _get_int(data, "scenario", "spec_version", required=True)
    if version != SPEC_VERSION:
        _fail("scenario.spec_version", f"unsupported version {version}, expected {SPEC_VERSION}")
    name = _get_str(data, "scenario", "name", required=True)
    if "grid" not in data:
        _fail("scenario", "missing required key 'grid'")
    grid = _parse_grid(data["grid"], "scenario.grid")
    constants = _parse_constants(data.get("constants", {}), "scenario.constants")
    potentials = _parse_potentials(data.get("potentials", {}), "scenario.potentials")
    interaction = _parse_interaction(data.get("interaction"), "scenario.interaction")
    initial_state = _parse_initial_state(data.get("initial_state", {}), "scenario.initial_state")
    seed = data.get("rng_seed")
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        _fail("scenario.rng_seed", f"expected an integer or null, got {seed!r}")
    if initial_state["kind"] == "random" and seed is None:
        _fail("scenario.rng_seed", "required when the initial state is random")
    if "task" not in data:
        _fail("scenario", "missing required key 'task'")
    task = _parse_task(data["task"], "scenario.task", interaction is not None)
    output = data.get("output", {})
    _check_keys(output, "scenario.output", {"record_stride"})
    stride = _get_int(output, "scenario.output", "record_stride", default=1)
    if stride < 1:
        _fail("scenario.output.record_stride", "must be at least 1")
    if "n_steps" in task and task["n_steps"] % stride != 0:
        _fail("scenario.output.record_stride",
              f"must divide task.n_steps = {task['n_steps']}, got {stride}")
    for key in ("v1", "a0", "a"):
        p = potentials[key]
        if p["kind"] == "sampled" and len(p["values"]) != grid["n_points"]:
            _fail(
                f"scenario.potentials.{key}.values",
                f"has {len(p['values'])} entries, grid has {grid['n_points']} points",
            )
    if interaction is not None and interaction["kind"] == "kernel":
        k = interaction["kernel"]
        if len(k) != grid["n_points"] or any(len(row) != grid["n_points"] for row in k):
            _fail("scenario.interaction.kernel", "kernel must be n_points x n_points")
    return Scenario(
        name=name,
        spec_version=version,
        grid=grid,
        constants=constants,
        potentials=potentials,
        interaction=interaction,
        initial_state=initial_state,
        rng_seed=seed,
        task=task,
        output={"record_stride": stride},
    )


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return parse_scenario_dict(data)


def serialize_scenario(scenario: Scenario) -> dict:
    """Dict form with all defaults explicit; parses back to an equal Scenario."""
    return {
        "spec_version": scenario.spec_version,
        "name": scenario.name,
        "grid": dict(scenario.grid),
        "constants": dict(scenario.constants),
        "potentials": {k: dict(v) for k, v in scenario.potentials.items()},
        "interaction": None if scenario.interaction is None else dict(scenario.interaction),
        "initial_state": dict(scenario.initial_state),
        "rng_seed": scenario.rng_seed,
        "task": dict(scenario.task),
        "output": dict(scenario.output),
    }


def scenario_json(scenario: Scenario) -> str:
    return json.dumps(serialize_scenario(scenario), sort_keys=True, separators=(",", ":"))


def build_grid(scenario: Scenario) -> Grid:
    g = scenario.grid
    return make_grid(g["x_min"], g["x_max"], g["n_points"], g["boundary"])


def _build_potential(spec: dict) -> PotentialField:
    kind = spec["kind"]
    if kind == "free":
        return PotentialField.free()
    if kind == "harmonic":
        return PotentialField.harmonic(spec["omega"], spec["center"])
    if kind == "quartic":
        return PotentialField.quartic(spec["strength"], spec["center"])
    if kind == "box":
        return PotentialField.box(spec["height"], spec["half_width"], spec["center"])
    return PotentialField.from_samples(spec["values"])


def build_config(scenario: Scenario) -> HamiltonianConfig:
    c = scenario.constants
    interaction = None
    if scenario.interaction is not None:
        spec = scenario.interaction
        if spec["kind"] == "contact":
            interaction = TwoBodyInteraction.contact(spec["g"], spec["n_particles"])
        else:
            interaction = TwoBodyInteraction.from_kernel(spec["kernel"], spec["n_particles"])
    return HamiltonianConfig(
        constants=PhysicalConstants(c["hbar"], c["mass"], c["charge"]),
        v1=_build_potential(scenario.potentials["v1"]),
        a0=_build_potential(scenario.potentials["a0"]),
        a_vec=_build_potential(scenario.potentials["a"]),
        interaction=interaction,
    )


def build_initial_state(scenario: Scenario, grid: Grid) -> Wavefunction:
    spec = scenario.initial_state
    if spec["kind"] == "gaussian":
        return gaussian_wavepacket(grid, spec["center"], spec["width"], spec["wavenumber"])
    rng = np.random.default_rng(scenario.rng_seed)
    raw = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    smooth = np.fft.ifft(np.fft.fft(raw) * np.exp(-0.5 * (k * spec["smoothing"]) ** 2))
    return normalize(Wavefunction(grid, smooth))


def build_plan(scenario: Scenario) -> PropagationPlan:
    task = scenario.task
    if task["kind"] not in ("propagate", "gp-propagate", "verify"):
        raise ValueError(f"task {task['kind']!r} has no propagation plan")
    return PropagationPlan(
        dt=task["dt"],
        n_steps=task["n_steps"],
        t_start=task["t_start"],
        scheme=task["scheme"],
        record_stride=scenario.output["record_stride"],
    )
