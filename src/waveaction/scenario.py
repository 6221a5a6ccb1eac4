"""Scenario files: a strict, versioned JSON schema for batch runs.

Every default is materialized at parse time, unknown keys anywhere in the
tree are hard errors (reported with their key path), and parse ->
serialize -> parse is the identity.  Each section is read against one
table below.  The value rules live in the objects a scenario describes
(Grid, PhysicalConstants, PotentialField, TwoBodyInteraction,
gaussian_wavepacket, PropagationPlan, TrialFamily): parsing builds each
of them once and reports their errors under the section's key path, so
a scenario that parses also builds.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .grids import DIRICHLET, PERIODIC, Grid, Wavefunction, gaussian_wavepacket, make_grid, normalize
from .hamiltonian import (
    HamiltonianConfig,
    PhysicalConstants,
    PotentialField,
    TwoBodyInteraction,
    mean_field_density_values,
)
from .propagation import CRANK_NICOLSON, SPLIT_OPERATOR, PropagationPlan, check_split_operator
from .variational import FAMILIES, check_action_records

SPEC_VERSION = 1

# Section tables.  Each key maps to its rule: a default (the key is
# optional and takes the default's type), a type (the key is required),
# or a tuple of allowed strings (the first is the default).  A float is
# any finite JSON number; a list holds finite numbers, nested to any
# depth, and the object built from it checks its shape.  dict marks a
# nested section and None a section that may be null.
_SCENARIO = {
    "spec_version": int, "name": str, "grid": dict, "task": dict, "rng_seed": None, "interaction": None,
    "constants": {}, "potentials": {}, "initial_state": {}, "output": {},
}
_GRID = {"x_min": float, "x_max": float, "n_points": int, "boundary": (DIRICHLET, PERIODIC)}
_CONSTANTS = {"hbar": 1.0, "mass": 1.0, "charge": 1.0}
_POTENTIALS = {"v1": {}, "a0": {}, "a": {}}
_OUTPUT = {"record_stride": 1}

# Sections whose "kind" picks the table; an omitted kind is the first one.
_POTENTIAL_KINDS = {
    "free": {},
    "harmonic": {"omega": 1.0, "center": 0.0},
    "quartic": {"strength": 1.0, "center": 0.0},
    "box": {"height": float, "half_width": float, "center": 0.0},
    "sampled": {"values": list},
}
_INTERACTION_KINDS = {
    "contact": {"g": float, "n_particles": int},
    "kernel": {"kernel": list, "n_particles": int},
}
_STATE_KINDS = {
    "gaussian": {"center": 0.0, "width": 1.0, "wavenumber": 0.0},
    "random": {"smoothing": 1.0},
}
# t_start is the time the runner gives the initial state, so the run starts there.
_STEPPING = {"dt": 1e-3, "n_steps": int, "t_start": 0.0, "scheme": (CRANK_NICOLSON, SPLIT_OPERATOR)}
_TASK_KINDS = {
    "propagate": _STEPPING,
    "gp-propagate": _STEPPING,
    "ground-state": {"dtau": 0.1, "tol": 1e-10, "max_iter": 1_000_000},
    "rayleigh-ritz": {"family": tuple(FAMILIES), "initial_params": [0.0, 1.0], "max_iter": 500},
    "verify": {**_STEPPING, "n_steps": 400, "epsilons": [1e-2, 1e-3, 1e-4]},
}

# Value rules that no object built at parse time checks, by key path.
_RULES = {
    "initial_state.smoothing": (lambda v: v > 0, "must be positive"),
    "task.dtau": (lambda v: v > 0, "must be positive"),
    "task.tol": (lambda v: v >= 0, "must be non-negative"),
    "task.max_iter": (lambda v: v >= 1, "must be at least 1"),
    "task.epsilons": (
        lambda v: all(isinstance(e, float) and e > 0 for e in v) and len(set(v)) >= 2,
        "expected a list of at least two distinct positive numbers",
    ),
    "output.record_stride": (lambda v: v >= 1, "must be at least 1"),
}

_TYPES = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
}


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


def _value(v, path: str, rule):
    """v checked against one table rule; numbers come back as floats and lists as copies."""
    if rule is None:
        return v
    if isinstance(rule, tuple):
        if v not in rule:
            _fail(path, f"must be one of {list(rule)}, got {v!r}")
        return v
    kind = rule if isinstance(rule, type) else type(rule)
    accepted, name = _TYPES[kind]
    if isinstance(v, bool) or not isinstance(v, accepted):
        _fail(path, f"expected {name}, got {v!r}")
    if kind is list:
        return [_value(x, f"{path}[{i}]", list if isinstance(x, list) else float) for i, x in enumerate(v)]
    if kind is float:
        if not abs(v) <= sys.float_info.max:  # also an integer literal beyond the double range
            _fail(path, "must be finite")
        v = float(v)
    return v


def _read(d, path: str, table: dict) -> dict:
    """Section d checked against its table, with every default filled in."""
    _value(d, path, dict)
    for key in d:
        if key not in table:
            _fail(path, f"unknown key {key!r} (allowed: {sorted(table)})")
    out = {}
    for key, rule in table.items():
        if key in d:
            out[key] = _value(d[key], f"{path}.{key}", rule)
        elif isinstance(rule, type):
            _fail(path, f"missing required key {key!r}")
        else:
            out[key] = _value(rule[0] if isinstance(rule, tuple) else rule, f"{path}.{key}", rule)
    return out


def _read_kinded(d, path: str, kinds: dict, required: bool = False) -> dict:
    """Section d read against the table its "kind" picks from kinds."""
    _value(d, path, dict)
    if required and "kind" not in d:
        _fail(path, "missing required key 'kind'")
    kind = _value(d.get("kind", next(iter(kinds))), f"{path}.kind", tuple(kinds))
    return _read(d, path, {"kind": (kind,), **kinds[kind]})


def _built(path: str, build, *args, **kwargs):
    """build(*args, **kwargs), a ValueError or overflow in it re-raised as a ScenarioError at path.

    Floating-point warnings are silenced: every value built here is checked
    for finiteness by its object or by the caller.
    """
    try:
        with np.errstate(all="ignore"):
            return build(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except OverflowError as exc:
        raise ScenarioError(f"{path}: arithmetic overflow: {exc}") from exc


def _check_finite_on_grid(path: str, evaluate, *args) -> None:
    if not np.all(np.isfinite(_built(path, evaluate, *args))):
        _fail(path, "must be finite on the grid")


def _check(scenario: Scenario) -> None:
    """Apply the parser's own rules, then build each object once to apply theirs."""
    for key_path, (holds, message) in _RULES.items():
        section, key = key_path.split(".")
        value = getattr(scenario, section).get(key)
        if value is not None and not holds(value):
            _fail(f"scenario.{key_path}", message)
    if scenario.initial_state["kind"] == "random" and scenario.rng_seed is None:
        _fail("scenario.rng_seed", "required when the initial state is random")
    task = scenario.task
    if task["kind"] == "gp-propagate" and scenario.interaction is None:
        _fail("scenario.task", "gp-propagate requires an interaction section")
    if task["kind"] in ("propagate", "verify") and scenario.interaction is not None:
        _fail("scenario.task", f"{task['kind']} is the linear task; use gp-propagate for interactions")

    grid = _built("scenario.grid", build_grid, scenario)
    _built("scenario.constants", PhysicalConstants, **scenario.constants)
    for key, spec in scenario.potentials.items():
        _check_finite_on_grid(f"scenario.potentials.{key}", lambda: _build_potential(spec).evaluate(grid))
    psi0 = _built("scenario.initial_state", build_initial_state, scenario, grid)
    if scenario.interaction is not None:
        interaction = _built("scenario.interaction", _build_interaction, scenario.interaction)
        density = np.abs(psi0.amplitudes) ** 2
        _check_finite_on_grid("scenario.interaction", mean_field_density_values, interaction, grid, density)
    if task.get("scheme") == SPLIT_OPERATOR:
        _built("scenario.task.scheme", check_split_operator, build_config(scenario), grid)
    if "n_steps" in task:
        # the stride's rule is the plan's, reported at the stride's own path
        plan = _built("scenario.task", build_plan, replace(scenario, output={"record_stride": 1}))
        plan = _built("scenario.output.record_stride", replace, plan, record_stride=scenario.output["record_stride"])
        if task["kind"] == "verify":
            _built("scenario.output.record_stride", check_action_records, plan.n_records)
    if task["kind"] == "rayleigh-ritz":
        family = FAMILIES[task["family"]]()
        _built("scenario.task.initial_params", family.initial_point, task["initial_params"])


def parse_scenario_dict(data: dict) -> Scenario:
    """Validate a raw dict, materialize every default, and build the scenario once."""
    top = _read(data, "scenario", _SCENARIO)
    if top["spec_version"] != SPEC_VERSION:
        _fail("scenario.spec_version", f"unsupported version {top['spec_version']}, expected {SPEC_VERSION}")
    interaction = top["interaction"]
    if interaction is not None:
        interaction = _read_kinded(interaction, "scenario.interaction", _INTERACTION_KINDS, required=True)
    if top["rng_seed"] is not None:
        _value(top["rng_seed"], "scenario.rng_seed", int)
    potentials = _read(top["potentials"], "scenario.potentials", _POTENTIALS)
    scenario = Scenario(
        name=top["name"],
        spec_version=top["spec_version"],
        grid=_read(top["grid"], "scenario.grid", _GRID),
        constants=_read(top["constants"], "scenario.constants", _CONSTANTS),
        potentials={
            key: _read_kinded(spec, f"scenario.potentials.{key}", _POTENTIAL_KINDS)
            for key, spec in potentials.items()
        },
        interaction=interaction,
        initial_state=_read_kinded(top["initial_state"], "scenario.initial_state", _STATE_KINDS),
        rng_seed=top["rng_seed"],
        task=_read_kinded(top["task"], "scenario.task", _TASK_KINDS, required=True),
        output=_read(top["output"], "scenario.output", _OUTPUT),
    )
    _check(scenario)
    return scenario


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    return parse_scenario_dict(data)


def serialize_scenario(scenario: Scenario) -> dict:
    """Deep-copied dict form with all defaults explicit; parses back to an equal Scenario."""
    return asdict(scenario)


def scenario_json(scenario: Scenario) -> str:
    """serialize_scenario's dict as compact JSON with sorted keys, written from the fields themselves, not a copy."""
    record = {f.name: getattr(scenario, f.name) for f in fields(scenario)}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _split_kind(spec: dict) -> tuple:
    params = dict(spec)
    return params.pop("kind"), params


def build_grid(scenario: Scenario) -> Grid:
    return make_grid(**scenario.grid)


def _build_potential(spec: dict) -> PotentialField:
    kind, params = _split_kind(spec)
    return getattr(PotentialField, "from_samples" if kind == "sampled" else kind)(**params)


def _build_interaction(spec: dict) -> TwoBodyInteraction:
    kind, params = _split_kind(spec)
    return getattr(TwoBodyInteraction, "from_kernel" if kind == "kernel" else kind)(**params)


def build_config(scenario: Scenario) -> HamiltonianConfig:
    potentials = scenario.potentials
    return HamiltonianConfig(
        constants=PhysicalConstants(**scenario.constants),
        v1=_build_potential(potentials["v1"]),
        a0=_build_potential(potentials["a0"]),
        a_vec=_build_potential(potentials["a"]),
        interaction=None if scenario.interaction is None else _build_interaction(scenario.interaction),
    )


def build_initial_state(scenario: Scenario, grid: Grid) -> Wavefunction:
    kind, params = _split_kind(scenario.initial_state)
    if kind == "gaussian":
        return gaussian_wavepacket(grid, **params)
    # numpy's FFT, not scipy.fft, so that validating a random-start scenario loads no scipy subpackage
    rng = np.random.default_rng(scenario.rng_seed)
    raw = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    smooth = np.fft.ifft(np.fft.fft(raw) * np.exp(-0.5 * (k * params["smoothing"]) ** 2))
    return normalize(Wavefunction(grid, smooth))


def build_plan(scenario: Scenario) -> PropagationPlan:
    task = scenario.task
    if task["kind"] not in ("propagate", "gp-propagate", "verify"):
        raise ValueError(f"task {task['kind']!r} has no propagation plan")
    stride = scenario.output["record_stride"]
    return PropagationPlan(task["dt"], task["n_steps"], task["scheme"], stride)
