"""Seeded scenario generators for the three benchmark workloads.

Only the standard library is imported here, so a fresh interpreter can
build the scenario dicts before the timed ``import waveaction``.

The seed moves physical parameters only (centres, widths, trap frequency,
coupling, initial simplex points).  Grid sizes, step counts and record
strides are fixed, so the scheduled work does not depend on the seed.
Parameters that change how many iterations a solver needs are drawn by
stratified sampling: each of k scenarios draws from its own 1/k slice of
the range, so the sum over a pass varies far less between seeds than k
independent draws would, while every pass still spans the whole range.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("dynamics", "verify-dense", "ground-states")

# Every record stride divides its step count, so a later fix that always
# records the final step changes no work.
DYNAMICS_STEPS = 400
DYNAMICS_STRIDE = DYNAMICS_STEPS // 4
VERIFY_STEPS = 400
N_LINEAR_GROUND_STATES = 2
N_CONDENSATES = 8
N_RITZ_PER_FAMILY = 4


def _strata(rng: random.Random, k: int, lo: float, hi: float) -> list:
    """k draws from [lo, hi], one from each of k equal slices, in random order."""
    slices = list(range(k))
    rng.shuffle(slices)
    return [lo + (hi - lo) * (s + rng.random()) / k for s in slices]


def _scenario(name, grid, v1, initial_state, task, interaction=None, stride=1) -> dict:
    d = {
        "spec_version": 1,
        "name": name,
        "grid": grid,
        "potentials": {"v1": v1},
        "initial_state": initial_state,
        "task": task,
        "output": {"record_stride": stride},
    }
    if interaction is not None:
        d["interaction"] = interaction
    return d


def _grid(x_min, x_max, n_points, boundary="dirichlet") -> dict:
    return {"x_min": x_min, "x_max": x_max, "n_points": n_points, "boundary": boundary}


def _harmonic(omega, center=0.0) -> dict:
    return {"kind": "harmonic", "omega": omega, "center": center}


def _gaussian(center, width, wavenumber=0.0) -> dict:
    return {"kind": "gaussian", "center": center, "width": width, "wavenumber": wavenumber}


def _contact(g) -> dict:
    return {"kind": "contact", "g": g, "n_particles": 2}


def _dynamics(rng: random.Random) -> list:
    """One scenario per stepping scheme, recording four times per run."""

    def packet():
        return _gaussian(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 1.0), rng.uniform(-2.0, 2.0))

    def task(kind, scheme="crank-nicolson"):
        return {"kind": kind, "dt": 2e-3, "n_steps": DYNAMICS_STEPS, "scheme": scheme}

    def trap():
        return _harmonic(rng.uniform(0.8, 1.2))

    return [
        _scenario("cn-dirichlet-16001", _grid(-20.0, 20.0, 16001), trap(), packet(),
                  task("propagate"), stride=DYNAMICS_STRIDE),
        _scenario("cn-periodic-4001", _grid(-20.0, 20.0, 4001, "periodic"), trap(), packet(),
                  task("propagate"), stride=DYNAMICS_STRIDE),
        _scenario("split-operator-4001", _grid(-20.0, 20.0, 4001, "periodic"), trap(), packet(),
                  task("propagate", "split-operator"), stride=DYNAMICS_STRIDE),
        _scenario("gp-predictor-corrector-4001", _grid(-20.0, 20.0, 4001), trap(), packet(),
                  task("gp-propagate"), interaction=_contact(rng.uniform(10.0, 200.0)),
                  stride=DYNAMICS_STRIDE),
    ]


def _verify_dense(rng: random.Random) -> list:
    """The verification battery on both boundary conditions.

    Packets start at rest, near the trap centre and close to the trap's
    ground-state width: a moving packet (wavenumber 1 at n=1001) already
    misses the battery's 1e-4 continuity threshold.
    """
    out = []
    for boundary in ("dirichlet", "periodic"):
        omega = rng.uniform(0.9, 1.1)
        width = rng.uniform(0.95, 1.05) / math.sqrt(2.0 * omega)
        out.append(
            _scenario(f"verify-{boundary}-1001", _grid(-10.0, 10.0, 1001, boundary), _harmonic(omega),
                      _gaussian(rng.uniform(-0.3, 0.3), width),
                      {"kind": "verify", "dt": 1e-3, "n_steps": VERIFY_STEPS, "scheme": "crank-nicolson"})
        )
    return out


def _ground_states(rng: random.Random) -> list:
    """Imaginary-time relaxation (linear and mean-field) and Rayleigh-Ritz."""
    out = []
    k = N_LINEAR_GROUND_STATES
    for i, omega, center in zip(range(k), _strata(rng, k, 0.9, 1.1), _strata(rng, k, 0.5, 1.0)):
        out.append(
            _scenario(f"linear-ground-state-16001-{i}", _grid(-20.0, 20.0, 16001), _harmonic(omega),
                      _gaussian(center, rng.uniform(0.7, 1.3)),
                      {"kind": "ground-state", "dtau": 0.1, "tol": 1e-10})
        )
    k = N_CONDENSATES
    for i, g, omega, center in zip(range(k), _strata(rng, k, 10.0, 200.0),
                                   _strata(rng, k, 0.9, 1.1), _strata(rng, k, 0.0, 0.5)):
        out.append(
            _scenario(f"condensate-4001-{i}", _grid(-20.0, 20.0, 4001), _harmonic(omega),
                      _gaussian(center, rng.uniform(0.8, 1.2)),
                      {"kind": "ground-state", "dtau": 0.05, "tol": 1e-12},
                      interaction=_contact(g))
        )
    k = N_RITZ_PER_FAMILY
    for family in ("gaussian", "gaussian-phase"):
        for i, strength in zip(range(k), _strata(rng, k, 0.5, 1.5)):
            params = [rng.uniform(-0.3, 0.3), rng.uniform(0.4, 0.9)]
            if family == "gaussian-phase":
                params.append(rng.uniform(-0.4, 0.4))
            out.append(
                _scenario(f"ritz-{family}-quartic-4001-{i}", _grid(-8.0, 8.0, 4001),
                          {"kind": "quartic", "strength": strength, "center": 0.0},
                          _gaussian(0.0, 1.0),
                          {"kind": "rayleigh-ritz", "family": family, "initial_params": params})
            )
    return out


_GENERATORS = {"dynamics": _dynamics, "verify-dense": _verify_dense, "ground-states": _ground_states}


def scenario_dicts(workload: str, seed: int) -> list:
    """The workload's scenario dicts; the same (workload, seed) gives the same dicts."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def inputs_hash(dicts: list) -> str:
    """SHA-256 of the canonical JSON of a scenario set; equal hashes mean equal inputs."""
    return hashlib.sha256(json.dumps(dicts, sort_keys=True).encode()).hexdigest()
