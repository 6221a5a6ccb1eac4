"""Fixed-size kernel probes through the toolkit's public functions.

Each probe reports microseconds per call at n in PROBE_SIZES as
``<name>.n<N>``: the median over BLOCKS blocks of back-to-back calls, each
block long enough (MIN_BLOCK_S) for the clock to resolve it.  The LAPACK
factorization and the tridiagonal solve are private
(``propagation._tridiag_shift_solve``), so they have no probe until the
program exposes spans for them.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from waveaction import (
    HamiltonianConfig,
    PotentialField,
    PropagationPlan,
    TwoBodyInteraction,
    action,
    gaussian_wavepacket,
    ground_state_imaginary_time,
    make_grid,
    parse_scenario_dict,
    propagate,
    run_scenario,
    step_crank_nicolson,
    step_gp,
    step_split_operator,
)
from waveaction.hamiltonian import hamiltonian_matrix

PROBE_SIZES = (1001, 4001, 16001)
BLOCKS = 5
MIN_BLOCK_S = 0.02
DT = 1e-3
IMAG_ITERATIONS = 10
TRAJECTORY_STEPS = 20


def _us_per_call(fn, per_call: int = 1) -> float:
    """Median microseconds per unit of work; fn does per_call units per call."""
    fn()
    reps = 1
    while True:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_BLOCK_S:
            break
        reps *= 2
    blocks = [elapsed]
    for _ in range(BLOCKS - 1):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        blocks.append(time.perf_counter() - start)
    return 1e6 * statistics.median(blocks) / (reps * per_call)


def _kernels(n: int, out_dir: Path) -> dict:
    """name -> (callable, units of work per call) for grids of n points."""
    dirichlet = make_grid(-20.0, 20.0, n)
    periodic = make_grid(-20.0, 20.0, n, "periodic")
    trap = HamiltonianConfig(v1=PotentialField.harmonic(1.0))
    condensate = HamiltonianConfig(
        v1=PotentialField.harmonic(1.0), interaction=TwoBodyInteraction.contact(100.0, 2)
    )
    psi_d = gaussian_wavepacket(dirichlet, 1.0, 0.7, 1.0)
    psi_p = gaussian_wavepacket(periodic, 1.0, 0.7, 1.0)
    trajectory = propagate(trap, psi_d, PropagationPlan(dt=DT, n_steps=TRAJECTORY_STEPS))
    zero_step = parse_scenario_dict({
        "spec_version": 1,
        "name": f"snapshot-probe-{n}",
        "grid": {"x_min": -20.0, "x_max": 20.0, "n_points": n},
        "potentials": {"v1": {"kind": "harmonic", "omega": 1.0}},
        "initial_state": {"kind": "gaussian", "center": 1.0, "width": 0.7, "wavenumber": 1.0},
        "task": {"kind": "propagate", "n_steps": 0},
    })
    return {
        "hamiltonian.assemble_us": (lambda: hamiltonian_matrix(trap, dirichlet, 0.0), 1),
        "propagation.cn_dirichlet_step_us": (lambda: step_crank_nicolson(trap, psi_d, 0.0, DT), 1),
        "propagation.cn_periodic_step_us": (lambda: step_crank_nicolson(trap, psi_p, 0.0, DT), 1),
        "propagation.split_step_us": (lambda: step_split_operator(trap, psi_p, 0.0, DT), 1),
        "propagation.gp_step_us": (lambda: step_gp(condensate, psi_d, 0.0, DT), 1),
        # tol=0 never stops early, so every call runs exactly IMAG_ITERATIONS iterations.
        "propagation.imag_iter_us": (
            lambda: ground_state_imaginary_time(trap, psi_d, dtau=0.1, tol=0.0, max_iter=IMAG_ITERATIONS),
            IMAG_ITERATIONS,
        ),
        "variational.density_pass_us": (
            lambda: action(trap, trajectory, "simple"),
            len(trajectory.snapshots),
        ),
        "runner.snapshot_write_us": (lambda: run_scenario(zero_step, out_dir, quiet=True), 1),
    }


def run_probes(out_dir: Path) -> dict:
    """Every probe at every size, in microseconds per unit of work."""
    metrics = {}
    for n in PROBE_SIZES:
        for name, (fn, per_call) in _kernels(n, out_dir / f"n{n}").items():
            metrics[f"{name}.n{n}"] = _us_per_call(fn, per_call)
    return metrics
