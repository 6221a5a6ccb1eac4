"""Time evolution: Crank-Nicolson stepping, mean-field (nonlinear) stepping,
and imaginary-time relaxation to the ground state.

The real-time scheme is the Cayley form

    (1 + i H dt / 2 hbar) psi_new = (1 - i H dt / 2 hbar) psi_old

with H evaluated at the step midpoint t + dt/2; it preserves the norm
exactly for Hermitian H.  Imaginary time uses the implicit (backward
Euler) filter (1 + dtau H / hbar)^-1 with renormalization after every
step, which damps every excited component regardless of dtau and makes
the energy sequence monotonically non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from .grids import Grid, Wavefunction, norm, normalize
from .hamiltonian import (
    HamiltonianConfig,
    TridiagonalHamiltonian,
    energy,
    hamiltonian_matrix,
    mean_field_density_values,
)

CRANK_NICOLSON = "crank-nicolson"
SPLIT_OPERATOR = "split-operator"
_SCHEMES = (CRANK_NICOLSON, SPLIT_OPERATOR)

NONLINEAR_NONE = "none"
NONLINEAR_HALF_STEP = "recompute-each-half-step"
NONLINEAR_PREDICTOR_CORRECTOR = "predictor-corrector"
_NONLINEAR_MODES = (NONLINEAR_NONE, NONLINEAR_HALF_STEP, NONLINEAR_PREDICTOR_CORRECTOR)


class ObserverError(RuntimeError):
    """Raised when a diagnostic callback fails during propagation."""


@dataclass(frozen=True)
class PropagationPlan:
    """Time-stepping parameters for one propagation run."""

    dt: float
    n_steps: int
    t_start: float = 0.0
    scheme: str = CRANK_NICOLSON
    nonlinear_update: str = NONLINEAR_NONE
    record_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.nonlinear_update not in _NONLINEAR_MODES:
            raise ValueError(f"nonlinear_update must be one of {_NONLINEAR_MODES}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.n_steps % self.record_stride != 0:
            raise ValueError(
                f"record_stride {self.record_stride} must divide n_steps {self.n_steps}, "
                "so the final state is recorded"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Ordered (time, state) snapshots from one propagation run."""

    snapshots: tuple
    record_stride: int = 1

    def __post_init__(self):
        if len(self.snapshots) == 0:
            raise ValueError("trajectory needs at least one snapshot")
        times = [t for t, _ in self.snapshots]
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        g = self.snapshots[0][1].grid
        if any(s.grid is not g for _, s in self.snapshots):
            raise ValueError("all snapshots must share one grid")

    @property
    def times(self) -> np.ndarray:
        return np.array([t for t, _ in self.snapshots])

    @property
    def states(self) -> list:
        return [s for _, s in self.snapshots]

    @property
    def grid(self) -> Grid:
        return self.snapshots[0][1].grid


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    """Outcome of an imaginary-time relaxation."""

    state: Wavefunction
    energy: float
    iterations: int
    converged: bool
    energy_history: np.ndarray


def _tridiag_shift_solve(h: TridiagonalHamiltonian, scale: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (1 + scale * H) x = rhs with the grid's boundary convention."""
    grid = h.grid
    n = grid.n_points
    if grid.is_periodic:
        diag = 1.0 + scale * h.diag
        upper = scale * h.upper
        lower = scale * h.lower
        mat = csc_matrix(
            (
                np.concatenate(
                    [diag, upper, lower, [scale * h.corner_first_last, scale * h.corner_last_first]]
                ),
                (
                    np.concatenate([np.arange(n), np.arange(n - 1), np.arange(1, n), [0, n - 1]]),
                    np.concatenate([np.arange(n), np.arange(1, n), np.arange(n - 1), [n - 1, 0]]),
                ),
            ),
            shape=(n, n),
        )
        return splu(mat).solve(rhs)
    m = n - 2
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = scale * h.upper[1 : n - 2]
    ab[1, :] = 1.0 + scale * h.diag[1 : n - 1]
    ab[2, :-1] = scale * h.lower[1 : n - 2]
    out = np.zeros(n, dtype=complex)
    out[1:-1] = solve_banded((1, 1), ab, rhs[1:-1])
    return out


def _cayley_step(
    cfg: HamiltonianConfig,
    psi: Wavefunction,
    t: float,
    dt: float,
    extra_diag: Optional[np.ndarray],
) -> Wavefunction:
    h = hamiltonian_matrix(cfg, psi.grid, t + dt / 2.0, extra_diag)
    lam = 1j * dt / (2.0 * cfg.constants.hbar)
    rhs = psi.amplitudes - lam * h.matvec(psi.amplitudes)
    out = _tridiag_shift_solve(h, lam, rhs)
    return Wavefunction(psi.grid, out, psi.time + dt)


def step_crank_nicolson(
    cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float
) -> Wavefunction:
    """One Cayley step of the linear Schrodinger equation; norm-preserving."""
    if cfg.interaction is not None:
        raise ValueError("step_crank_nicolson is the linear stepper; use step_gp")
    return _cayley_step(cfg, psi, t, dt, None)


def step_split_operator(
    cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float
) -> Wavefunction:
    """Strang-split FFT step; periodic grids with zero vector potential only."""
    if cfg.interaction is not None:
        raise ValueError("split-operator stepping supports linear Hamiltonians only")
    grid = psi.grid
    if not grid.is_periodic:
        raise ValueError("split-operator stepping requires a periodic grid")
    if cfg.a_vec.kind != "free":
        raise ValueError("split-operator stepping requires zero vector potential")
    c = cfg.constants
    t_mid = t + dt / 2.0
    v = cfg.v1.evaluate(grid, t_mid) + c.charge * cfg.a0.evaluate(grid, t_mid)
    half_v = np.exp(-1j * v * dt / (2.0 * c.hbar))
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
    kinetic = np.exp(-1j * c.hbar * k**2 * dt / (2.0 * c.mass))
    amp = half_v * psi.amplitudes
    amp = np.fft.ifft(kinetic * np.fft.fft(amp))
    amp = half_v * amp
    return Wavefunction(grid, amp, psi.time + dt)


def step_gp(
    cfg: HamiltonianConfig,
    psi: Wavefunction,
    t: float,
    dt: float,
    plan: Optional[PropagationPlan] = None,
) -> Wavefunction:
    """One nonlinear mean-field step.

    Default is the density-averaged predictor-corrector: predict with
    the mean field frozen at the current state, rebuild it from the
    average density (|phi_pred|^2 + |phi|^2)/2, then correct.  The
    "recompute-each-half-step" mode takes two dt/2 Cayley substeps,
    refreshing the mean field before each.
    """
    if cfg.interaction is None:
        raise ValueError("step_gp requires a configured interaction")
    mode = plan.nonlinear_update if plan is not None else NONLINEAR_PREDICTOR_CORRECTOR
    grid = psi.grid
    rho = np.abs(psi.amplitudes) ** 2
    if mode == NONLINEAR_HALF_STEP:
        u = mean_field_density_values(cfg.interaction, grid, rho)
        half = _cayley_step(cfg, psi, t, dt / 2.0, u)
        u = mean_field_density_values(cfg.interaction, grid, np.abs(half.amplitudes) ** 2)
        return _cayley_step(cfg, half, t + dt / 2.0, dt / 2.0, u)
    u0 = mean_field_density_values(cfg.interaction, grid, rho)
    predicted = _cayley_step(cfg, psi, t, dt, u0)
    rho_avg = 0.5 * (np.abs(predicted.amplitudes) ** 2 + rho)
    u1 = mean_field_density_values(cfg.interaction, grid, rho_avg)
    return _cayley_step(cfg, psi, t, dt, u1)


def propagate(
    cfg: HamiltonianConfig,
    psi0: Wavefunction,
    plan: PropagationPlan,
    observers: Sequence[Callable[[int, float, Wavefunction], None]] = (),
) -> Trajectory:
    """Run the configured stepper for plan.n_steps, recording at the stride.

    Observers are called after every step with (step index, time, state)
    and must not mutate the state; an observer exception aborts the run
    with the step context attached.
    """
    if abs(norm(psi0) - 1.0) > 1e-6:
        raise ValueError("initial state must be normalized")
    has_interaction = cfg.interaction is not None
    if has_interaction and plan.nonlinear_update == NONLINEAR_NONE:
        raise ValueError("interaction configured: choose a nonlinear_update mode")
    if not has_interaction and plan.nonlinear_update != NONLINEAR_NONE:
        raise ValueError("nonlinear_update set but no interaction configured")
    if plan.scheme == SPLIT_OPERATOR and has_interaction:
        raise ValueError("split-operator scheme supports linear Hamiltonians only")

    psi = Wavefunction(psi0.grid, psi0.amplitudes, plan.t_start)
    snapshots = [(plan.t_start, psi)]
    t = plan.t_start
    for k in range(1, plan.n_steps + 1):
        if has_interaction:
            psi = step_gp(cfg, psi, t, plan.dt, plan)
        elif plan.scheme == SPLIT_OPERATOR:
            psi = step_split_operator(cfg, psi, t, plan.dt)
        else:
            psi = _cayley_step(cfg, psi, t, plan.dt, None)
        t = plan.t_start + k * plan.dt
        psi = Wavefunction(psi.grid, psi.amplitudes, t)
        for obs in observers:
            try:
                obs(k, t, psi)
            except Exception as exc:
                raise ObserverError(f"observer failed at step {k}, t = {t:.6g}") from exc
        if k % plan.record_stride == 0:
            snapshots.append((t, psi))
    return Trajectory(tuple(snapshots), plan.record_stride)


def ground_state_imaginary_time(
    cfg: HamiltonianConfig,
    psi0: Wavefunction,
    dtau: float = 0.1,
    tol: float = 1e-10,
    max_iter: int = 10**6,
) -> GroundStateResult:
    """Relax to the ground state by damped imaginary-time iteration.

    Each step solves (1 + dtau H / hbar) psi' = psi and renormalizes; for
    mean-field configurations H carries the full-weight mean field rebuilt
    from the current normalized state.  Stops when consecutive energies
    differ by less than tol.  The start state must overlap the ground
    state (not checkable a priori).
    """
    if not cfg.is_static:
        raise ValueError("ground-state search requires static potentials")
    if not (dtau > 0 and np.isfinite(dtau)):
        raise ValueError("dtau must be positive and finite")
    if tol < 0:
        raise ValueError("tol must be non-negative")
    psi = normalize(psi0)
    grid = psi.grid
    scale = dtau / cfg.constants.hbar
    has_interaction = cfg.interaction is not None
    h_static = None if has_interaction else hamiltonian_matrix(cfg, grid, 0.0)

    history = [energy(cfg, psi, 0.0)]
    converged = False
    iterations = 0
    for _ in range(max_iter):
        if has_interaction:
            u = mean_field_density_values(cfg.interaction, grid, np.abs(psi.amplitudes) ** 2)
            h = hamiltonian_matrix(cfg, grid, 0.0, u)
        else:
            h = h_static
        amp = _tridiag_shift_solve(h, scale, psi.amplitudes)
        psi = normalize(Wavefunction(grid, amp, psi.time))
        iterations += 1
        history.append(energy(cfg, psi, 0.0))
        if abs(history[-1] - history[-2]) < tol:
            converged = True
            break
    return GroundStateResult(
        state=psi,
        energy=history[-1],
        iterations=iterations,
        converged=converged,
        energy_history=np.array(history),
    )
