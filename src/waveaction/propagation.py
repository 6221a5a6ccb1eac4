"""Time evolution: Crank-Nicolson stepping, mean-field (nonlinear) stepping,
and imaginary-time relaxation to the ground state.

The real-time scheme is the Cayley form

    (1 + i H dt / 2 hbar) psi_new = (1 - i H dt / 2 hbar) psi_old

with H evaluated at the step midpoint t + dt/2; it preserves the norm
exactly for Hermitian H.  Imaginary time uses the implicit (backward
Euler) filter (1 + dtau H / hbar)^-1 with renormalization after every
step, which damps every excited component regardless of dtau and makes
the energy sequence monotonically non-increasing.

Both implicit schemes go through one tridiagonal solver that factors
1 + s H with LAPACK and reuses the factors for as long as H is unchanged:
once per run for a static linear H, at every midpoint for a time-dependent
H, and at every mean-field update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sp_fft
from scipy.linalg.lapack import zgttrf, zgttrs

from .grids import Grid, Wavefunction, check_finite, norm, normalize
from .hamiltonian import (
    HamiltonianConfig,
    TridiagonalHamiltonian,
    energy_of,
    hamiltonian_at,
    mean_field_density_values,
)

CRANK_NICOLSON = "crank-nicolson"
SPLIT_OPERATOR = "split-operator"
_SCHEMES = (CRANK_NICOLSON, SPLIT_OPERATOR)


class ObserverError(RuntimeError):
    """Raised when a diagnostic callback fails during propagation."""


@dataclass(frozen=True)
class PropagationPlan:
    """Time-stepping parameters for one propagation run."""

    dt: float
    n_steps: int
    t_start: float = 0.0
    scheme: str = CRANK_NICOLSON
    record_stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0 and np.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}")
        if self.record_stride < 1:
            raise ValueError("record_stride must be at least 1")
        if self.n_steps % self.record_stride != 0:
            raise ValueError(
                f"record_stride {self.record_stride} must divide n_steps {self.n_steps}, "
                "so the final state is recorded"
            )

    @property
    def n_records(self) -> int:
        """Number of recorded states, the initial one included."""
        return self.n_steps // self.record_stride + 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded on one grid: times of shape (T,), amplitudes of shape (T, N).

    Both arrays are copied and stored read-only.  Each row obeys the
    Wavefunction rules (finite, Dirichlet endpoints clamped to zero).
    """

    grid: Grid
    times: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        amp = np.array(self.amplitudes, dtype=np.complex128)
        if times.ndim != 1 or len(times) == 0:
            raise ValueError("trajectory needs a 1-D array of at least one snapshot time")
        if amp.shape != (len(times), self.grid.n_points):
            raise ValueError(
                f"amplitude array has shape {amp.shape}, expected ({len(times)}, {self.grid.n_points})"
            )
        if not np.all(np.isfinite(times)):
            raise ValueError("snapshot times must be finite")
        if np.any(np.diff(times) <= 0):
            raise ValueError("snapshot times must be strictly increasing")
        check_finite(amp)
        if not self.grid.is_periodic:
            amp[:, 0] = 0.0
            amp[:, -1] = 0.0
        times.setflags(write=False)
        amp.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def snapshots(self) -> tuple:
        """(time, Wavefunction) pairs, built on each access."""
        return tuple(
            (float(t), Wavefunction(self.grid, amp, float(t))) for t, amp in zip(self.times, self.amplitudes)
        )


@dataclass(frozen=True, eq=False)
class GroundStateResult:
    """Outcome of an imaginary-time relaxation."""

    state: Wavefunction
    energy: float
    iterations: int
    converged: bool
    energy_history: np.ndarray


class _CayleySolver:
    """Factors of 1 + scale * H for one assembled tridiagonal H (LAPACK zgttrf).

    ``solve`` applies (1 + scale H)^-1 with one zgttrs call on the stored
    factors; ``cayley`` applies (1 + scale H)^-1 (1 - scale H).  Dirichlet
    grids factor the interior block and keep the endpoints at zero.
    Periodic grids factor the tridiagonal part with both end diagonals
    shifted, A = B + u v^T with u = (gamma, 0, ..., 0, c_lf) and
    v = (1, 0, ..., 0, c_fl / gamma), and restore the two corners by a
    Sherman-Morrison correction on the same factors.
    """

    def __init__(self, h: TridiagonalHamiltonian, scale: complex):
        self.h = h
        self.scale = scale
        n = h.grid.n_points
        if not h.grid.is_periodic:
            self._factors = self._factor(
                scale * h.lower[1 : n - 2], 1.0 + scale * h.diag[1 : n - 1], scale * h.upper[1 : n - 2]
            )
            return
        d = 1.0 + scale * h.diag
        c_fl = scale * h.corner_first_last
        c_lf = scale * h.corner_last_first
        gamma = -d[0] if d[0] != 0 else -1.0  # -d[0] avoids cancellation in B[0, 0]
        d[0] -= gamma
        d[-1] -= c_lf * c_fl / gamma
        self._factors = self._factor(scale * h.lower, d, scale * h.upper)
        u = np.zeros(n, dtype=complex)
        u[0] = gamma
        u[-1] = c_lf
        self._z = self._lu_solve(u)
        # The corner response decays geometrically away from both ends.  Its
        # subnormal entries change no amplitude, but make the per-solve
        # product alpha * z many times slower, so they are flushed to zero.
        z_parts = self._z.view(np.float64)
        z_parts[np.abs(z_parts) < np.finfo(np.float64).tiny] = 0.0
        self._v_last = c_fl / gamma
        self._denominator = 1.0 + self._z[0] + self._v_last * self._z[-1]
        if self._denominator == 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: the corner correction of 1 + s H vanishes (s = {scale:.6g})"
            )

    def _factor(self, dl, d, du) -> tuple:
        dl, d, du, du2, ipiv, info = zgttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular matrix: zero pivot in row {info} of 1 + s H (s = {self.scale:.6g})"
            )
        if info < 0:
            raise ValueError(f"zgttrf rejected argument {-info}")
        return dl, d, du, du2, ipiv

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        x, info = zgttrs(*self._factors, rhs)
        if info != 0:
            raise ValueError(f"zgttrs rejected argument {-info}")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (1 + scale H) x = rhs under the grid's boundary convention."""
        if self.h.grid.is_periodic:
            y = self._lu_solve(rhs)
            return y - ((y[0] + self._v_last * y[-1]) / self._denominator) * self._z
        out = np.zeros(len(rhs), dtype=complex)
        out[1:-1] = self._lu_solve(rhs[1:-1])
        return out

    def cayley(self, amp: np.ndarray) -> np.ndarray:
        return self.solve(amp - self.scale * self.h.matvec(amp))


def _cayley_substep(h_at, hbar: float, amp: np.ndarray, t: float, dt: float, extra_diag=None) -> np.ndarray:
    """amp advanced from t by dt with H at the midpoint (plus extra_diag), factored afresh."""
    h = h_at(t + dt / 2.0).plus_diagonal(extra_diag)
    return _CayleySolver(h, 1j * dt / (2.0 * hbar)).cayley(amp)


# Steppers map (amplitudes at t, t) to the amplitudes at t + dt.  Each is
# built once per run, so static factors and phases are built once too.


def _cn_stepper(cfg: HamiltonianConfig, grid: Grid, dt: float):
    hbar = cfg.constants.hbar
    h_at = hamiltonian_at(cfg, grid)
    if cfg.is_static:  # one H, so one factorization for the whole run
        solver = _CayleySolver(h_at(0.0), 1j * dt / (2.0 * hbar))
        return lambda amp, t: solver.cayley(amp)
    return lambda amp, t: _cayley_substep(h_at, hbar, amp, t, dt)


def check_split_operator(cfg: HamiltonianConfig, grid: Grid) -> None:
    """Raise ValueError unless the split-operator scheme can step cfg on grid.

    The scheme needs a linear Hamiltonian, a periodic grid and zero vector
    potential; scenario validation and the stepper both apply this rule.
    """
    if cfg.interaction is not None:
        raise ValueError("split-operator stepping supports linear Hamiltonians only")
    if not grid.is_periodic:
        raise ValueError("split-operator stepping requires a periodic grid")
    if cfg.a_vec.kind != "free":
        raise ValueError("split-operator stepping requires zero vector potential")


def _split_stepper(cfg: HamiltonianConfig, grid: Grid, dt: float):
    check_split_operator(cfg, grid)
    c = cfg.constants
    k = 2.0 * np.pi * sp_fft.fftfreq(grid.n_points, d=grid.dx)
    kinetic = np.exp(-1j * c.hbar * k**2 * dt / (2.0 * c.mass))

    def half_v_at(t_mid):
        v = cfg.v1.evaluate(grid, t_mid) + c.charge * cfg.a0.evaluate(grid, t_mid)
        return np.exp(-1j * v * dt / (2.0 * c.hbar))

    def strang(half_v, amp):
        return half_v * sp_fft.ifft(kinetic * sp_fft.fft(half_v * amp))

    if not cfg.is_static:
        return lambda amp, t: strang(half_v_at(t + dt / 2.0), amp)
    half_v = half_v_at(0.0)
    return lambda amp, t: strang(half_v, amp)


def _gp_stepper(cfg: HamiltonianConfig, grid: Grid, dt: float):
    """The density-averaged predictor-corrector of step_gp."""
    hbar = cfg.constants.hbar
    h_at = hamiltonian_at(cfg, grid)

    def mean_field(rho):
        return mean_field_density_values(cfg.interaction, grid, rho)

    def advance(amp, t):
        rho = np.abs(amp) ** 2
        predicted = _cayley_substep(h_at, hbar, amp, t, dt, mean_field(rho))
        rho_avg = 0.5 * (np.abs(predicted) ** 2 + rho)
        return _cayley_substep(h_at, hbar, amp, t, dt, mean_field(rho_avg))

    return advance


def step_crank_nicolson(
    cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float
) -> Wavefunction:
    """One Cayley step of the linear Schrodinger equation; norm-preserving."""
    if cfg.interaction is not None:
        raise ValueError("step_crank_nicolson is the linear stepper; use step_gp")
    return Wavefunction(psi.grid, _cn_stepper(cfg, psi.grid, dt)(psi.amplitudes, t), psi.time + dt)


def step_split_operator(
    cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float
) -> Wavefunction:
    """Strang-split FFT step; periodic grids with zero vector potential only."""
    return Wavefunction(psi.grid, _split_stepper(cfg, psi.grid, dt)(psi.amplitudes, t), psi.time + dt)


def step_gp(cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float) -> Wavefunction:
    """One nonlinear mean-field step by the density-averaged predictor-corrector.

    Predict with the mean field frozen at the current state, rebuild it
    from the average density (|phi_pred|^2 + |phi|^2)/2, then correct.
    """
    if cfg.interaction is None:
        raise ValueError("step_gp requires a configured interaction")
    return Wavefunction(psi.grid, _gp_stepper(cfg, psi.grid, dt)(psi.amplitudes, t), psi.time + dt)


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

    grid = psi0.grid
    if plan.scheme == SPLIT_OPERATOR:
        advance = _split_stepper(cfg, grid, plan.dt)
    elif cfg.interaction is not None:
        advance = _gp_stepper(cfg, grid, plan.dt)
    else:
        advance = _cn_stepper(cfg, grid, plan.dt)
    psi = Wavefunction(grid, psi0.amplitudes, plan.t_start)
    times = np.empty(plan.n_records)
    amplitudes = np.empty((plan.n_records, grid.n_points), dtype=complex)
    times[0] = t = plan.t_start
    amplitudes[0] = psi.amplitudes
    for k in range(1, plan.n_steps + 1):
        amp = advance(psi.amplitudes, t)
        t = plan.t_start + k * plan.dt
        try:
            psi = Wavefunction(grid, amp, t)
        except ValueError as exc:
            raise RuntimeError(f"step {k} (t = {t:.6g}) failed: {exc}") from exc
        for obs in observers:
            try:
                obs(k, t, psi)
            except Exception as exc:
                raise ObserverError(f"observer failed at step {k}, t = {t:.6g}") from exc
        if k % plan.record_stride == 0:
            times[k // plan.record_stride] = t
            amplitudes[k // plan.record_stride] = psi.amplitudes
    return Trajectory(grid, times, amplitudes)


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
    h = hamiltonian_at(cfg, grid)(0.0)
    if cfg.interaction is None:
        solve = _CayleySolver(h, scale).solve
    else:

        def solve(amp):
            u = mean_field_density_values(cfg.interaction, grid, np.abs(amp) ** 2)
            return _CayleySolver(h.plus_diagonal(u), scale).solve(amp)

    history = [energy_of(cfg, h, psi)]
    converged = False
    iterations = 0
    for _ in range(max_iter):
        amp = solve(psi.amplitudes)
        iterations += 1
        try:
            psi = normalize(Wavefunction(grid, amp, psi.time))
        except ValueError as exc:
            raise RuntimeError(f"imaginary-time iteration {iterations} failed: {exc}") from exc
        history.append(energy_of(cfg, h, psi))
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
