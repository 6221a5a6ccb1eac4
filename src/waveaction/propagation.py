"""Time evolution: Crank-Nicolson stepping, mean-field (nonlinear) stepping,
and imaginary-time relaxation to the ground state.

The real-time scheme is the Cayley form

    (1 + i H dt / 2 hbar) psi_new = (1 - i H dt / 2 hbar) psi_old

with H evaluated at the step midpoint t + dt/2; it preserves the norm
exactly for Hermitian H.  Imaginary time uses the implicit (backward
Euler) filter (1 + dtau H / hbar)^-1 with renormalization after every
step, which damps every excited component regardless of dtau and makes
the energy sequence monotonically non-increasing.

Both implicit schemes solve tridiagonal systems 1 + s H with LAPACK, the
routine following the dtype of the bands and the right-hand side (z for
complex, d for real).  A static linear H is factored once per run (gttrf)
and every step reuses the factors (gttrs).  A matrix solved only once (the
midpoint H of a time-dependent run, the predictor and the corrector of a
mean-field step, each mean-field imaginary-time iteration) takes one gtsv
call, which gives the same bits.  On periodic grids both restore the wrap
link by a Sherman-Morrison correction.  Imaginary time iterates in float64
when H and the start state are real (no vector potential, a real start),
since every iterate then stays real; otherwise it iterates in complex128.

The split-operator scheme is a Strang splitting with the kinetic factor
applied by FFT.  Where the grid size n has a prime factor larger than
sqrt(n), scipy's pocketfft computes an n-point FFT by Bluestein's
algorithm, itself a convolution of length at least 2n - 1, or by a slow
generic pass for that factor.  The step is then one zero-padded
convolution of length next_fast_len(2n - 1) with a kernel spectrum built
once per run: two transforms where the n-point route takes four.  Every
other n keeps the n-point transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import fft as sp_fft
from scipy.linalg import get_lapack_funcs

from .grids import Grid, Wavefunction, check_finite, norm, normalize, norms, quadrature
from .hamiltonian import (
    HamiltonianConfig,
    TridiagonalHamiltonian,
    energies_of,
    hamiltonian_at,
    mean_field_density_values,
    mean_field_diagonal,
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
    """Outcome of an imaginary-time relaxation.

    chemical_potential is mu = <phi|H|phi> and residual the eigenvalue
    residual ||H phi - mu phi||, both with the full-weight mean field, as
    evidence of how far the final state is from a stationary one.
    """

    state: Wavefunction
    energy: float
    iterations: int
    converged: bool
    energy_history: np.ndarray
    chemical_potential: float
    residual: float


def _shifted_bands(h: TridiagonalHamiltonian, scale: complex) -> tuple:
    """The bands (dl, d, du) that LAPACK solves for 1 + scale * H, and the wrap-link terms (u, v_last).

    Dirichlet grids give the interior block (the endpoints stay at zero) and
    no wrap link, u = v_last = None.  Periodic grids give every link but the
    wrap link with both end diagonals shifted, A = B + u v^T with
    u = (gamma, 0, ..., 0, c_lf) and v = (1, 0, ..., 0, v_last), so that a
    Sherman-Morrison correction restores the wrap link.
    """
    n = h.grid.n_points
    if not h.grid.is_periodic:
        return scale * h.lower[1 : n - 2], 1.0 + scale * h.diag[1 : n - 1], scale * h.upper[1 : n - 2], None, None
    d = 1.0 + scale * h.diag
    c_fl = scale * h.lower[-1]  # (1 + sH)[0, n-1]
    c_lf = scale * h.upper[-1]  # (1 + sH)[n-1, 0]
    gamma = -d[0] if d[0] != 0 else -1.0  # -d[0] avoids cancellation in B[0, 0]
    d[0] -= gamma
    d[-1] -= c_lf * c_fl / gamma
    u = np.zeros(n, dtype=d.dtype)
    u[0] = gamma
    u[-1] = c_lf
    return scale * h.lower[:-1], d, scale * h.upper[:-1], u, c_fl / gamma


def _check_info(routine: str, info: int, scale: complex) -> None:
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot in row {info} of 1 + s H (s = {scale:.6g})")
    if info < 0:
        raise ValueError(f"{routine} rejected argument {-info}")


def _wrap_denominator(z: np.ndarray, v_last: complex, scale: complex) -> complex:
    """1 + v^T z for the wrap-link response z = B^-1 u, after flushing z's subnormals in place."""
    # z decays geometrically away from both ends.  Its subnormal entries change
    # no amplitude, but make the product alpha * z many times slower.
    z_parts = z.view(np.float64)
    z_parts[np.abs(z_parts) < np.finfo(np.float64).tiny] = 0.0
    denominator = 1.0 + z[0] + v_last * z[-1]
    if denominator == 0:
        raise np.linalg.LinAlgError(f"singular matrix: the corner correction of 1 + s H vanishes (s = {scale:.6g})")
    return denominator


def _wrap_corrected(y: np.ndarray, z: np.ndarray, v_last: complex, denominator: complex) -> np.ndarray:
    """A^-1 rhs from y = B^-1 rhs by Sherman-Morrison."""
    return y - ((y[0] + v_last * y[-1]) / denominator) * z


class _CayleySolver:
    """Factors of 1 + scale * H for one assembled tridiagonal H (LAPACK gttrf), for repeated solves.

    ``solve`` applies (1 + scale H)^-1 with one gttrs call on the stored
    factors; ``cayley`` applies (1 + scale H)^-1 (1 - scale H).  The matrix
    factored is the one ``_shifted_bands`` describes; on periodic grids the
    wrap-link response B^-1 u is solved once, at construction.  The routines
    follow the dtypes: real bands are factored by dgttrf, and a solve runs
    dgttrs only when the right-hand side is real too.
    """

    def __init__(self, h: TridiagonalHamiltonian, scale: complex):
        self.h = h
        self.scale = scale
        dl, d, du, u, self._v_last = _shifted_bands(h, scale)
        (gttrf,) = get_lapack_funcs(("gttrf",), (dl, d, du))
        dl, d, du, du2, ipiv, info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        _check_info(gttrf.typecode + "gttrf", info, scale)
        self._factors = dl, d, du, du2, ipiv
        if u is not None:
            self._z = self._lu_solve(u)
            self._denominator = _wrap_denominator(self._z, self._v_last, scale)

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        (gttrs,) = get_lapack_funcs(("gttrs",), (self._factors[1], rhs))
        x, info = gttrs(*self._factors, rhs)
        if info != 0:
            raise ValueError(f"{gttrs.typecode}gttrs rejected argument {-info}")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (1 + scale H) x = rhs under the grid's boundary convention."""
        if self.h.grid.is_periodic:
            return _wrap_corrected(self._lu_solve(rhs), self._z, self._v_last, self._denominator)
        out = np.zeros(len(rhs), dtype=np.result_type(self._factors[1], rhs))
        out[1:-1] = self._lu_solve(rhs[1:-1])
        return out

    def cayley(self, amp: np.ndarray) -> np.ndarray:
        return self.solve(amp - self.scale * self.h.matvec(amp))


def _solve_once(h: TridiagonalHamiltonian, scale: complex, rhs: np.ndarray) -> np.ndarray:
    """(1 + scale H)^-1 rhs by one LAPACK gtsv call, for a matrix solved only once.

    Equal bit for bit to ``_CayleySolver(h, scale).solve(rhs)``: gtsv runs
    gttrf's pivoted elimination and gttrs's substitutions in one pass.  On
    periodic grids the wrap-link vector u is the second right-hand side.
    dgtsv solves when the bands and rhs are all real, zgtsv otherwise.
    """
    dl, d, du, u, v_last = _shifted_bands(h, scale)
    if u is None:
        b = rhs[1:-1, None].copy()
    else:
        b = np.empty((len(rhs), 2), dtype=np.result_type(d, rhs), order="F")
        b[:, 0] = rhs
        b[:, 1] = u
    (gtsv,) = get_lapack_funcs(("gtsv",), (dl, d, du, b))
    x, info = gtsv(dl, d, du, b, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)[3:]
    _check_info(gtsv.typecode + "gtsv", info, scale)
    if u is None:
        out = np.zeros(len(rhs), dtype=x.dtype)
        out[1:-1] = x[:, 0]
        return out
    z = x[:, 1]
    return _wrap_corrected(x[:, 0], z, v_last, _wrap_denominator(z, v_last, scale))


def _cayley_substep(h_at, hbar: float, amp: np.ndarray, t: float, dt: float, extra_diag=None) -> np.ndarray:
    """amp advanced from t by dt with H at the midpoint (plus extra_diag), solved once."""
    h = h_at(t + dt / 2.0).plus_diagonal(extra_diag)
    scale = 1j * dt / (2.0 * hbar)
    return _solve_once(h, scale, amp - scale * h.matvec(amp))


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


def _largest_prime_factor(n: int) -> int:
    largest, factor = 1, 2
    while factor * factor <= n:
        while n % factor == 0:
            largest, n = factor, n // factor
        factor += 1
    return max(largest, n)  # what is left of n is 1 or a prime


def _split_stepper(cfg: HamiltonianConfig, grid: Grid, dt: float):
    check_split_operator(cfg, grid)
    c = cfg.constants
    n = grid.n_points
    k = 2.0 * np.pi * sp_fft.fftfreq(n, d=grid.dx)
    kinetic = np.exp(-1j * c.hbar * k**2 * dt / (2.0 * c.mass))
    # The kinetic factor is a circular convolution with the kernel ifft(kinetic).
    # At the sizes the module docstring names it is one zero-padded convolution
    # of length m >= 2n - 1; the kernel is extended periodically to negative
    # offsets, so the first n outputs are the circular ones.
    m, spectrum = n, kinetic
    if _largest_prime_factor(n) ** 2 > n:
        m = sp_fft.next_fast_len(2 * n - 1)
        kernel = sp_fft.ifft(kinetic)
        extended = np.zeros(m, dtype=complex)
        extended[:n] = kernel
        extended[m - n + 1 :] = kernel[1:]
        spectrum = sp_fft.fft(extended)

    def half_v_at(t_mid):
        v = cfg.v1.evaluate(grid, t_mid) + c.charge * cfg.a0.evaluate(grid, t_mid)
        return np.exp(-1j * v * dt / (2.0 * c.hbar))

    def strang(half_v, amp):
        return half_v * sp_fft.ifft(spectrum * sp_fft.fft(half_v * amp, m))[:n]

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
    state (not checkable a priori).  When H and the normalized start have
    zero imaginary parts, every iterate is real and the loop runs in float64.
    """
    if not cfg.is_static:
        raise ValueError("ground-state search requires static potentials")
    if not (dtau > 0 and np.isfinite(dtau)):
        raise ValueError("dtau must be positive and finite")
    if not tol >= 0:
        raise ValueError("tol must be non-negative")
    psi = normalize(psi0)
    grid = psi.grid
    scale = dtau / cfg.constants.hbar
    h = hamiltonian_at(cfg, grid)(0.0)
    amp = psi.amplitudes
    if not any(a.imag.any() for a in (h.diag, h.upper, h.lower, amp)):
        h = TridiagonalHamiltonian(grid, h.diag.real.copy(), h.upper.real.copy(), h.lower.real.copy())
        amp = amp.real.copy()
    if cfg.interaction is None:
        solve = _CayleySolver(h, scale).solve
    else:

        def solve(amp):
            u = mean_field_density_values(cfg.interaction, grid, np.abs(amp) ** 2)
            return _solve_once(h.plus_diagonal(u), scale, amp)

    history = [float(energies_of(cfg, h, amp))]
    converged = False
    iterations = 0
    for _ in range(max_iter):
        amp = solve(amp)
        iterations += 1
        n = norms(grid, amp)  # NaN or inf when an amplitude is
        if not 0.0 < n < np.inf:
            problem = "cannot normalize a zero wavefunction" if n == 0 else "amplitudes must be finite"
            raise RuntimeError(f"imaginary-time iteration {iterations} failed: {problem}")
        amp = amp / n
        history.append(float(energies_of(cfg, h, amp)))
        if abs(history[-1] - history[-2]) < tol:
            converged = True
            break
    h_amp = h.plus_diagonal(mean_field_diagonal(cfg, grid, amp, 1.0)).matvec(amp)
    mu = float(quadrature(grid, np.conj(amp) * h_amp).real)
    return GroundStateResult(
        state=Wavefunction(grid, amp, psi.time),
        energy=history[-1],
        iterations=iterations,
        converged=converged,
        energy_history=np.array(history),
        chemical_potential=mu,
        residual=float(norms(grid, h_amp - mu * amp)),
    )
