"""Action-functional machinery: the two Lagrangian densities, action
integrals over trajectories, stationarity probes, and Rayleigh-Ritz
minimization over parameterized trial families.

Two pointwise densities are computed.  The compact one,

    L = psi* (i hbar d_t - H) psi,

carries second spatial derivatives through H.  The first-order one,

    L1 = Re[psi* i hbar d_t psi] - |P psi|^2 / 2m - (V + q A0) |psi|^2,

is real by construction.  Its kinetic term is assembled from forward
(link) differences, which makes the spatial integrals of L and L1 agree
to rounding for zero vector potential: the discrete summation-by-parts
identity sum |D+ psi|^2 = -sum psi* lap psi holds exactly, so the two
actions differ only by the time-derivative total term and boundary
fluxes, exactly as in the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize

from .grids import Grid, Wavefunction, check_finite, gaussian_wavepacket, normalize, quadrature
from .hamiltonian import (
    HamiltonianConfig,
    energies_of,
    hamiltonian_at,
    hamiltonian_matrix,
    mean_field_diagonal,
    row_blocks,
)
from .propagation import Trajectory


@dataclass(frozen=True, eq=False)
class LagrangianSample:
    """Pointwise values of both densities at one instant."""

    l_simple: np.ndarray
    l_standard: np.ndarray
    time: float


@dataclass(frozen=True)
class ActionValue:
    value: float
    time_window: tuple
    dt: float
    which_density: str


@dataclass(frozen=True, eq=False)
class ActionIntegrals:
    """Spatial integrals of both densities at each snapshot of one trajectory.

    simple is complex (its imaginary part tracks the norm change), standard
    is real; the time-integration rule, a cumulative trapezoid, lives here
    and nowhere else.
    """

    cfg: HamiltonianConfig
    trajectory: Trajectory
    simple: np.ndarray
    standard: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.trajectory.times

    @staticmethod
    def _running_trapezoid(series: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Cumulative trapezoid integral of series over times up to each point (0 at the first)."""
        steps = 0.5 * np.diff(times) * (series[1:] + series[:-1])
        return np.concatenate([[0.0], np.cumsum(steps)])

    def _series(self, which: str) -> np.ndarray:
        if which == "simple":
            return self.simple.real
        if which == "standard":
            return self.standard
        raise ValueError("which must be 'simple' or 'standard'")

    def action(self, which: str = "simple") -> ActionValue:
        """Trapezoidal time integral of the chosen series over the whole window, the last value of running."""
        times = self.times
        return ActionValue(
            value=float(self.running(which)[-1]),
            time_window=(float(times[0]), float(times[-1])),
            dt=float(times[1] - times[0]),
            which_density=which,
        )

    def running(self, which: str = "simple") -> np.ndarray:
        """Cumulative trapezoid integral up to each snapshot (0 at the first)."""
        return self._running_trapezoid(self._series(which), self.times)

    def reality_deviations(self) -> np.ndarray:
        """|Im| of the compact integral at the interior snapshots.

        Interior snapshots only: the one-sided time derivatives at the window
        endpoints carry a first-order phase error that is not a statement
        about the density itself.
        """
        return np.abs(self.simple.imag[1:-1])

    def stationarity(self, perturbation: Wavefunction, epsilons: Sequence[float]) -> StationarityResult:
        """Measure how the action responds to psi -> psi + eps * window * eta.

        The spatial envelope eta is supplied; a sin^2 window in time makes
        the perturbation vanish at both endpoints of the trajectory, as the
        variational boundary conditions require.  The base action is this
        result's; each epsilon costs one pass that evaluates the compact
        density only, perturbing each block of rows as it is read and
        checking that it is finite.
        Returns the action change for each epsilon and the least-squares
        slope of log|dS| vs log eps (2 on solution trajectories, 1 off-shell).
        """
        eps_list = [float(e) for e in epsilons]
        positive = sorted({e for e in eps_list if e > 0})
        if len(positive) < 2:
            raise ValueError("need at least two distinct positive epsilons for a slope")
        traj = self.trajectory
        if perturbation.grid.n_points != traj.grid.n_points:
            raise ValueError("perturbation envelope lives on a different grid")
        times = traj.times
        window = np.sin(np.pi * (times - times[0]) / (times[-1] - times[0])) ** 2
        base = self.action("simple").value
        eta = Wavefunction(traj.grid, perturbation.amplitudes).amplitudes

        def perturbed_action(eps: float) -> float:
            weights = eps * window

            def rows_of(lo: int, hi: int) -> np.ndarray:
                rows = traj.amplitudes[lo:hi] + weights[lo:hi, None] * eta
                check_finite(rows)
                return rows

            simple = np.empty(len(times))
            for lo, hi, h, amp, damp, extra, _ in _blocks(self.cfg, traj.grid, times, rows_of):
                simple[lo:hi] = quadrature(traj.grid, _simple_density(self.cfg, h, amp, damp, extra)).real
            return float(self._running_trapezoid(simple, times)[-1])

        points = []
        for eps in eps_list:
            delta = perturbed_action(eps) - base if eps != 0.0 else 0.0
            points.append((eps, delta))
        fit_points = [(e, d) for e, d in points if e > 0]
        if any(d == 0.0 for _, d in fit_points):
            raise ValueError("degenerate epsilon list: zero action change at nonzero epsilon")
        log_e = np.log([e for e, _ in fit_points])
        log_d = np.log([abs(d) for _, d in fit_points])
        slope = float(np.polyfit(log_e, log_d, 1)[0])
        return StationarityResult(points=tuple(points), slope=slope)


@dataclass(frozen=True, eq=False)
class StationarityResult:
    """Action increments per perturbation amplitude and their log-log slope."""

    points: tuple
    slope: float


@dataclass(frozen=True, eq=False)
class TrialFamily:
    """Named map from a parameter vector to a normalized trial state."""

    name: str
    parameter_names: tuple
    build: Callable[[np.ndarray, Grid], Wavefunction]
    parameter_bounds: tuple

    def initial_point(self, params) -> np.ndarray:
        """params as a float array, once their count and bounds are checked."""
        x0 = np.asarray(params, dtype=float)
        if x0.shape != (len(self.parameter_names),):
            raise ValueError(f"family {self.name!r} takes {len(self.parameter_names)} parameters")
        for value, (lo, hi) in zip(x0, self.parameter_bounds):
            if not (lo <= value <= hi):
                raise ValueError(f"initial parameters outside bounds {self.parameter_bounds}")
        return x0


@dataclass(frozen=True, eq=False)
class RayleighRitzResult:
    params: np.ndarray
    energy: float
    history: np.ndarray
    converged: bool
    message: str


def _forward_kinetic_density(cfg: HamiltonianConfig, grid: Grid, amp: np.ndarray, t: float) -> np.ndarray:
    """|P psi|^2 / 2m per link of each row of amp (..., N), with P on forward differences (staggered A).

    Link j joins nodes j and j+1, the last one wrapping round to node 0; on
    a Dirichlet grid that link joins two clamped zeros, so its density is 0.
    """
    c = cfg.constants
    a = cfg.a_vec.evaluate(grid, t)
    nxt = np.roll(amp, -1, axis=-1)
    d_plus = (nxt - amp) / grid.dx
    a_link = 0.5 * (a + np.concatenate((a[1:], a[:1])))
    p_plus = -1j * c.hbar * d_plus - c.charge * a_link * (0.5 * (amp + nxt))
    return np.abs(p_plus) ** 2 / (2.0 * c.mass)


def lagrangian_densities(
    cfg: HamiltonianConfig,
    psi: Wavefunction,
    dpsi_dt: Wavefunction,
    t: float = 0.0,
) -> LagrangianSample:
    """Evaluate both densities at one instant, given the time derivative.

    The time derivative is supplied externally (finite differences on a
    trajectory, or an analytic rate).  For mean-field configurations the
    interaction enters with the variational half weight, so the action
    built from these densities is stationary on mean-field trajectories.
    """
    if dpsi_dt.grid is not psi.grid and dpsi_dt.grid.n_points != psi.grid.n_points:
        raise ValueError("state and its time derivative live on different grids")
    h = hamiltonian_matrix(cfg, psi.grid, t)
    amp, damp = psi.amplitudes, dpsi_dt.amplitudes
    extra = mean_field_diagonal(cfg, psi.grid, amp, 0.5)
    return LagrangianSample(
        _simple_density(cfg, h, amp, damp, extra), _standard_density(cfg, psi.grid, amp, damp, t, extra), t
    )


def _simple_density(cfg: HamiltonianConfig, h, amp: np.ndarray, damp: np.ndarray, extra) -> np.ndarray:
    """psi* (i hbar d_t - H) psi of each row of amp (..., N) with rate damp, on h plus the mean field extra."""
    h_psi = h.plus_diagonal(extra).matvec(amp)
    return np.conj(amp) * (1j * cfg.constants.hbar * damp - h_psi)


def _standard_density(
    cfg: HamiltonianConfig, grid: Grid, amp: np.ndarray, damp: np.ndarray, t: float, extra
) -> np.ndarray:
    """The first-order density of each row of amp (..., N) with rate damp at t, with the mean field extra."""
    c = cfg.constants
    time_part = -c.hbar * np.imag(np.conj(amp) * damp)
    kinetic = _forward_kinetic_density(cfg, grid, amp, t)
    scalar = cfg.v1.evaluate(grid, t) + c.charge * cfg.a0.evaluate(grid, t)
    if extra is not None:
        scalar = scalar + extra
    return time_part - kinetic - scalar * np.abs(amp) ** 2


def _check_uniform(times: np.ndarray) -> float:
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("trajectory snapshots must be uniformly spaced in time")
    return float(steps[0])


MIN_ACTION_RECORDS = 3


def check_action_records(n_records: int) -> None:
    """Raise ValueError when n_records recorded states are too few to integrate the action."""
    if n_records < MIN_ACTION_RECORDS:
        raise ValueError(
            f"need at least {MIN_ACTION_RECORDS} snapshots to integrate the action, got {n_records}"
        )


def action_integrals(cfg: HamiltonianConfig, traj: Trajectory) -> ActionIntegrals:
    """One pass over the snapshots: the spatial integral of both densities at each.

    The time derivative at each row is the centred difference of its
    neighbours (one-sided at the ends), formed a block of rows at a time.  Every
    action-derived quantity of a trajectory (both actions, their running
    integrals, the reality deviations, the stationarity probe) is read
    from the result.
    """
    times = traj.times
    check_action_records(len(times))
    _check_uniform(times)
    grid = traj.grid
    simple = np.empty(len(times), dtype=complex)
    standard = np.empty(len(times))
    for lo, hi, h, amp, damp, extra, t in _blocks(cfg, grid, times, lambda lo, hi: traj.amplitudes[lo:hi]):
        simple[lo:hi] = quadrature(grid, _simple_density(cfg, h, amp, damp, extra))
        standard[lo:hi] = quadrature(grid, _standard_density(cfg, grid, amp, damp, t, extra)).real
    return ActionIntegrals(cfg, traj, simple, standard)


def _blocks(cfg: HamiltonianConfig, grid: Grid, times: np.ndarray, rows_of: Callable):
    """(lo, hi, h, amp, damp, extra, t) of each block of row_blocks, with rows_of(lo, hi) the rows lo..hi-1.

    amp holds rows lo..hi-1 and damp their time derivatives, read with one
    halo row on each side; h is H at t = times[lo] and extra the half-weight
    mean field of amp, which both densities share.
    """
    h_at = hamiltonian_at(cfg, grid)
    last = len(times) - 1
    for lo, hi in row_blocks(cfg, grid.n_points, len(times)):
        start = max(lo - 1, 0)
        rows = rows_of(start, min(hi + 1, last + 1))
        k = np.arange(lo, hi)
        prev, nxt = np.maximum(k - 1, 0), np.minimum(k + 1, last)
        damp = (rows[nxt - start] - rows[prev - start]) / (times[nxt] - times[prev])[:, None]
        amp = rows[lo - start : hi - start]
        yield lo, hi, h_at(times[lo]), amp, damp, mean_field_diagonal(cfg, grid, amp, 0.5), times[lo]


def action(cfg: HamiltonianConfig, traj: Trajectory, which: str = "simple") -> ActionValue:
    """Trapezoidal time integral of the spatial integral of the chosen density.

    The stored value is the real part; the imaginary part of the compact
    density integrates to the norm change and vanishes on unitary
    trajectories (see ActionIntegrals.reality_deviations).
    """
    return action_integrals(cfg, traj).action(which)


def gaussian_family() -> TrialFamily:
    """Normalized Gaussians exp(-(x-c)^2 / 4 w^2) with free center and width."""

    def build(params: np.ndarray, grid: Grid) -> Wavefunction:
        center, width = params
        return gaussian_wavepacket(grid, center=center, width=width)

    return TrialFamily(
        name="gaussian",
        parameter_names=("center", "width"),
        build=build,
        parameter_bounds=((-5.0, 5.0), (0.05, 20.0)),
    )


def gaussian_phase_family() -> TrialFamily:
    """Gaussians with an extra plane-wave phase (a velocity parameter)."""

    def build(params: np.ndarray, grid: Grid) -> Wavefunction:
        center, width, wavenumber = params
        return gaussian_wavepacket(grid, center=center, width=width, wavenumber=wavenumber)

    return TrialFamily(
        name="gaussian-phase",
        parameter_names=("center", "width", "wavenumber"),
        build=build,
        parameter_bounds=((-5.0, 5.0), (0.05, 20.0), (-10.0, 10.0)),
    )


def box_sine_family() -> TrialFamily:
    """Mixture of the three lowest box sine modes, first coefficient fixed to 1."""

    def build(params: np.ndarray, grid: Grid) -> Wavefunction:
        c2, c3 = params
        length = grid.x_max - grid.x_min
        xi = (grid.x - grid.x_min) / length
        amp = np.sin(np.pi * xi) + c2 * np.sin(2 * np.pi * xi) + c3 * np.sin(3 * np.pi * xi)
        return normalize(Wavefunction(grid, amp.astype(complex)))

    return TrialFamily(
        name="box-sine",
        parameter_names=("c2", "c3"),
        build=build,
        parameter_bounds=((-5.0, 5.0), (-5.0, 5.0)),
    )


# Trial families by the name a scenario gives them.
FAMILIES = {
    "gaussian": gaussian_family,
    "gaussian-phase": gaussian_phase_family,
    "box-sine": box_sine_family,
}


def rayleigh_ritz_minimize(
    cfg: HamiltonianConfig,
    family: TrialFamily,
    initial_params,
    *,
    grid: Grid,
    max_iter: int = 500,
) -> RayleighRitzResult:
    """Minimize <phi|H|phi> over the family by Nelder-Mead simplex.

    The family builds normalized states, so the normalization constraint
    is enforced by construction and the returned energy is an upper bound
    on the ground-state energy of the discretized Hamiltonian, which must
    be static.  Parameter vectors that fail to build (or give non-finite
    energy) are treated as infinitely bad vertices, which shrinks the
    simplex and continues.  The simplex stops at energy changes below
    1e-10 and vertex spreads below 1e-8.
    """
    if not cfg.is_static:
        raise ValueError("Rayleigh-Ritz minimization requires static potentials")
    x0 = family.initial_point(initial_params)
    h = hamiltonian_matrix(cfg, grid)
    history = []

    def objective(params: np.ndarray) -> float:
        try:
            e = float(energies_of(cfg, h, family.build(params, grid).amplitudes))
        except (ValueError, FloatingPointError, ZeroDivisionError):
            return np.inf
        if not np.isfinite(e):
            return np.inf
        history.append(e)
        return e

    result = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        bounds=family.parameter_bounds,
        options={"maxiter": max_iter, "fatol": 1e-10, "xatol": 1e-8},
    )
    best = float(result.fun)
    return RayleighRitzResult(
        params=np.asarray(result.x, dtype=float),
        energy=best,
        history=np.array(history),
        converged=bool(result.success and np.isfinite(best)),
        message=str(result.message),
    )
