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

An action is the float that ends ActionIntegrals.running, the trapezoid
time integral over a grids.Trajectory.  The stationarity probe perturbs a
trajectory by eps * window * eta.  The compact action's change is
eps S1 + eps^2 S2 + eps^3 S3 + eps^4 S4 exactly: for a linear H it is a
Hermitian form in psi, so S3 = S4 = 0 and two inner products per row give
S1 and S2, and the half-weight mean field adds a bilinear form of the
density to all four, read in the same pass.  One read of the trajectory
serves every eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .grids import Grid, Trajectory, Wavefunction, gaussian_wavepacket, normalize, norms, quadrature
from .grids import require_same_grid
from .hamiltonian import (
    HamiltonianConfig,
    energies_of,
    hamiltonian_at,
    hamiltonian_matrix,
    mean_field_density_values,
    mean_field_diagonal,
    row_blocks,
)


@dataclass(frozen=True, eq=False)
class LagrangianSample:
    """Pointwise values of both densities at one instant."""

    l_simple: np.ndarray
    l_standard: np.ndarray
    time: float


@dataclass(frozen=True, eq=False)
class ActionIntegrals:
    """Spatial integrals of both densities at each snapshot of one trajectory, and each snapshot's norm and energy.

    simple is complex (its imaginary part tracks the norm change), standard
    is real; the time-integration rule, a cumulative trapezoid, lives here
    and nowhere else.  norms and energies are each row's grids.norms and
    hamiltonian.energies_of, bit for bit, read in the same pass from the
    |psi|^2 and H psi the densities use.  A trajectory of fewer than
    MIN_ACTION_RECORDS rows has no action: simple and standard are None, and
    running, reality_deviations and stationarity raise ValueError.
    """

    cfg: HamiltonianConfig
    trajectory: Trajectory
    simple: Optional[np.ndarray]
    standard: Optional[np.ndarray]
    norms: np.ndarray
    energies: np.ndarray

    @staticmethod
    def _running_trapezoid(series: np.ndarray, times: np.ndarray) -> np.ndarray:
        """Cumulative trapezoid integral of series over times up to each point (0 at the first)."""
        steps = 0.5 * np.diff(times) * (series[1:] + series[:-1])
        return np.concatenate([[0.0], np.cumsum(steps)])

    def running(self, which: str = "simple") -> np.ndarray:
        """Cumulative trapezoid integral of the chosen series up to each snapshot (0 at the first)."""
        if which not in ("simple", "standard"):
            raise ValueError("which must be 'simple' or 'standard'")
        check_action_records(len(self.trajectory.times))
        series = self.simple.real if which == "simple" else self.standard
        return self._running_trapezoid(series, self.trajectory.times)

    def reality_deviations(self) -> np.ndarray:
        """|Im| of the compact integral at the interior snapshots.

        Interior snapshots only: the one-sided time derivatives at the window
        endpoints carry a first-order phase error that is not a statement
        about the density itself.
        """
        check_action_records(len(self.trajectory.times))
        return np.abs(self.simple.imag[1:-1])

    def stationarity(self, perturbation: Wavefunction, epsilons: Sequence[float]) -> StationarityResult:
        """Measure how the action responds to psi -> psi + eps * window * eta.

        The spatial envelope eta is supplied on the trajectory's grid; a
        sin^2 window in time makes the perturbation vanish at both endpoints
        of the trajectory, as the variational boundary conditions require.
        The compact action is a polynomial in eps of degree 2 for a linear H
        and 4 with an interaction, so the change is
        eps S1 + eps^2 S2 + eps^3 S3 + eps^4 S4 exactly: the four
        coefficients come from one read of the trajectory (see _expansion)
        and serve every epsilon.  The eps^3 and eps^4 terms are formed only
        where S3 or S4 is nonzero, so a linear H keeps eps S1 + eps^2 S2.
        Returns the action change for each epsilon, the least-squares slope
        of log|dS| vs log eps (2 on solution trajectories, 1 off-shell) and
        S1 to S4.  Raises ValueError when an action change is not finite.
        """
        eps_list = [float(e) for e in epsilons]
        positive = sorted({e for e in eps_list if e > 0})
        if len(positive) < 2:
            raise ValueError("need at least two distinct positive epsilons for a slope")
        traj = self.trajectory
        check_action_records(len(traj.times))
        require_same_grid(perturbation.grid, traj.grid)
        times = traj.times
        window = np.sin(np.pi * (times - times[0]) / (times[-1] - times[0])) ** 2
        first, second, third, fourth = self._expansion(window, perturbation.amplitudes)

        def change(eps: float) -> float:
            delta = eps * first + eps * eps * second
            if third or fourth:  # both 0 on a linear H, where inf * 0 would make a finite change NaN
                cube = eps * eps * eps
                delta += cube * third + cube * eps * fourth
            return delta

        points = []
        for eps in eps_list:
            delta = change(eps) if eps != 0.0 else 0.0
            if not math.isfinite(delta):
                raise ValueError(f"the action change at epsilon {eps!r} is not finite")
            points.append((eps, delta))
        fit_points = [(e, d) for e, d in points if e > 0]
        if any(d == 0.0 for _, d in fit_points):
            raise ValueError("degenerate epsilon list: zero action change at nonzero epsilon")
        log_e = np.log([e for e, _ in fit_points])
        log_d = np.log([abs(d) for _, d in fit_points])
        slope = float(np.polyfit(log_e, log_d, 1)[0])
        return StationarityResult(tuple(points), slope, first, second, third, fourth)

    def _expansion(self, window: np.ndarray, eta: np.ndarray) -> tuple:
        """(S1, S2, S3, S4) of the compact action's change sum_j eps^j S_j under psi -> psi + eps * window * eta.

        The linear part is a Hermitian form in psi under the quadrature inner
        product <a, b>.  With c_k = <eta, psi_k>, d_k = <H(t_k) eta, psi_k> =
        <eta, H(t_k) psi_k> and e_k = <eta, H(t_k) eta>, and the rates of
        window and c formed as _blocks forms the rate of psi, its density
        integrals at row k are s1 = Re[i hbar (window' conj(c) + window c')]
        - 2 window Re d and s2 = -window^2 e.  An interaction adds the
        half-weight term -B(rho, rho) / 2, with B(a, b) = int a U(b) and U
        hamiltonian.mean_field_density_values, one symmetric bilinear form for
        a contact and a kernel alike.  The perturbed density is
        rho + eps w r + eps^2 w^2 q, with r = 2 Re(psi* eta), q = |eta|^2 and
        w the window, so the term adds -w B(rho, r) to s1 and
        -w^2 (B(r, r) + 2 B(rho, q)) / 2 to s2, and gives s3 = -w^3 B(r, q)
        and s4 = -w^4 B(q, q) / 2; U(q) is formed once and U(r) once per row
        block, a kernel's by one matrix product for the block's rows.
        S1 to S4 are the trapezoid time integrals; S3 = S4 = 0 for a linear H.
        """
        traj = self.trajectory
        grid, times = traj.grid, traj.times
        interaction = self.cfg.interaction
        c = np.empty(len(times), dtype=complex)
        d = np.empty(len(times), dtype=complex)
        e = np.empty(len(times))
        h_at = hamiltonian_at(self.cfg, grid)
        bra = np.conj(eta)
        weighted_bra = grid.weights * bra
        if interaction is not None:
            q = np.abs(eta) ** 2
            weighted_u_q = grid.weights * mean_field_density_values(interaction, grid, q)
            forms = np.empty((4, len(times)))  # B(rho, r), B(r, r), B(rho, q) and B(r, q) of each row
        h = None
        for lo, hi in row_blocks(self.cfg, grid.n_points, len(times)):
            h_now = h_at(times[lo])
            if h_now is not h:  # a static H is assembled, and applied to eta, once
                h, h_eta = h_now, h_now.matvec(eta)
                weighted_h_bra, energy = grid.weights * np.conj(h_eta), quadrature(grid, bra * h_eta).real
            # the quadrature inner products of the block's rows, one matrix product each
            rows = traj.amplitudes[lo:hi]
            c[lo:hi] = rows @ weighted_bra
            d[lo:hi] = rows @ weighted_h_bra
            e[lo:hi] = energy
            if interaction is not None:
                rho, r = np.abs(rows) ** 2, 2.0 * (rows * bra).real
                if interaction.kind == "contact":
                    u_r = mean_field_density_values(interaction, grid, r)
                else:  # one product for the block, which rounds apart from U of one state; only these forms read it
                    u_r = ((interaction.n_particles - 1) * grid.weights * r) @ interaction.kernel.T
                forms[:2, lo:hi] = quadrature(grid, rho * u_r), quadrature(grid, r * u_r)
                forms[2:, lo:hi] = rho @ weighted_u_q, r @ weighted_u_q
        hbar = self.cfg.constants.hbar
        s1 = (1j * hbar * (_rate(window, times) * np.conj(c) + window * _rate(c, times))).real - 2.0 * window * d.real
        s2 = -(window**2) * e
        s3 = s4 = np.zeros(len(times))
        if interaction is not None:
            s1 = s1 - window * forms[0]
            s2 = s2 - 0.5 * window**2 * (forms[1] + 2.0 * forms[2])
            s3 = -(window**3) * forms[3]
            s4 = -0.5 * window**4 * float(q @ weighted_u_q)
        return tuple(float(self._running_trapezoid(s, times)[-1]) for s in (s1, s2, s3, s4))


@dataclass(frozen=True, eq=False)
class StationarityResult:
    """Action increments per perturbation amplitude, their log-log slope, and the exact coefficients.

    first_order to fourth_order are S1 to S4 of
    dS(eps) = eps S1 + eps^2 S2 + eps^3 S3 + eps^4 S4; third_order and
    fourth_order are 0.0 for a linear H, whose action is quadratic in eps.
    """

    points: tuple
    slope: float
    first_order: float
    second_order: float
    third_order: float
    fourth_order: float


@dataclass(frozen=True, eq=False)
class TrialFamily:
    """Named map from a parameter vector to a normalized trial state, with its parameter derivatives.

    derivatives maps (params, grid, build(params, grid)) to a (p, N) array
    whose row i is the derivative in parameter i of the family's
    unnormalized sample, divided by that sample's norm.
    """

    name: str
    parameter_names: tuple
    build: Callable[[np.ndarray, Grid], Wavefunction]
    parameter_bounds: tuple
    derivatives: Callable[[np.ndarray, Grid, Wavefunction], np.ndarray]

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
    """The minimizing parameters and energy, with one history entry per finite evaluation.

    gradient_norm is the infinity norm of the projected energy gradient at
    params when L-BFGS-B returned them, None after a hand-off to Nelder-Mead.
    """

    params: np.ndarray
    energy: float
    history: np.ndarray
    converged: bool
    message: str
    gradient_norm: Optional[float]


def _forward_kinetic_density(cfg: HamiltonianConfig, grid: Grid, amp: np.ndarray, t: float) -> np.ndarray:
    """|P psi|^2 / 2m per link of each row of amp (..., N), with P on forward differences (staggered A).

    Link j joins nodes j and j+1, the last one wrapping round to node 0; on
    a Dirichlet grid that link joins two clamped zeros, so its density is 0.
    Where A(t) is zero on the whole grid the A term is an exact zero and is
    not formed: p+ = -i hbar D+ psi, with D+ psi formed in the rolled copy.
    """
    c = cfg.constants
    a = cfg.a_vec.evaluate(grid, t)
    nxt = np.roll(amp, -1, axis=-1)
    if a.any():
        d_plus = (nxt - amp) / grid.dx
        a_link = 0.5 * (a + np.concatenate((a[1:], a[:1])))
        p_plus = -1j * c.hbar * d_plus - c.charge * a_link * (0.5 * (amp + nxt))
    else:
        nxt -= amp
        nxt /= grid.dx
        p_plus = np.multiply(-1j * c.hbar, nxt, out=nxt)
    kinetic = np.abs(p_plus)
    np.square(kinetic, out=kinetic)
    kinetic /= 2.0 * c.mass
    return kinetic


def lagrangian_densities(cfg: HamiltonianConfig, psi: Wavefunction, dpsi_dt: Wavefunction) -> LagrangianSample:
    """Evaluate both densities at psi.time, given the time derivative on psi's grid.

    The time derivative is supplied externally (finite differences on a
    trajectory, or an analytic rate).  For mean-field configurations the
    interaction enters with the variational half weight, so the action
    built from these densities is stationary on mean-field trajectories.
    """
    require_same_grid(dpsi_dt.grid, psi.grid)
    t = psi.time
    h = hamiltonian_matrix(cfg, psi.grid, t)
    amp, damp = psi.amplitudes, dpsi_dt.amplitudes
    extra = mean_field_diagonal(cfg, psi.grid, amp, 0.5)
    h_psi = h.plus_diagonal(extra).matvec(amp)
    return LagrangianSample(
        _simple_density(cfg, h_psi, np.conj(amp), damp),
        _standard_density(cfg, psi.grid, amp, np.abs(amp) ** 2, damp, t, extra),
        t,
    )


def _simple_density(cfg: HamiltonianConfig, h_psi: np.ndarray, bra: np.ndarray, damp: np.ndarray) -> np.ndarray:
    """psi* (i hbar d_t - H) psi of each row (..., N), given H psi (mean field included), bra = psi* and rate damp."""
    return bra * (1j * cfg.constants.hbar * damp - h_psi)


def _standard_density(
    cfg: HamiltonianConfig, grid: Grid, amp: np.ndarray, rho: np.ndarray, damp: np.ndarray, t: float, extra
) -> np.ndarray:
    """The first-order density of each row of amp (..., N), rho = |amp|^2, with rate damp at t and mean field extra."""
    c = cfg.constants
    time_part = -c.hbar * np.imag(np.conj(amp) * damp)
    kinetic = _forward_kinetic_density(cfg, grid, amp, t)
    scalar = cfg.v1.evaluate(grid, t) + c.charge * cfg.a0.evaluate(grid, t)
    if extra is not None:
        scalar = scalar + extra
    return time_part - kinetic - scalar * rho


def _check_uniform(times: np.ndarray) -> None:
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError("trajectory snapshots must be uniformly spaced in time")


MIN_ACTION_RECORDS = 3


def check_action_records(n_records: int) -> None:
    """Raise ValueError when n_records recorded states are too few to integrate the action."""
    if n_records < MIN_ACTION_RECORDS:
        raise ValueError(
            f"need at least {MIN_ACTION_RECORDS} snapshots to integrate the action, got {n_records}"
        )


def action_integrals(cfg: HamiltonianConfig, traj: Trajectory) -> ActionIntegrals:
    """One pass over the snapshots: the spatial integral of both densities at each, and each one's norm and energy.

    The time derivative at each row is the centred difference of its
    neighbours (one-sided at the ends), formed a block of rows at a time.  Every
    action-derived quantity of a trajectory (both actions, their running
    integrals, the reality deviations, the stationarity probe) is read
    from the result.  The pass forms each row's |psi|^2 and H psi (with the
    half-weight mean field) once, for the densities, the norm and the energy,
    so the norm and energy columns of a run's diagnostics come from here.
    A trajectory of fewer than MIN_ACTION_RECORDS rows gets norms and
    energies only.  Raises RuntimeError, as energies_of does, when an energy
    has an imaginary part, and ValueError when the snapshots of an integrable
    trajectory are not uniformly spaced.
    """
    times = traj.times
    integrable = len(times) >= MIN_ACTION_RECORDS
    if integrable:
        _check_uniform(times)
    grid = traj.grid
    simple = np.empty(len(times), dtype=complex) if integrable else None
    standard = np.empty(len(times)) if integrable else None
    row_norms, energies = np.empty(len(times)), np.empty(len(times))
    for lo, hi, h, amp, damp, extra, t in _blocks(cfg, traj):
        h_psi, bra, rho = h.plus_diagonal(extra).matvec(amp), np.conj(amp), np.abs(amp) ** 2
        row_norms[lo:hi] = np.sqrt(quadrature(grid, rho))  # grids.norms
        energies[lo:hi] = _real_energies(quadrature(grid, bra * h_psi))  # hamiltonian.energies_of
        if integrable:
            simple[lo:hi] = quadrature(grid, _simple_density(cfg, h_psi, bra, damp))
            standard[lo:hi] = quadrature(grid, _standard_density(cfg, grid, amp, rho, damp, t, extra)).real
    return ActionIntegrals(cfg, traj, simple, standard, row_norms, energies)


def _real_energies(values: np.ndarray) -> np.ndarray:
    """The real parts of <psi|H|psi> values; raises as TridiagonalHamiltonian.expectations does on an imaginary part."""
    if (np.abs(values.imag) > 1e-8).any():
        imag = np.ravel(values.imag)
        raise RuntimeError(
            f"energy has imaginary part {imag[np.abs(imag) > 1e-8][0]:.3e}; Hamiltonian assembly is not Hermitian"
        )
    return values.real


def _blocks(cfg: HamiltonianConfig, traj: Trajectory):
    """(lo, hi, h, amp, damp, extra, t) of each block of row_blocks over the rows of traj.

    amp holds rows lo..hi-1 and damp their time derivatives, read with one
    halo row on each side (None for a trajectory of fewer than
    MIN_ACTION_RECORDS rows, which has no action); h is H at t = times[lo]
    and extra the half-weight mean field of amp, which both densities share.
    """
    grid, times = traj.grid, traj.times
    h_at = hamiltonian_at(cfg, grid)
    last = len(times) - 1
    for lo, hi in row_blocks(cfg, grid.n_points, len(times)):
        start = max(lo - 1, 0)
        rows = traj.amplitudes[start : hi + 1]
        damp = None
        if len(times) >= MIN_ACTION_RECORDS:
            prev, nxt = _neighbours(lo, hi, last)
            damp = (rows[nxt - start] - rows[prev - start]) / (times[nxt] - times[prev])[:, None]
        amp = rows[lo - start : hi - start]
        yield lo, hi, h_at(times[lo]), amp, damp, mean_field_diagonal(cfg, grid, amp, 0.5), times[lo]


def _neighbours(lo: int, hi: int, last: int) -> tuple:
    """Indices of the rows before and after each of rows lo..hi-1, the row itself standing in past 0 and last."""
    k = np.arange(lo, hi)
    return np.maximum(k - 1, 0), np.minimum(k + 1, last)


def _rate(series: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Time derivative of series at each of times as _blocks forms it: centred, one-sided at both ends."""
    prev, nxt = _neighbours(0, len(times), len(times) - 1)
    return (series[nxt] - series[prev]) / (times[nxt] - times[prev])


def action(cfg: HamiltonianConfig, traj: Trajectory, which: str = "simple") -> float:
    """Trapezoidal time integral of the spatial integral of the chosen density over the whole trajectory.

    This is the last value of ActionIntegrals.running.  Of the compact
    density only the real part is integrated; its imaginary part integrates
    to the norm change and vanishes on unitary trajectories (see
    ActionIntegrals.reality_deviations).
    """
    return float(action_integrals(cfg, traj).running(which)[-1])


def _gaussian_derivatives(params: np.ndarray, grid: Grid, state: Wavefunction) -> np.ndarray:
    """Rows (x-c)/2w^2 and (x-c)^2/2w^3, and i x for a third (wavenumber) parameter, each times state."""
    center, width = params[0], params[1]
    amp = state.amplitudes
    u = grid.x - center
    out = np.empty((len(params), grid.n_points), dtype=complex)
    np.multiply(u / (2.0 * width**2), amp, out=out[0])
    np.multiply(u**2 / (2.0 * width**3), amp, out=out[1])
    if len(params) == 3:
        np.multiply(1j * grid.x, amp, out=out[2])
    return out


def _gaussian_build(params: np.ndarray, grid: Grid) -> Wavefunction:
    """The Gaussian families' one build: params are (center, width) or (center, width, wavenumber)."""
    return gaussian_wavepacket(grid, *params)


def gaussian_family() -> TrialFamily:
    """Normalized Gaussians exp(-(x-c)^2 / 4 w^2) with free center and width."""
    return TrialFamily(
        name="gaussian",
        parameter_names=("center", "width"),
        build=_gaussian_build,
        parameter_bounds=((-5.0, 5.0), (0.05, 20.0)),
        derivatives=_gaussian_derivatives,
    )


def gaussian_phase_family() -> TrialFamily:
    """Gaussians with an extra plane-wave phase (a velocity parameter)."""
    return TrialFamily(
        name="gaussian-phase",
        parameter_names=("center", "width", "wavenumber"),
        build=_gaussian_build,
        parameter_bounds=((-5.0, 5.0), (0.05, 20.0), (-10.0, 10.0)),
        derivatives=_gaussian_derivatives,
    )


def box_sine_family() -> TrialFamily:
    """Mixture of the three lowest box sine modes, first coefficient fixed to 1."""

    def modes(grid: Grid) -> tuple:
        xi = (grid.x - grid.x_min) / (grid.x_max - grid.x_min)
        return np.sin(np.pi * xi), np.sin(2 * np.pi * xi), np.sin(3 * np.pi * xi)

    def sample(params: np.ndarray, grid: Grid) -> np.ndarray:
        c2, c3 = params
        s1, s2, s3 = modes(grid)
        return s1 + c2 * s2 + c3 * s3

    def build(params: np.ndarray, grid: Grid) -> Wavefunction:
        return normalize(Wavefunction(grid, sample(params, grid).astype(complex)))

    def derivatives(params: np.ndarray, grid: Grid, state: Wavefunction) -> np.ndarray:
        return np.array(modes(grid)[1:]) / norms(grid, sample(params, grid))

    return TrialFamily(
        name="box-sine",
        parameter_names=("c2", "c3"),
        build=build,
        parameter_bounds=((-5.0, 5.0), (-5.0, 5.0)),
        derivatives=derivatives,
    )


# Trial families by the name a scenario gives them.
FAMILIES = {
    "gaussian": gaussian_family,
    "gaussian-phase": gaussian_phase_family,
    "box-sine": box_sine_family,
}

# What a trial state that cannot be built or evaluated raises.
_BUILD_ERRORS = (ValueError, FloatingPointError, ZeroDivisionError)


class _FailedEvaluation(Exception):
    """A trial state failed to build or gave a non-finite energy or gradient under L-BFGS-B."""


def energy_and_gradient(cfg: HamiltonianConfig, h, family: TrialFamily, params: np.ndarray) -> tuple:
    """energies_of the family's state at params on the static h, and its gradient in params.

    With phi the state, r = H phi under the full-weight mean field and
    mu = <phi|r>, the derivative in parameter i is 2 Re <D_i|r - mu phi>,
    D_i the family's derivative rows.  The half-weight interaction energy
    differentiates to the full-weight field, so mu is not the energy when
    there is an interaction.  r - mu phi is formed once and each derivative
    row is reduced against it on its own, so no (p, N) temporary is made.
    """
    grid = h.grid
    state = family.build(params, grid)
    phi = state.amplitudes
    e = float(energies_of(cfg, h, phi))
    r = h.plus_diagonal(mean_field_diagonal(cfg, grid, phi, 1.0)).matvec(phi)
    mu = quadrature(grid, np.conj(phi) * r).real
    residual = r - mu * phi
    d = family.derivatives(params, grid, state)
    return e, np.array([2.0 * quadrature(grid, np.conj(row) * residual).real for row in d])


def rayleigh_ritz_minimize(
    cfg: HamiltonianConfig,
    family: TrialFamily,
    initial_params,
    *,
    grid: Grid,
    max_iter: int = 500,
) -> RayleighRitzResult:
    """Minimize <phi|H|phi> over the family within its parameter bounds.

    The family builds normalized states, so the normalization constraint
    is enforced by construction and the returned energy is an upper bound
    on the ground-state energy of the discretized Hamiltonian, which must
    be static.  max_iter caps the optimizer's iterations, not its energy
    evaluations; the history holds one energy per finite evaluation.

    The energy is minimized by L-BFGS-B on the exact gradient
    (energy_and_gradient), with scipy's default stopping rule: a relative
    energy change below its ftol or a projected gradient below its gtol.
    The first evaluation that fails to build (or gives a non-finite energy
    or gradient) hands the remaining iterations to Nelder-Mead simplex,
    started from the best finite point seen; it treats failed evaluations
    as infinitely bad vertices, shrinks the simplex and continues, and
    stops at energy changes below 1e-10 and vertex spreads below 1e-8.
    Should that run end on no finite energy, the best finite point is
    returned, not converged.
    """
    from scipy.optimize import minimize  # loaded by Rayleigh-Ritz runs alone

    if not cfg.is_static:
        raise ValueError("Rayleigh-Ritz minimization requires static potentials")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    x0 = family.initial_point(initial_params)
    h = hamiltonian_matrix(cfg, grid)
    history = []

    def objective(params: np.ndarray) -> float:
        try:
            e = float(energies_of(cfg, h, family.build(params, grid).amplitudes))
        except _BUILD_ERRORS:
            return np.inf
        if not np.isfinite(e):
            return np.inf
        history.append(e)
        return e

    def finish(params, energy: float, success: bool, message: str, gradient_norm=None) -> RayleighRitzResult:
        energy = float(energy)
        return RayleighRitzResult(
            params=np.asarray(params, dtype=float),
            energy=energy,
            history=np.array(history),
            converged=bool(success and np.isfinite(energy)),
            message=str(message),
            gradient_norm=gradient_norm,
        )

    best_energy, best_params = np.inf, x0
    iterations = 0

    def with_gradient(params: np.ndarray) -> tuple:
        nonlocal best_energy, best_params
        try:
            e, grad = energy_and_gradient(cfg, h, family, params)
        except _BUILD_ERRORS as exc:
            raise _FailedEvaluation from exc
        if not (np.isfinite(e) and np.isfinite(grad).all()):
            raise _FailedEvaluation
        history.append(e)
        if e < best_energy:
            best_energy, best_params = e, params.copy()
        return e, grad

    def count_iteration(xk: np.ndarray) -> None:
        nonlocal iterations
        iterations += 1

    try:
        result = minimize(
            with_gradient,
            x0,
            method="L-BFGS-B",
            jac=True,
            bounds=family.parameter_bounds,
            options={"maxiter": max_iter},
            callback=count_iteration,
        )
    except _FailedEvaluation:
        result = minimize(
            objective,
            best_params,
            method="Nelder-Mead",
            bounds=family.parameter_bounds,
            options={"maxiter": max_iter - iterations, "fatol": 1e-10, "xatol": 1e-8},
        )
        message = f"evaluation failed after {iterations} L-BFGS-B iterations; Nelder-Mead: {result.message}"
        if np.isfinite(result.fun) or not np.isfinite(best_energy):
            return finish(result.x, result.fun, result.success, message)
        return finish(best_params, best_energy, False, message)
    bounds = np.array(family.parameter_bounds, dtype=float)
    projected = np.clip(result.x - result.jac, bounds[:, 0], bounds[:, 1]) - result.x
    return finish(result.x, result.fun, result.success, result.message, float(np.max(np.abs(projected))))
