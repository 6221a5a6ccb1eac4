"""Conservation-law and formalism-consistency checks: probability density
and current, the continuity residual, the canonical-momentum route to the
energy, equation-of-motion residuals, and global phase transformations.

All functions are pure: input wavefunctions are never mutated.  The
per-state functions and pair_residuals, which the runner applies to
blocks of trajectory rows, share one kernel for each formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import Grid, Wavefunction, central_difference, norms, quadrature, require_same_grid
from .hamiltonian import (
    HamiltonianConfig,
    TridiagonalHamiltonian,
    hamiltonian_matrix,
    mean_field_diagonal,
    mechanical_momentum,
)


@dataclass(frozen=True, eq=False)
class ProbabilityFields:
    """rho = |psi|^2 and the current J = Re[psi* (P/m) psi]."""

    rho: np.ndarray
    current: np.ndarray
    time: float


@dataclass(frozen=True, eq=False)
class ContinuityReport:
    """Pointwise residual of d_t rho + d_x J and its norms."""

    residual: np.ndarray
    sup_norm: float
    l2_norm: float
    dt_used: float


@dataclass(frozen=True, eq=False)
class CanonicalFields:
    """Canonical momentum field i hbar psi* and the Hamiltonian functional."""

    pi: np.ndarray
    hamiltonian_functional: float


def _current(cfg: HamiltonianConfig, grid: Grid, amp: np.ndarray, t: float) -> np.ndarray:
    """J = Re[psi* (P/m) psi] of each row of amp (..., N)."""
    velocity = mechanical_momentum(cfg, grid, amp, t) / cfg.constants.mass
    return np.real(np.conj(amp) * velocity)


def probability_fields(cfg: HamiltonianConfig, psi: Wavefunction) -> ProbabilityFields:
    """rho and J of psi, with the vector potential at psi.time."""
    rho = np.abs(psi.amplitudes) ** 2
    return ProbabilityFields(rho=rho, current=_current(cfg, psi.grid, psi.amplitudes, psi.time), time=psi.time)


def _pair_step(psi_before: Wavefunction, psi_after: Wavefunction):
    """(dt, midpoint amplitudes, midpoint time) of two snapshots on one grid."""
    require_same_grid(psi_before.grid, psi_after.grid)
    dt = psi_after.time - psi_before.time
    if dt == 0.0:
        raise ValueError("snapshots have identical times")
    return dt, 0.5 * (psi_before.amplitudes + psi_after.amplitudes), psi_before.time + dt / 2.0


def _continuity_field(cfg, grid: Grid, rho_before, rho_after, mid, dt, t_mid: float) -> np.ndarray:
    """d_t rho + d_x J of each pair of rows, given both densities, with J at the rows of the midpoint states mid."""
    d_rho = (rho_after - rho_before) / dt
    return d_rho + central_difference(grid, _current(cfg, grid, mid, t_mid))


def _hamilton_fields(cfg, h: TridiagonalHamiltonian, before, after, mid, dt) -> tuple:
    """(d_t psi, H psi at the midpoint) of each pair of rows, with the full-weight mean field of mid."""
    d_psi = (after - before) / dt
    h_mid = h.plus_diagonal(mean_field_diagonal(cfg, h.grid, mid, 1.0)).matvec(mid)
    return d_psi, h_mid


def continuity_residual(
    cfg: HamiltonianConfig, psi_before: Wavefunction, psi_after: Wavefunction
) -> ContinuityReport:
    """Residual of local probability conservation between two snapshots.

    d_t rho is the two-snapshot difference quotient; J is evaluated at
    the arithmetic-mean state (no renormalization), matching the midpoint
    structure of the Cayley stepper so the residual sits at truncation
    order rather than O(dt).
    """
    dt, mid, t_mid = _pair_step(psi_before, psi_after)
    grid = psi_before.grid
    rho_before, rho_after = np.abs(psi_before.amplitudes) ** 2, np.abs(psi_after.amplitudes) ** 2
    residual = _continuity_field(cfg, grid, rho_before, rho_after, mid, dt, t_mid)
    sup = float(np.max(np.abs(residual)))
    return ContinuityReport(residual=residual, sup_norm=sup, l2_norm=float(norms(grid, residual)), dt_used=float(dt))


def pair_residuals(
    cfg: HamiltonianConfig,
    h_at: Callable[[float], TridiagonalHamiltonian],
    times: np.ndarray,
    amps: np.ndarray,
) -> tuple:
    """(continuity sup, continuity l2, Hamilton r1) of each consecutive pair of rows of amps (B + 1, N).

    The rows are states on the grid of h_at's H, recorded at times (B + 1,),
    and each array holds one value per pair, as continuity_residual and
    hamilton_equations_residual give it; each row's density and each
    pair's midpoint state are formed once.  The potentials are evaluated at
    the first pair's midpoint time, so with time-dependent potentials amps
    holds one pair, as the blocks of row_blocks do.
    """
    before, after = amps[:-1], amps[1:]
    dt = (times[1:] - times[:-1])[:, None]
    mid = 0.5 * (before + after)
    t_mid = times[0] + dt[0, 0] / 2.0
    h = h_at(t_mid)
    grid = h.grid
    rho = np.abs(amps) ** 2
    residual = _continuity_field(cfg, grid, rho[:-1], rho[1:], mid, dt, t_mid)
    d_psi, h_mid = _hamilton_fields(cfg, h, before, after, mid, dt)
    r1 = norms(grid, d_psi - h_mid / (1j * cfg.constants.hbar))
    return np.max(np.abs(residual), axis=-1), norms(grid, residual), r1


def canonical_fields(cfg: HamiltonianConfig, psi: Wavefunction) -> CanonicalFields:
    """Canonical momentum pi = i hbar psi* and the functional (1/i hbar) int pi H psi, H at psi.time.

    The functional is computed through the momentum field and must agree
    with the direct energy quadrature to rounding; for mean-field
    configurations it uses the same half-weight interaction as the energy.
    """
    hbar = cfg.constants.hbar
    amp = psi.amplitudes
    pi = 1j * hbar * np.conj(amp)
    h = hamiltonian_matrix(cfg, psi.grid, psi.time).plus_diagonal(mean_field_diagonal(cfg, psi.grid, amp, 0.5))
    h_psi = h.matvec(amp)
    value = quadrature(psi.grid, pi * h_psi) / (1j * hbar)
    return CanonicalFields(pi=pi, hamiltonian_functional=float(value.real))


def hamilton_equations_residual(
    cfg: HamiltonianConfig, psi_before: Wavefunction, psi_after: Wavefunction
) -> tuple:
    """L2 residuals of both first-order equations of motion between snapshots.

    r1 checks d_t psi = H psi / i hbar at the midpoint state; r2 checks the
    conjugate equation for the canonical momentum, scaled by 1/hbar so both
    residuals share units.  r2 equals r1 to rounding because the second
    equation is the complex conjugate of the first.
    """
    dt, mid, t_mid = _pair_step(psi_before, psi_after)
    grid = psi_before.grid
    hbar = cfg.constants.hbar
    h = hamiltonian_matrix(cfg, grid, t_mid)
    d_psi, h_mid = _hamilton_fields(cfg, h, psi_before.amplitudes, psi_after.amplitudes, mid, dt)
    r1 = float(norms(grid, d_psi - h_mid / (1j * hbar)))

    d_pi = 1j * hbar * np.conj(d_psi)
    r2 = float(norms(grid, (d_pi + np.conj(h_mid)) / hbar))
    return r1, r2


def gauge_transform(psi: Wavefunction, delta_gamma: float, hbar: float = 1.0) -> Wavefunction:
    """Multiply by the constant phase exp(i delta_gamma / hbar).

    Leaves rho, J, the energy, and the action invariant; those invariances
    are checked in the test suite rather than here.
    """
    phase = np.exp(1j * delta_gamma / hbar)
    return Wavefunction(psi.grid, phase * psi.amplitudes, psi.time)
