"""Conservation-law and formalism-consistency checks: probability density
and current, the continuity residual, the canonical-momentum route to the
energy, equation-of-motion residuals, and global phase transformations.

All functions are pure: input wavefunctions are never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import Wavefunction, central_difference, quadrature
from .hamiltonian import (
    HamiltonianConfig,
    TridiagonalHamiltonian,
    apply_mechanical_momentum,
    hamiltonian_at,
    hamiltonian_matrix,
    mean_field_diagonal,
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


def probability_fields(cfg: HamiltonianConfig, psi: Wavefunction, t: float = 0.0) -> ProbabilityFields:
    rho = np.abs(psi.amplitudes) ** 2
    velocity = apply_mechanical_momentum(cfg, psi, t).amplitudes / cfg.constants.mass
    current = np.real(np.conj(psi.amplitudes) * velocity)
    return ProbabilityFields(rho=rho, current=current, time=psi.time)


def continuity_residual(
    cfg: HamiltonianConfig, psi_before: Wavefunction, psi_after: Wavefunction
) -> ContinuityReport:
    """Residual of local probability conservation between two snapshots.

    d_t rho is the two-snapshot difference quotient; J is evaluated at
    the arithmetic-mean state (no renormalization), matching the midpoint
    structure of the Cayley stepper so the residual sits at truncation
    order rather than O(dt).
    """
    dt = psi_after.time - psi_before.time
    if dt == 0.0:
        raise ValueError("snapshots have identical times")
    grid = psi_before.grid
    d_rho = (np.abs(psi_after.amplitudes) ** 2 - np.abs(psi_before.amplitudes) ** 2) / dt
    mid = Wavefunction(
        grid,
        0.5 * (psi_before.amplitudes + psi_after.amplitudes),
        psi_before.time + dt / 2.0,
    )
    j = probability_fields(cfg, mid, mid.time).current
    residual = d_rho + central_difference(grid, j)
    sup = float(np.max(np.abs(residual)))
    l2 = float(np.sqrt(quadrature(grid, residual**2).real))
    return ContinuityReport(residual=residual, sup_norm=sup, l2_norm=l2, dt_used=float(dt))


def canonical_fields(cfg: HamiltonianConfig, psi: Wavefunction, t: float = 0.0) -> CanonicalFields:
    """Canonical momentum pi = i hbar psi* and the functional (1/i hbar) int pi H psi.

    The functional is computed through the momentum field and must agree
    with the direct energy quadrature to rounding; for mean-field
    configurations it uses the same half-weight interaction as the energy.
    """
    hbar = cfg.constants.hbar
    pi = 1j * hbar * np.conj(psi.amplitudes)
    h = hamiltonian_matrix(cfg, psi.grid, t).plus_diagonal(mean_field_diagonal(cfg, psi, 0.5))
    h_psi = h.matvec(psi.amplitudes)
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
    return hamilton_equations_residual_of(cfg, hamiltonian_at(cfg, psi_before.grid), psi_before, psi_after)


def hamilton_equations_residual_of(
    cfg: HamiltonianConfig,
    h_at: Callable[[float], TridiagonalHamiltonian],
    psi_before: Wavefunction,
    psi_after: Wavefunction,
) -> tuple:
    """hamilton_equations_residual with h_at, the hamiltonian_at map of cfg, evaluated at the midpoint time."""
    dt = psi_after.time - psi_before.time
    if dt == 0.0:
        raise ValueError("snapshots have identical times")
    grid = psi_before.grid
    hbar = cfg.constants.hbar
    d_psi = (psi_after.amplitudes - psi_before.amplitudes) / dt
    mid = Wavefunction(
        grid,
        0.5 * (psi_before.amplitudes + psi_after.amplitudes),
        psi_before.time + dt / 2.0,
    )
    h_mid = h_at(mid.time).plus_diagonal(mean_field_diagonal(cfg, mid, 1.0)).matvec(mid.amplitudes)

    r1_field = d_psi - h_mid / (1j * hbar)
    r1 = float(np.sqrt(quadrature(grid, np.abs(r1_field) ** 2).real))

    d_pi = 1j * hbar * np.conj(d_psi)
    r2_field = (d_pi + np.conj(h_mid)) / hbar
    r2 = float(np.sqrt(quadrature(grid, np.abs(r2_field) ** 2).real))
    return r1, r2


def gauge_transform(psi: Wavefunction, delta_gamma: float, hbar: float = 1.0) -> Wavefunction:
    """Multiply by the constant phase exp(i delta_gamma / hbar).

    Leaves rho, J, the energy, and the action invariant; those invariances
    are checked in the test suite rather than here.
    """
    phase = np.exp(1j * delta_gamma / hbar)
    return Wavefunction(psi.grid, phase * psi.amplitudes, psi.time)
