"""Minimal-coupling Hamiltonian assembly and energy functionals.

The Hamiltonian is H = P^2/2m + q A0 + V1 (+ mean field), with the
mechanical momentum P = -i hbar d/dx - q A.  The kinetic-plus-coupling
block is discretized in the expanded, symmetric tridiagonal form

    P^2 psi = -hbar^2 lap(psi) + i hbar q [D(A psi) + A D(psi)] + q^2 A^2 psi

(central stencils D and lap), which keeps every operator tridiagonal in
1-D and Hermitian under the grid quadrature.  Operators and functionals
act on amplitude arrays (..., N) row by row, so an analysis pass reads a
trajectory in blocks of rows (row_blocks).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grids import (
    Grid,
    Wavefunction,
    central_difference,
    norm,
    quadrature,
)


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar, particle mass, and charge; defaults are natural units."""

    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0

    def __post_init__(self):
        if not (self.hbar > 0 and np.isfinite(self.hbar)):
            raise ValueError("hbar must be positive and finite")
        if not (self.mass > 0 and np.isfinite(self.mass)):
            raise ValueError("mass must be positive and finite")
        if not np.isfinite(self.charge):
            raise ValueError("charge must be finite")


@dataclass(frozen=True, eq=False)
class PotentialField:
    """Scalar field on the grid: named analytic form, samples, or callable of time.

    Kinds: "free", "harmonic" (0.5 * omega^2 (x-c)^2), "quartic"
    (strength (x-c)^4), "box" (height outside |x-c| <= half_width),
    "sampled" (fixed array), "callable" (f(x, t) -> array).
    """

    kind: str
    params: tuple = ()
    values: Optional[np.ndarray] = None
    func: Optional[Callable[[np.ndarray, float], np.ndarray]] = None

    @classmethod
    def free(cls) -> "PotentialField":
        return cls("free")

    @classmethod
    def harmonic(cls, omega: float = 1.0, center: float = 0.0) -> "PotentialField":
        _check_finite_params(omega, center)
        if not np.isfinite(float(omega) * float(omega)):
            raise ValueError(f"harmonic omega {omega!r} is too large: omega**2 overflows")
        return cls("harmonic", (float(omega), float(center)))

    @classmethod
    def quartic(cls, strength: float = 1.0, center: float = 0.0) -> "PotentialField":
        _check_finite_params(strength, center)
        return cls("quartic", (float(strength), float(center)))

    @classmethod
    def box(cls, height: float, half_width: float, center: float = 0.0) -> "PotentialField":
        _check_finite_params(height, half_width, center)
        if half_width <= 0:
            raise ValueError("box half_width must be positive")
        return cls("box", (float(height), float(half_width), float(center)))

    @classmethod
    def from_samples(cls, values) -> "PotentialField":
        arr = np.asarray(values, dtype=float).copy()
        if arr.ndim != 1:
            raise ValueError("sampled potential must be a 1-D array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("sampled potential must be finite")
        arr.setflags(write=False)
        return cls("sampled", values=arr)

    @classmethod
    def from_callable(cls, func: Callable[[np.ndarray, float], np.ndarray]) -> "PotentialField":
        return cls("callable", func=func)

    @property
    def is_static(self) -> bool:
        return self.kind != "callable"

    def evaluate(self, grid: Grid, t: float = 0.0) -> np.ndarray:
        x = grid.x
        if self.kind == "free":
            return np.zeros(grid.n_points)
        if self.kind == "harmonic":
            omega, center = self.params
            return 0.5 * omega**2 * (x - center) ** 2
        if self.kind == "quartic":
            strength, center = self.params
            return strength * (x - center) ** 4
        if self.kind == "box":
            height, half_width, center = self.params
            return np.where(np.abs(x - center) > half_width, height, 0.0)
        if self.kind == "sampled":
            if len(self.values) != grid.n_points:
                raise ValueError(
                    f"sampled potential has {len(self.values)} points, grid has {grid.n_points}"
                )
            return self.values
        if self.kind == "callable":
            out = np.asarray(self.func(x, t))
            if np.iscomplexobj(out):
                raise ValueError("callable potential returned complex values")
            out = out.astype(float, copy=False)
            if out.shape != x.shape:
                raise ValueError("callable potential returned wrong shape")
            if not np.all(np.isfinite(out)):
                raise ValueError("callable potential returned non-finite values")
            return out
        raise ValueError(f"unknown potential kind {self.kind!r}")


@dataclass(frozen=True, eq=False)
class TwoBodyInteraction:
    """Pair interaction: contact strength g or a symmetric kernel matrix."""

    kind: str
    n_particles: int
    g: float = 0.0
    kernel: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be at least 1")
        if self.kind == "contact":
            if not np.isfinite(self.g):
                raise ValueError("contact strength must be finite")
        elif self.kind == "kernel":
            k = self.kernel
            if k is None or k.ndim != 2 or k.shape[0] != k.shape[1]:
                raise ValueError("kernel must be a square matrix")
            if not np.all(np.isfinite(k)):
                raise ValueError("two-body kernel must be finite")
            if not np.array_equal(k, k.T):
                raise ValueError("two-body kernel must be symmetric")
        else:
            raise ValueError(f"unknown interaction kind {self.kind!r}")

    @classmethod
    def contact(cls, g: float, n_particles: int) -> "TwoBodyInteraction":
        return cls("contact", int(n_particles), g=float(g))

    @classmethod
    def from_kernel(cls, kernel, n_particles: int) -> "TwoBodyInteraction":
        arr = np.asarray(kernel, dtype=float).copy()
        arr.setflags(write=False)
        return cls("kernel", int(n_particles), kernel=arr)


@dataclass(frozen=True, eq=False)
class HamiltonianConfig:
    """One-body potential, electromagnetic potentials, and optional interaction."""

    constants: PhysicalConstants = PhysicalConstants()
    v1: PotentialField = PotentialField.free()
    a0: PotentialField = PotentialField.free()
    a_vec: PotentialField = PotentialField.free()
    interaction: Optional[TwoBodyInteraction] = None

    @property
    def is_static(self) -> bool:
        return self.v1.is_static and self.a0.is_static and self.a_vec.is_static


def _check_finite_params(*vals: float) -> None:
    if not all(np.isfinite(v) for v in vals):
        raise ValueError("potential parameters must be finite")


def mean_field_density_values(
    interaction: TwoBodyInteraction, grid: Grid, density: np.ndarray
) -> np.ndarray:
    """(N-1)-weighted mean-field potential from each row of a density array (..., N)."""
    n_minus_1 = interaction.n_particles - 1
    if interaction.kind == "contact":
        return n_minus_1 * interaction.g * density
    if interaction.kernel.shape[0] != grid.n_points:
        raise ValueError(
            f"kernel is {interaction.kernel.shape[0]}x{interaction.kernel.shape[0]}, "
            f"grid has {grid.n_points} points"
        )
    weighted = grid.weights * density
    out = np.empty_like(weighted)
    # per row, as for one state: a stacked product may round differently
    for row in np.ndindex(*weighted.shape[:-1]):
        out[row] = interaction.kernel @ weighted[row]
    return n_minus_1 * out


def mean_field_potential(interaction: TwoBodyInteraction, phi: Wavefunction) -> PotentialField:
    """Average potential on one particle due to the other N-1, from orbital phi.

    Contact kind gives (N-1) g |phi|^2; kernel kind the quadrature
    (N-1) sum_x' V2(x, x') |phi(x')|^2.  Real-valued by construction.
    """
    n = norm(phi)
    if abs(n - 1.0) > 1e-6:
        warnings.warn(
            f"mean-field source norm is {n:.6g}, expected 1 (proceeding anyway)",
            RuntimeWarning,
            stacklevel=2,
        )
    density = np.abs(phi.amplitudes) ** 2
    return PotentialField.from_samples(mean_field_density_values(interaction, phi.grid, density))


class TridiagonalHamiltonian:
    """Matrix view of H on the grid: the diagonal and one entry each way per link.

    Link j joins node j to node j+1: upper[j] = H[j, j+1], lower[j] = H[j+1, j].
    A Dirichlet grid has n-1 links; a periodic grid has n, the last (the
    wrap link) joining node n-1 to node 0.  The operator acts on the
    interior for Dirichlet grids (endpoints clamped).
    """

    def __init__(self, grid: Grid, diag, upper, lower):
        self.grid = grid
        self.diag = diag
        self.upper = upper
        self.lower = lower

    def matvec(self, amp: np.ndarray) -> np.ndarray:
        """H applied to each row of amp (..., N); diag may hold one row per row of amp."""
        n = self.grid.n_points
        out = self.diag * amp
        out[..., :-1] += self.upper[: n - 1] * amp[..., 1:]
        out[..., 1:] += self.lower[: n - 1] * amp[..., :-1]
        if self.grid.is_periodic:
            # a product of numpy complex scalars can round differently from the
            # array loop's, so every row takes its wrap-link terms as scalars
            for row in np.ndindex(*amp.shape[:-1]):
                out[row + (0,)] += self.lower[-1] * amp[row + (-1,)]
                out[row + (-1,)] += self.upper[-1] * amp[row + (0,)]
        else:
            out[..., 0] = 0.0
            out[..., -1] = 0.0
        return out

    def plus_diagonal(self, extra: Optional[np.ndarray]) -> "TridiagonalHamiltonian":
        """This H with a real potential added to the diagonal; this H itself for None."""
        if extra is None:
            return self
        return TridiagonalHamiltonian(self.grid, self.diag + extra, self.upper, self.lower)

    def expectations(self, amp: np.ndarray) -> np.ndarray:
        """<psi|H|psi> of each row of amp (..., N) by grid quadrature; every imaginary part must vanish."""
        return real_energies(quadrature(self.grid, np.conj(amp) * self.matvec(amp)))


def real_energies(values: np.ndarray) -> np.ndarray:
    """The real parts of <psi|H|psi> values, or RuntimeError where an imaginary part exceeds 1e-8.

    A Hermitian H gives real expectation values, so such a part means the
    assembly is not Hermitian.  TridiagonalHamiltonian.expectations and the
    action pass of variational both apply this one rule.
    """
    if (np.abs(values.imag) > 1e-8).any():
        imag = np.ravel(values.imag)
        raise RuntimeError(
            f"energy has imaginary part {imag[np.abs(imag) > 1e-8][0]:.3e}; Hamiltonian assembly is not Hermitian"
        )
    return values.real


def hamiltonian_matrix(cfg: HamiltonianConfig, grid: Grid, t: float = 0.0) -> TridiagonalHamiltonian:
    """Assemble the tridiagonal matrix of H at time t; a mean field is added with plus_diagonal."""
    c = cfg.constants
    dx = grid.dx
    kin = c.hbar**2 / (2.0 * c.mass * dx**2)
    v = cfg.v1.evaluate(grid, t) + c.charge * cfg.a0.evaluate(grid, t)
    a = cfg.a_vec.evaluate(grid, t)

    diag = (2.0 * kin + c.charge**2 * a**2 / (2.0 * c.mass) + v).astype(complex)

    coup = 1j * c.hbar * c.charge / (4.0 * c.mass * dx)
    a_link = a + np.roll(a, -1) if grid.is_periodic else a[:-1] + a[1:]
    return TridiagonalHamiltonian(grid, diag, -kin + coup * a_link, -kin - coup * a_link)


def hamiltonian_at(cfg: HamiltonianConfig, grid: Grid) -> Callable[[float], TridiagonalHamiltonian]:
    """t -> H(t) without mean field; assembled once when the potentials are static."""
    if cfg.is_static:
        h = hamiltonian_matrix(cfg, grid)
        return lambda t: h
    return lambda t: hamiltonian_matrix(cfg, grid, t)


# Grid points per row block of an analysis pass: a complex (B, N) temporary
# then stays near 128 KB, below glibc's mmap threshold, so it is not
# page-faulted afresh on every allocation.
BLOCK_POINTS = 8192


def row_blocks(cfg: HamiltonianConfig, n_points: int, n_rows: int) -> list:
    """(lo, hi) bounds of the row blocks in which an analysis pass reads n_rows states.

    A block holds max(1, BLOCK_POINTS // n_points) rows.  When the
    potentials depend on time, H differs per row and a block is one row.
    """
    size = max(1, BLOCK_POINTS // n_points) if cfg.is_static else 1
    return [(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]


def mean_field_diagonal(
    cfg: HamiltonianConfig, grid: Grid, source: np.ndarray, weight: float
) -> Optional[np.ndarray]:
    """weight times the mean field built from each row of the source amplitudes; None without an interaction.

    Weight 1/2 gives the variational (energy, Lagrangian) diagonal, weight 1
    the one that drives the dynamics and the chemical potential.
    """
    if cfg.interaction is None:
        return None
    density = np.abs(source) ** 2
    return weight * mean_field_density_values(cfg.interaction, grid, density)


def mechanical_momentum(cfg: HamiltonianConfig, grid: Grid, amp: np.ndarray, t: float = 0.0) -> np.ndarray:
    """P applied to each row of amp (..., N); Dirichlet endpoints are zero.

    Where A(t) is zero on the whole grid the q A psi term is an exact zero and is not formed.
    """
    c = cfg.constants
    a = cfg.a_vec.evaluate(grid, t)
    if a.any():
        out = -1j * c.hbar * central_difference(grid, amp) - c.charge * a * amp
    else:
        out = central_difference(grid, amp)
        np.multiply(-1j * c.hbar, out, out=out)
    if not grid.is_periodic:
        out[..., 0] = 0.0
        out[..., -1] = 0.0
    return out


def apply_mechanical_momentum(cfg: HamiltonianConfig, psi: Wavefunction) -> Wavefunction:
    """P psi = (-i hbar d/dx - q A(x, t)) psi with the central stencil, A at psi.time."""
    return Wavefunction(psi.grid, mechanical_momentum(cfg, psi.grid, psi.amplitudes, psi.time), psi.time)


def apply_hamiltonian(cfg: HamiltonianConfig, psi: Wavefunction) -> Wavefunction:
    """H psi at psi.time, with the full-weight mean field of psi itself when an interaction is configured.

    Reduces exactly to the linear Schrodinger Hamiltonian when the
    interaction is absent or N = 1.
    """
    amp = psi.amplitudes
    h = hamiltonian_matrix(cfg, psi.grid, psi.time).plus_diagonal(mean_field_diagonal(cfg, psi.grid, amp, 1.0))
    return Wavefunction(psi.grid, h.matvec(amp), psi.time)


def energies_of(cfg: HamiltonianConfig, h: TridiagonalHamiltonian, amp: np.ndarray) -> np.ndarray:
    """energy of each row of amp (..., N) on h, the H of cfg assembled at their time without mean field."""
    return h.plus_diagonal(mean_field_diagonal(cfg, h.grid, amp, 0.5)).expectations(amp)


def energy(cfg: HamiltonianConfig, psi: Wavefunction) -> float:
    """Energy functional <psi|H|psi> per particle, with H at psi.time.

    For mean-field configurations the interaction enters with weight 1/2,
    the weighting under which the energy is conserved by the mean-field
    dynamics.  Expects a normalized state.
    """
    return float(energies_of(cfg, hamiltonian_matrix(cfg, psi.grid, psi.time), psi.amplitudes))


def chemical_potential(cfg: HamiltonianConfig, phi: Wavefunction) -> float:
    """<phi|H|phi> at phi.time with the full-weight mean field (the nonlinear eigenvalue)."""
    amp = phi.amplitudes
    h = hamiltonian_matrix(cfg, phi.grid, phi.time).plus_diagonal(mean_field_diagonal(cfg, phi.grid, amp, 1.0))
    return float(h.expectations(amp))
