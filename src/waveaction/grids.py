"""Uniform 1-D grids, complex wavefunctions, and the discrete calculus on them.

All stencils are second-order central differences.  Quadrature is the
trapezoidal rule on Dirichlet grids and the rectangle rule on periodic
grids (the rectangle rule is spectrally accurate for smooth periodic
data, so both match the stencil order or better).  Stencils and
quadrature act along the last axis, so a (B, N) block of states gives,
row by row, the result for each (N,) state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

_BOUNDARIES = (DIRICHLET, PERIODIC)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform spatial lattice on [x_min, x_max].

    For Dirichlet grids the nodes include both endpoints and endpoint
    amplitudes are clamped to zero; for periodic grids the right endpoint
    is excluded (it is identified with the left one).
    """

    x_min: float
    x_max: float
    n_points: int
    boundary: str
    dx: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid bounds must be finite")
        if not self.x_max > self.x_min:
            raise ValueError(f"x_max must exceed x_min, got [{self.x_min}, {self.x_max}]")
        if self.boundary not in _BOUNDARIES:
            raise ValueError(f"boundary must be one of {_BOUNDARIES}, got {self.boundary!r}")
        if self.n_points < 8:
            raise ValueError(f"n_points must be at least 8, got {self.n_points}")
        span = self.x_max - self.x_min
        if self.boundary == DIRICHLET:
            dx = span / (self.n_points - 1)
            x = np.linspace(self.x_min, self.x_max, self.n_points)
            w = np.full(self.n_points, dx)
            w[0] = w[-1] = dx / 2.0  # trapezoid endpoints
        else:
            dx = span / self.n_points
            x = self.x_min + dx * np.arange(self.n_points)
            w = np.full(self.n_points, dx)
        x.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "weights", w)

    @property
    def is_periodic(self) -> bool:
        return self.boundary == PERIODIC


def make_grid(x_min: float, x_max: float, n_points: int, boundary: str = DIRICHLET) -> Grid:
    """Build a uniform grid; rejects empty intervals and n_points < 8."""
    return Grid(float(x_min), float(x_max), int(n_points), boundary)


@dataclass(frozen=True, eq=False)
class Wavefunction:
    """Complex amplitudes on a Grid at one instant.

    Immutable: the amplitude array is stored read-only.  On Dirichlet
    grids the endpoint amplitudes are clamped to exactly zero.
    """

    grid: Grid
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amp.shape != (self.grid.n_points,):
            raise ValueError(
                f"amplitude array has shape {amp.shape}, expected ({self.grid.n_points},)"
            )
        check_finite(amp)
        if not np.isfinite(self.time):
            raise ValueError("time must be finite")
        if self.grid.boundary == DIRICHLET:
            amp[0] = 0.0
            amp[-1] = 0.0
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def check_finite(amp: np.ndarray) -> None:
    """Raise ValueError unless every entry of the complex128 array amp is finite."""
    if not np.all(np.isfinite(amp.view(np.float64))):
        raise ValueError("amplitudes must be finite")


def gaussian_wavepacket(
    grid: Grid,
    center: float = 0.0,
    width: float = 1.0,
    wavenumber: float = 0.0,
) -> Wavefunction:
    """Normalized Gaussian exp(-(x-c)^2/(4 w^2) + i k x) sampled on the grid at time 0."""
    if width <= 0:
        raise ValueError("width must be positive")
    x = grid.x
    amp = np.exp(-((x - center) ** 2) / (4.0 * width**2) + 1j * wavenumber * x)
    return normalize(Wavefunction(grid, amp))


def plane_wave(grid: Grid, mode: int) -> Wavefunction:
    """Normalized grid-commensurate plane wave e^{ikx} with k = 2*pi*mode/L, at time 0.

    Only meaningful on periodic grids (Dirichlet clamping would break it).
    """
    if not grid.is_periodic:
        raise ValueError("plane waves require a periodic grid")
    length = grid.x_max - grid.x_min
    k = 2.0 * np.pi * mode / length
    amp = np.exp(1j * k * grid.x) / np.sqrt(length)
    return Wavefunction(grid, amp)


def commensurate_wavenumber(grid: Grid, mode: int) -> float:
    return 2.0 * np.pi * mode / (grid.x_max - grid.x_min)


def quadrature(grid: Grid, values: np.ndarray):
    """Integrate sampled values (..., N) over the grid with its quadrature rule, along the last axis."""
    return (grid.weights * values).sum(axis=-1)


def inner_product(bra: Wavefunction, ket: Wavefunction) -> complex:
    """<bra|ket> by grid quadrature; conjugate-symmetric up to rounding."""
    _require_same_grid(bra, ket)
    return complex(quadrature(bra.grid, np.conj(bra.amplitudes) * ket.amplitudes))


def norms(grid: Grid, amplitudes: np.ndarray) -> np.ndarray:
    """L2 norm of each row of amplitudes (..., N) by grid quadrature."""
    return np.sqrt(quadrature(grid, np.abs(amplitudes) ** 2).real)


def norm(psi: Wavefunction) -> float:
    return float(norms(psi.grid, psi.amplitudes))


def normalize(psi: Wavefunction) -> Wavefunction:
    """Scale so the quadrature of |psi|^2 is one; rejects zero-norm input."""
    n = norm(psi)
    if n == 0.0:
        raise ValueError("cannot normalize a zero wavefunction")
    return Wavefunction(psi.grid, psi.amplitudes / n, psi.time)


def central_difference(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Antisymmetric stencil (f_{j+1} - f_{j-1}) / (2 dx) along the last axis, with boundary handling."""
    out = np.zeros_like(np.asarray(values, dtype=np.result_type(values, 1.0)))
    if grid.is_periodic:
        out[:] = (np.roll(values, -1, axis=-1) - np.roll(values, 1, axis=-1)) / (2.0 * grid.dx)
    else:
        out[..., 1:-1] = (values[..., 2:] - values[..., :-2]) / (2.0 * grid.dx)
    return out


def second_difference(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Compact stencil (f_{j+1} - 2 f_j + f_{j-1}) / dx^2 along the last axis, with boundary handling."""
    out = np.zeros_like(np.asarray(values, dtype=np.result_type(values, 1.0)))
    if grid.is_periodic:
        out[:] = (np.roll(values, -1, axis=-1) - 2.0 * values + np.roll(values, 1, axis=-1)) / grid.dx**2
    else:
        out[..., 1:-1] = (values[..., 2:] - 2.0 * values[..., 1:-1] + values[..., :-2]) / grid.dx**2
    return out


def first_derivative(psi: Wavefunction) -> Wavefunction:
    """Central-difference spatial derivative; linear in its input."""
    return Wavefunction(psi.grid, central_difference(psi.grid, psi.amplitudes), psi.time)


def laplacian(psi: Wavefunction) -> Wavefunction:
    """Second-order central second derivative; linear in its input."""
    return Wavefunction(psi.grid, second_difference(psi.grid, psi.amplitudes), psi.time)


def _require_same_grid(a: Wavefunction, b: Wavefunction) -> None:
    if a.grid is not b.grid and (
        a.grid.n_points != b.grid.n_points
        or a.grid.boundary != b.grid.boundary
        or a.grid.x_min != b.grid.x_min
        or a.grid.x_max != b.grid.x_max
    ):
        raise ValueError("wavefunctions live on different grids")
