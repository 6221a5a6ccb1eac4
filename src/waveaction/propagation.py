"""Time evolution: Crank-Nicolson stepping, mean-field (nonlinear) stepping,
and imaginary-time relaxation to the ground state.

propagate writes every record_stride-th state once, into its row of one
preallocated (n_records, N) array, and the array becomes the
grids.Trajectory's amplitudes as it is.  Each step costs the solve (or the
FFT pair) and one reduction: the sum s of the squares of the new state's
real and imaginary parts, which is finite exactly when the state is (or
its squares overflow, which the exact scan run then tells apart) and gives
its norm sqrt(dx s), since Dirichlet endpoints are zero and periodic
weights uniform.  The largest |norm - 1| over every step becomes the
Trajectory's norm_drift.  A Wavefunction is built per step only for
observers; at a record step it is a read-only view of the row.

The real-time scheme is the Cayley form

    (1 + i H dt / 2 hbar) psi_new = (1 - i H dt / 2 hbar) psi_old

with H evaluated at the step midpoint t + dt/2; it preserves the norm
exactly for Hermitian H.  A step solves for the midpoint state
x = (1 + s H)^-1 psi_old, s = i dt / 2 hbar, and returns 2 x - psi_old,
which is the same map, since (1 - s H) = 2 - (1 + s H), and needs no
product with H.  x is psi-bar = (psi_old + psi_new) / 2, the state at which
the midpoint action evaluates H.  Imaginary time uses the implicit (backward
Euler) filter (1 + dtau H / hbar)^-1 with renormalization after every
step, which damps every excited component regardless of dtau and, for a
linear H, makes the energy sequence monotonically non-increasing.  A mean
field rebuilt from each iterate changes H between steps, and the energy can
then rise: a contact g = 750 on three particles in a harmonic trap raises it
by up to 1.7 at dtau = 0.5.

Both implicit schemes solve tridiagonal systems 1 + s H with LAPACK.  A
static linear H is factored once per run and every step reuses the
factors; a matrix solved only once (the midpoint H of a time-dependent run,
the predictor and the corrector of a mean-field step, each mean-field
imaginary-time iteration) takes one call that factors and solves, which
gives the same bits.  The routines are chosen once per run.  Imaginary time
on the real path (below) with a linear H or a contact c = (N-1) g >= 0
solves by LDL^T factors without pivots (pttrf and pttrs; a contact's
iterations each factor their own matrix, and ptsv would cost the same) when
one pttrf of 1 + s H succeeds: that matrix is then positive definite, and
the mean field of c >= 0 only adds a non-negative diagonal to it.  Every
other solve, and every Newton step (its Jacobian is indefinite), runs the
pivoted general routines (gttrf and gttrs, or gtsv once), z when the bands
or the right-hand side are complex and d when both are real.  When only the
mean field changes between single-use solves (a static H), the scaled link
bands are formed once per run and left as they are: each call copies them
where LAPACK would overwrite them.  On periodic grids every solve restores
the wrap link by a Sherman-Morrison correction.  Imaginary time iterates in
float64 when H is real (no vector potential) and the start state is a
phase times a real vector, since every iterate then stays real, and puts
the phase back on the result; otherwise it iterates in complex128.

On that real path, for a linear H or a contact interaction, the damped loop
hands off to Newton steps on (H + c phi^2) phi = mu phi with ||phi|| = 1
(c = (N-1) g, or 0 for a linear H) once consecutive energies differ by less
than a threshold: 1e-2 for c >= 0, 1e-4 for c < 0, never below tol.  For
c >= 0 the discrete energy is strictly convex in rho = phi^2 (Lieb,
Seiringer & Yngvason 2000), so in exact arithmetic a stationary state
without a sign change is the ground state, and Newton may take over early.
The sign test on a computed state cannot tell that state from a
self-trapped one whose other well holds 3.5e-49 of its peak: a
repulsive condensate in a deep double well can finish there, 0.27 above
its ground energy (the strict xfail
test_repulsive_condensate_in_a_deep_double_well_finishes_at_its_ground_state).
An attractive contact has positive stationary states above the ground
state, so it hands off only near the minimum.  The Jacobian
H + 3 c phi^2 - mu is tridiagonal, so each step is one single-use solve
with a block of right-hand sides; for c = 0 it is one shifted
inverse-iteration step.  Newton converges quadratically, so
the returned state is the eigenvector to rounding, where the loop alone
leaves an error of order sqrt(tol / gap).  A step is accepted only if it
does not raise the energy and has no sign change above a floor relative to
its peak (a real H with negative links has a positive ground state, so a
sign change means an excited state); the first rejected step ends the
finish, the loop resumes, and the hand-off is re-armed at a tenth of its
last threshold.  Complex paths (a phase freedom, and no sign test) and
kernel interactions (a dense Jacobian) keep the loop alone.

A real-time system (s purely imaginary) of more than 2048 rows is first
halved in numpy by odd-even reduction, level by level while more than 2048
rows are left (one level at n = 4001, three at n = 16001): its odd rows are
eliminated, LAPACK solves the system of the even rows, and the odd
unknowns come back by one vectorized back-substitution per level.  The
factored solver reduces its bands once and each right-hand side per solve;
a single-use solve does both in its one call, by the same expressions, so
the two still give the same bits.  H is Hermitian, so the Hermitian part
of 1 + s H is the identity: every eliminated pivot has modulus at least 1,
and elimination without pivoting is stable.  A system of at most 2048 rows
(Dirichlet n <= 2050, periodic n <= 2048), imaginary time, Newton steps
and every other real scale keep LAPACK alone, and their bits.

The split-operator scheme is a Strang splitting with the kinetic factor
applied by FFT.  Where the grid size n has a prime factor larger than
sqrt(n), scipy's pocketfft computes an n-point FFT by Bluestein's
algorithm, itself a convolution of length at least 2n - 1, or by a slow
generic pass for that factor.  The step is then one zero-padded
convolution of length next_fast_len(2n - 1) with a kernel spectrum built
once per run: two transforms where the n-point route takes four.  Every
other n keeps the n-point transforms.  scipy.fft is imported when a
split-operator stepper is built, so the other schemes never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import get_lapack_funcs

from .grids import Grid, Trajectory, Wavefunction, check_finite, norm, normalize, norms, quadrature
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
    """Time-stepping parameters for one propagation run; the run starts at its initial state's time."""

    dt: float
    n_steps: int
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
class GroundStateResult:
    """Outcome of an imaginary-time relaxation.

    chemical_potential is mu = <phi|H|phi> and residual the eigenvalue
    residual ||H phi - mu phi||, both with the full-weight mean field, as
    evidence of how far the final state is from a stationary one.
    newton_steps counts the accepted Newton steps of every finish on the
    real path; it is 0 on the complex and kernel paths and when every
    finish was rejected at its first step.  iterations counts loop
    iterations and Newton steps, and energy_history holds the start's
    energy and one row for each.
    """

    state: Wavefunction
    energy: float
    iterations: int
    converged: bool
    energy_history: np.ndarray
    chemical_potential: float
    residual: float
    newton_steps: int


def _link_bands(h: TridiagonalHamiltonian, scale: complex) -> tuple:
    """The off-diagonal bands (dl, du) that LAPACK solves for 1 + scale * H, and the wrap links (c_fl, c_lf).

    Dirichlet grids give the interior block's links and no wrap links
    (None); periodic grids give every link but the wrap link, and the wrap
    link's two entries (1 + sH)[0, n-1] and (1 + sH)[n-1, 0].
    """
    n = h.grid.n_points
    if not h.grid.is_periodic:
        return scale * h.lower[1 : n - 2], scale * h.upper[1 : n - 2], None, None
    return scale * h.lower[:-1], scale * h.upper[:-1], scale * h.lower[-1], scale * h.upper[-1]


def _shifted_bands(h: TridiagonalHamiltonian, scale: complex, links=None) -> tuple:
    """The bands (dl, d, du) that LAPACK solves for 1 + scale * H, and the wrap-link terms (u, v_last).

    links are ``_link_bands(h, scale)``, formed here when None; dl and du
    are its arrays themselves.  Dirichlet grids give the interior block (the
    endpoints stay at zero) and no wrap link, u = v_last = None.  Periodic
    grids give every link but the wrap link with both end diagonals
    shifted, A = B + u v^T with u = (gamma, 0, ..., 0, c_lf) and
    v = (1, 0, ..., 0, v_last), so that a Sherman-Morrison correction
    restores the wrap link.
    """
    n = h.grid.n_points
    # the diagonal first: forming the links first moved the glibc heap of the
    # ground-states workload from about 1.5k to 2.9k minor faults per pass
    d = 1.0 + scale * (h.diag if h.grid.is_periodic else h.diag[1 : n - 1])
    dl, du, c_fl, c_lf = _link_bands(h, scale) if links is None else links
    if not h.grid.is_periodic:
        return dl, d, du, None, None
    gamma = -d[0] if d[0] != 0 else -1.0  # -d[0] avoids cancellation in B[0, 0]
    d[0] -= gamma
    d[-1] -= c_lf * c_fl / gamma
    u = np.zeros(n, dtype=d.dtype)
    u[0] = gamma
    u[-1] = c_lf
    return dl, d, du, u, c_fl / gamma


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
    """A^-1 rhs from y = B^-1 rhs by Sherman-Morrison, in y's storage."""
    y -= ((y[0] + v_last * y[-1]) / denominator) * z
    return y


# A real-time solve eliminates the odd rows of its system while it has more
# than this many rows.  One level's numpy passes cost about what LAPACK saves
# on the eliminated rows near 2000 rows, and less above: microseconds per
# solve without and with one level, on one thread, were 41.0 and 38.6
# factored (73.6 and 75.3 single-use) at 1999 rows, and 74.3 and 66.0
# (139.9 and 127.9) at 3999 rows.
_REDUCTION_ROWS = 2048


def _odd_even_reduction(dl: np.ndarray, d: np.ndarray, du: np.ndarray, scale: complex) -> tuple:
    """The bands (dl, d, du) LAPACK solves after odd-even reduction, and the levels ``_reduced_solve`` reads.

    Only a real-time matrix (scale purely imaginary) is reduced, and only
    while it has more than _REDUCTION_ROWS rows; otherwise the bands come
    back as they are, with no level.  A level eliminates rows 1, 3, 5, ...
    (Buzbee, Golub & Nielson 1970) and keeps the Schur complement on rows
    0, 2, 4, ..., a tridiagonal matrix of half the size.  Its coefficients
    are r = -1 / d[odd], the multipliers p = dl[even] r and q = du[odd] r
    of an odd row's two neighbours, and views of the links lower = dl[1::2]
    and upper = du[0::2] from the odd rows into the even ones.  The
    reduction has no pivoting, and needs none: H is Hermitian, so 1 + s H
    has the identity as its Hermitian part, which makes every odd pivot of
    modulus at least 1, and each Schur complement keeps a Hermitian part of
    at least the identity (George, Ikramov & Kucherov 2002).  A periodic
    grid's B keeps it too, since its shifted corners only add 1 and a
    positive real part.  Imaginary time, Newton steps and every other real
    scale keep the pivoted routines on the full bands.
    """
    levels = []
    while scale.real == 0 and scale.imag != 0 and len(d) > _REDUCTION_ROWS:
        n_odd, n_inner = len(d) // 2, (len(d) - 1) // 2
        r = np.divide(-1.0, d[1::2])
        p, q = dl[0::2] * r, du[1::2] * r[:n_inner]
        lower, upper = dl[1::2], du[0::2]
        reduced, scratch = d[0::2].copy(), upper * p  # scratch holds the next du at last
        reduced[:n_odd] += scratch
        reduced[1:] += np.multiply(lower, q, out=scratch[:n_inner])
        dl, d, du = lower * p[:n_inner], reduced, np.multiply(upper[:n_inner], q, out=scratch[:n_inner])
        levels.append((r, p, q, lower, upper))
    return dl, d, du, tuple(levels)


def _reduced_solve(levels: tuple, b: np.ndarray, solve: Callable) -> np.ndarray:
    """B^-1 b in b's storage, through the levels of ``_odd_even_reduction``; solve(c) solves its bands.

    b holds the rows along its last axis, one right-hand side per leading
    index.  Each level works in place on every other row of the level
    above: its odd rows become w = r b[odd], and its even rows, the next
    level's, b[even] + lower w[:-1] + upper w.  solve runs in a contiguous
    copy of the last level's rows and returns their solution x, which is
    written back; each level's odd unknowns are then p x[even] +
    q x[even + 1] - w.  With no level this is solve(b).
    """
    if not levels:
        return solve(b)
    work = np.empty(b.shape[:-1] + (len(levels[0][0]),), dtype=b.dtype)
    systems = [b]
    for r, _, _, lower, upper in levels:
        odd, even = systems[-1][..., 1::2], systems[-1][..., 0::2]
        np.multiply(r, odd, out=odd)
        even[..., 1:] += np.multiply(lower, odd[..., : len(lower)], out=work[..., : len(lower)])
        even[..., : len(upper)] += np.multiply(upper, odd, out=work[..., : len(upper)])
        systems.append(even)
    x = systems.pop()
    x[...] = solve(x.copy())
    for (_, p, q, _, _), system in zip(reversed(levels), reversed(systems)):
        odd, even = system[..., 1::2], system[..., 0::2]
        np.subtract(np.multiply(p, even[..., : len(p)], out=work[..., : len(p)]), odd, out=odd)
        odd[..., : len(q)] += np.multiply(q, even[..., 1:], out=work[..., : len(q)])
    return b


class _CayleySolver:
    """Factors of 1 + scale * H for one assembled tridiagonal H (LAPACK gttrf), for repeated solves.

    ``solve`` applies (1 + scale H)^-1 with one gttrs call on the stored
    factors, run in place in one copy of the right-hand side.  The matrix
    factored is the one ``_shifted_bands`` describes, after the odd-even
    reduction of a real-time matrix of more than _REDUCTION_ROWS rows
    (``_odd_even_reduction``): its reduced bands are factored once, and
    each solve reduces the right-hand side and recovers the eliminated
    unknowns around its gttrs call (``_reduced_solve``).  On periodic grids
    the wrap-link response B^-1 u is solved once, at construction, by the
    same path.  The routines follow the dtypes: real bands are factored by
    dgttrf, and a solve runs dgttrs only when the right-hand side is real
    too; each solver looks up its gttrs once per dtype.  A Cayley step
    solves for the midpoint state x = (1 + scale H)^-1 psi and returns
    2 x - psi (``_through_midpoint``).
    """

    def __init__(self, h: TridiagonalHamiltonian, scale: complex):
        self.h = h
        dl, d, du, u, self._v_last = _shifted_bands(h, scale)
        dl, d, du, self._levels = _odd_even_reduction(dl, d, du, scale)
        (gttrf,) = get_lapack_funcs(("gttrf",), (dl, d, du))
        dl, d, du, du2, ipiv, info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        _check_info(gttrf.typecode + "gttrf", info, scale)
        self._factors = dl, d, du, du2, ipiv
        self._gttrs = {}
        if u is not None:
            self._z = self._lu_solve(u)
            self._denominator = _wrap_denominator(self._z, self._v_last, scale)

    def _gttrs_solve(self, b: np.ndarray) -> np.ndarray:
        """The factored bands' solve of b, in b's own storage; b is contiguous and of the solve's dtype."""
        gttrs = self._gttrs.get(b.dtype)
        if gttrs is None:
            (gttrs,) = get_lapack_funcs(("gttrs",), (self._factors[1], b))
            self._gttrs[b.dtype] = gttrs
        x, info = gttrs(*self._factors, b, overwrite_b=1)
        if info != 0:
            raise ValueError(f"{gttrs.typecode}gttrs rejected argument {-info}")
        return x

    def _lu_solve(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b in b's own storage; b is contiguous and of the solve's dtype."""
        return _reduced_solve(self._levels, b, self._gttrs_solve)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (1 + scale H) x = rhs under the grid's boundary convention; rhs is left as it is."""
        out = rhs.astype(np.result_type(self._factors[1], rhs))
        if self.h.grid.is_periodic:
            return _wrap_corrected(self._lu_solve(out), self._z, self._v_last, self._denominator)
        out[0] = out[-1] = 0.0
        self._lu_solve(out[1:-1])
        return out


def _solve_once(h: TridiagonalHamiltonian, scale: complex, rhs: np.ndarray, links=None) -> np.ndarray:
    """(1 + scale H)^-1 rhs by one LAPACK gtsv call, for a matrix solved only once; rhs is left as it is.

    rhs is one vector (n,) or a block (n, k) of k right-hand sides, which
    the one call factors the matrix for; the result has rhs's shape.  Equal
    bit for bit to ``_CayleySolver(h, scale).solve`` of each column: both
    form the same reduced bands and run the same reduction of the
    right-hand side (``_odd_even_reduction``, a real-time matrix above
    _REDUCTION_ROWS rows only), and gtsv runs gttrf's pivoted elimination
    and gttrs's substitutions in one pass, in place in one full-length copy
    of a single rhs.  On periodic grids the wrap-link vector u is one more
    right-hand side.  dgtsv solves when the bands and rhs are all real,
    zgtsv otherwise.  links, when given, are ``_link_bands(h, scale)``
    formed once for several solves; they are left as they are (gtsv runs on
    copies of them where no level reduced them).
    """
    dl, d, du, u, v_last = _shifted_bands(h, scale, links)
    dl, d, du, levels = _odd_even_reduction(dl, d, du, scale)
    if links is not None and not levels:
        dl, du = dl.copy(), du.copy()
    dtype = np.result_type(d, rhs)
    n, k = len(rhs), rhs.size // len(rhs)
    if u is None:
        out = rhs.astype(dtype, order="F")
        out[0] = out[-1] = 0.0
        b = out[1:-1]  # a view, contiguous for one vector
    else:
        b = np.empty((n, k + 1), dtype=dtype, order="F")
        b[:, :k] = rhs.reshape(n, k)
        b[:, k] = u
    (gtsv,) = get_lapack_funcs(("gtsv",), (dl, d, du, b))

    def gtsv_solve(c):  # c holds its rows along the last axis, as _reduced_solve passes them
        _, _, _, x, info = gtsv(dl, d, du, c.T, overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
        _check_info(gtsv.typecode + "gtsv", info, scale)
        return x.T

    x = _reduced_solve(levels, b.T, gtsv_solve).T
    if u is None:
        b[...] = x  # x is b itself for one vector or a reduced block; gtsv copies an unreduced block
        return out
    z = x[:, k]
    denominator = _wrap_denominator(z, v_last, scale)
    for j in range(k):
        _wrap_corrected(x[:, j], z, v_last, denominator)
    return x[:, 0] if rhs.ndim == 1 else x[:, :k]


class _LDLTSolver:
    """LDL^T factors of a positive definite 1 + scale * H (LAPACK pttrf) for a real H, for repeated solves.

    A real H is symmetric (its links are -hbar^2 / 2 m dx^2 either way), so
    the pt routines, which read d and one off-diagonal, solve it without
    pivots.  The matrix factored is the one ``_shifted_bands`` describes.  On
    periodic grids it takes gamma = -A[0, 0] (-1 where A[0, 0] = 0), and
    v = u / gamma.  So B = A + u u^T / |gamma| where A[0, 0] >= 0, and
    B[0, 0] = 2 A[0, 0] < 0 otherwise: either way A is positive definite
    exactly when B is and the Sherman-Morrison denominator 1 + v^T B^-1 u is
    positive.  ``factor`` returns None when either test fails; B^-1 u is
    solved there, once.
    ``solve`` applies (1 + scale H)^-1 with one pttrs call, run in place in
    one copy of the real right-hand side.
    """

    def __init__(self, pttrs, d: np.ndarray, e: np.ndarray):
        self._pttrs, self._factors, self._wrap = pttrs, (d, e), None

    @classmethod
    def factor(cls, h: TridiagonalHamiltonian, scale: float, links=None):
        """The solver for 1 + scale H, or None where that matrix is not positive definite.

        links, when given, are ``_link_bands(h, scale)`` and are left as they are.
        """
        dl, d, _, u, v_last = _shifted_bands(h, scale, links)
        pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (d, dl))
        d, e, info = pttrf(d, dl, overwrite_d=1, overwrite_e=links is None)
        if info > 0:  # a pivot that is not positive
            return None
        _check_info(pttrf.typecode + "pttrf", info, scale)
        solver = cls(pttrs, d, e)
        if u is not None:
            z = solver._ldlt_solve(u)
            if not 1.0 + z[0] + v_last * z[-1] > 0:
                return None
            solver._wrap = z, v_last, _wrap_denominator(z, v_last, scale)
        return solver

    def _ldlt_solve(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b in b's own storage; b is a contiguous float64 vector."""
        x, info = self._pttrs(*self._factors, b, overwrite_b=1)
        if info != 0:
            raise ValueError(f"{self._pttrs.typecode}pttrs rejected argument {-info}")
        return x

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (1 + scale H) x = rhs under the grid's boundary convention; rhs is real and left as it is."""
        out = rhs.astype(np.float64)
        if self._wrap is not None:
            return _wrap_corrected(self._ldlt_solve(out), *self._wrap)
        out[0] = out[-1] = 0.0
        self._ldlt_solve(out[1:-1])
        return out


def _through_midpoint(x: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """The Cayley step's new state 2 x - amp from its midpoint state x = (1 + s H)^-1 amp, in x's storage."""
    x *= 2.0
    x -= amp
    return x


# Steppers map (amplitudes at t, t) to the amplitudes at t + dt.  Each is
# built once per run, so static factors and phases are built once too.


def _cn_stepper(cfg: HamiltonianConfig, grid: Grid, dt: float):
    scale = 1j * dt / (2.0 * cfg.constants.hbar)
    h_at = hamiltonian_at(cfg, grid)
    if cfg.is_static:  # one H, so one factorization for the whole run
        solver = _CayleySolver(h_at(0.0), scale)
        return lambda amp, t: _through_midpoint(solver.solve(amp), amp)
    return lambda amp, t: _through_midpoint(_solve_once(h_at(t + dt / 2.0), scale, amp), amp)


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
    from scipy import fft as sp_fft  # loaded by split-operator runs alone

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
    """The density-averaged predictor-corrector of step_gp; a static H's link bands are formed once."""
    scale = 1j * dt / (2.0 * cfg.constants.hbar)
    h_at = hamiltonian_at(cfg, grid)
    links = _link_bands(h_at(0.0), scale) if cfg.is_static else None

    def substep(amp, t, rho):
        h = h_at(t + dt / 2.0).plus_diagonal(mean_field_density_values(cfg.interaction, grid, rho))
        return _through_midpoint(_solve_once(h, scale, amp, links), amp)

    def advance(amp, t):
        rho = np.abs(amp) ** 2
        predicted = substep(amp, t, rho)
        return substep(amp, t, 0.5 * (np.abs(predicted) ** 2 + rho))

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
    """Run the configured stepper for plan.n_steps from psi0 at psi0.time, recording at the stride.

    The state after step k is at psi0.time + k * plan.dt.  Each recorded
    state is written once, into its row of one preallocated
    (n_records, N) complex128 array, which becomes the Trajectory's
    amplitudes without a copy.  Every stepped array is made read-only
    before the next step reads it.

    Each step's state is checked and measured by one reduction,
    s = sum(Re^2 + Im^2) by einsum (numpy's own loop, so its bits do not
    depend on the BLAS thread count).  A non-finite s with a non-finite
    amplitude raises RuntimeError naming the step; a finite state whose
    squares overflow is kept, and its drift reads inf.  The norm is
    sqrt(dx s): Dirichlet endpoints are zero and periodic weights uniform.
    The Trajectory's norm_drift is the largest |norm - 1| over steps 1 to
    n_steps, recorded or not (0.0 for no step).

    Observers are called after every step with (step index, time, state)
    and must not mutate the state; an observer exception aborts the run
    with the step context attached.  The state is a read-only Wavefunction,
    built only when there are observers; at a record step it is a view of
    its row.
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
    amp, t = psi0.amplitudes, psi0.time
    records = np.empty((plan.n_records, grid.n_points), dtype=np.complex128)
    times = np.empty(plan.n_records)
    records[0], times[0] = amp, t
    drift = 0.0
    for k in range(1, plan.n_steps + 1):
        amp = advance(amp, t)
        t = psi0.time + k * plan.dt
        if k % plan.record_stride == 0:
            r = k // plan.record_stride
            records[r], times[r] = amp, t
            amp = records[r]
        amp.setflags(write=False)
        parts = amp.view(np.float64)
        squares = float(np.einsum("i,i", parts, parts))
        if not math.isfinite(squares):
            try:
                check_finite(amp)
            except ValueError as exc:
                raise RuntimeError(f"step {k} (t = {t:.6g}) failed: {exc}") from exc
        drift = max(drift, abs(math.sqrt(grid.dx * squares) - 1.0))
        if observers:
            # a read-only row with zero Dirichlet endpoints, which the state rule keeps as it is
            psi = Wavefunction(grid, amp, t)
            for obs in observers:
                try:
                    obs(k, t, psi)
                except Exception as exc:
                    raise ObserverError(f"observer failed at step {k}, t = {t:.6g}") from exc
    records.setflags(write=False)
    return Trajectory(grid, times, records, drift)


# The real path's loop hands off to Newton once consecutive energies differ by
# less than this or tol, whichever is larger; after a finish that does not
# converge, at a tenth of the last threshold.  With c >= 0 an exact positive
# stationary state is the ground state, so the hand-off can come early.
_HANDOFF_ENERGY_CHANGE = 1e-2
# An attractive contact (c < 0) has positive stationary states above the
# ground state: handed off at 1e-2, double wells started near their barrier
# finished at the symmetric one, up to 0.7 above the ground energy.
_ATTRACTIVE_HANDOFF_ENERGY_CHANGE = 1e-4
# A start is a phase times a real vector when, rotated by its peak's phase, no
# imaginary part exceeds this fraction of the peak modulus.
_REAL_START_FLOOR = 16 * np.finfo(np.float64).eps
# A Newton step has a sign change when an amplitude of the sign opposite its
# peak's exceeds this fraction of the peak modulus.  An excited state's lobes
# are of the peak's order; finished states show rounding tails (-6e-48 of the
# peak) and partly converged ones tails of up to about -3e-11 of it.
_SIGN_CHANGE_FLOOR = 1e-8


def _phase_and_real_part(amp: np.ndarray):
    """(e^{i theta}, v) with amp = e^{i theta} v to rounding and v a float64 vector, or None.

    theta is the phase of amp's largest-modulus amplitude; a start with zero
    imaginary parts is taken as it is, with the phase 1.
    """
    if not amp.imag.any():
        return 1.0, amp.real.copy()
    peak = amp[np.argmax(np.abs(amp))]
    phase = peak / abs(peak)
    rotated = amp * np.conj(phase)
    if np.abs(rotated.imag).max() > _REAL_START_FLOOR * abs(peak):
        return None
    return phase, rotated.real.copy()


def _changes_sign(amp: np.ndarray) -> bool:
    """Whether real amp has an amplitude of the sign opposite its peak's above the floor."""
    peak = amp[np.argmax(np.abs(amp))]
    return bool((peak * amp < -_SIGN_CHANGE_FLOOR * peak**2).any())


def _newton_step(cfg: HamiltonianConfig, h: TridiagonalHamiltonian, amp: np.ndarray) -> np.ndarray:
    """One Newton step on F = (H + c phi^2) phi - mu phi with ||phi|| = 1, from the real, normalized amp.

    mu is amp's chemical potential and c phi^2 the full-weight contact mean
    field (c = 0 for a linear H).  One solve with the tridiagonal Jacobian
    J = H + 3 c phi^2 - mu, factored once for the block J [a, b] = [F, phi],
    gives the step phi - a + (<phi, a> / <phi, b>) b, which keeps phi's norm
    to first order; it is normalized.  With c = 0, a = phi and the step is
    one shifted inverse-iteration step, (H - mu)^-1 phi normalized.
    """
    grid = h.grid
    u = mean_field_diagonal(cfg, grid, amp, 1.0)
    h_amp = h.plus_diagonal(u).matvec(amp)
    mu = quadrature(grid, amp * h_amp)
    jacobian = h.plus_diagonal(-mu - 1.0 if u is None else 3.0 * u - mu - 1.0)  # J = 1 + jacobian
    a, b = _solve_once(jacobian, 1.0, np.array((h_amp - mu * amp, amp)).T).T
    step = amp - a + (quadrature(grid, amp * a) / quadrature(grid, amp * b)) * b
    return step / norms(grid, step)


def _newton_finish(
    cfg: HamiltonianConfig, h: TridiagonalHamiltonian, amp: np.ndarray, history: list, tol: float, budget: int
) -> tuple:
    """(state, accepted steps, converged) of at most budget Newton steps from amp, each energy appended to history.

    A step is accepted only if it does not raise the energy and has no sign
    change (a real H with negative links has a positive ground state); the
    first rejected step ends the finish, and the caller's loop resumes from
    the last accepted state.  Converged when a step changes the
    energy by less than tol.  A step that raises it by less than tol after an
    accepted one is at the fixed point to rounding: it replaces that step,
    its row included, which keeps the history non-increasing, since that
    step lowered the energy by at least tol.
    """
    steps = 0
    while steps < budget:
        candidate = _newton_step(cfg, h, amp)
        e = float(energies_of(cfg, h, candidate))
        rise = e - history[-1]
        if _changes_sign(candidate) or not (rise <= 0.0 or (steps > 0 and rise < tol)):  # NaN fails both
            break
        amp = candidate
        if rise <= 0.0:
            history.append(e)
            steps += 1
        else:
            history[-1] = e
        if abs(rise) < tol:
            return amp, steps, True
    return amp, steps, False


def ground_state_imaginary_time(
    cfg: HamiltonianConfig,
    psi0: Wavefunction,
    dtau: float = 0.1,
    tol: float = 1e-10,
    max_iter: int = 10**6,
) -> GroundStateResult:
    """Relax to the ground state by damped imaginary-time iteration, finished by Newton on the real path.

    Each step solves (1 + dtau H / hbar) psi' = psi and renormalizes; for
    mean-field configurations H carries the full-weight mean field rebuilt
    from the current normalized state.  Stops when consecutive energies
    differ by less than tol.  The start state must overlap the ground
    state (not checkable a priori).

    The real path: when H is real and the normalized start is a phase times
    a real vector (the phase of its largest-modulus amplitude), the loop
    iterates on that real vector in float64 and the result carries the phase
    again.  On this path, for a linear H or a contact interaction, the loop
    hands off to Newton steps on (H + c phi^2) phi = mu phi (``_newton_step``),
    which finish at the eigenvector to rounding, once consecutive energies
    differ by less than max(tol, 1e-2), or max(tol, 1e-4) for an attractive
    contact (c = (N-1) g < 0), whose positive stationary states need not be
    the ground state.  A step is accepted only if it does not raise the
    energy and changes no sign above 1e-8 of the peak; the first rejected
    step ends the finish (``_newton_finish``).  Each accepted step adds an
    energy_history row and counts as an iteration (newton_steps counts them
    over every finish), so the finish keeps the history non-increasing and
    iterations at most max_iter.  The finish stops when a step changes the
    energy by less than tol; otherwise the loop resumes from the last
    accepted state, the hand-off is re-armed at max(tol, a tenth of the last
    threshold), and the loop still stops by its own rule, so tol = 0 still
    runs max_iter iterations.  A complex H or start, and a kernel interaction,
    keep the loop alone, bit for bit.

    The loop's solves run the pt routines (``_LDLTSolver``, factored once for
    a linear H and once per iteration for a contact, whose mean field changes
    the diagonal) when the run is on the real path, its contact is not
    attractive and one pttrf shows 1 + dtau H / hbar positive definite;
    otherwise they run the gt routines, as the Newton steps always do.  A
    contact iteration whose matrix fails the pttrf raises LinAlgError.
    """
    if not cfg.is_static:
        raise ValueError("ground-state search requires static potentials")
    if not (dtau > 0 and np.isfinite(dtau)):
        raise ValueError("dtau must be positive and finite")
    if not tol >= 0:
        raise ValueError("tol must be non-negative")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    psi = normalize(psi0)
    grid = psi.grid
    scale = dtau / cfg.constants.hbar
    h = hamiltonian_at(cfg, grid)(0.0)
    amp, phase = psi.amplitudes, 1.0
    real = None if any(a.imag.any() for a in (h.diag, h.upper, h.lower)) else _phase_and_real_part(amp)
    if real is not None:
        h = TridiagonalHamiltonian(grid, h.diag.real.copy(), h.upper.real.copy(), h.lower.real.copy())
        phase, amp = real
    finish = real is not None and (cfg.interaction is None or cfg.interaction.kind == "contact")
    attractive = cfg.interaction is not None and (cfg.interaction.n_particles - 1) * cfg.interaction.g < 0
    # c >= 0 adds a non-negative diagonal to 1 + scale H, so where that matrix
    # is positive definite, every iteration's is
    if cfg.interaction is None:
        ldlt = _LDLTSolver.factor(h, scale) if finish else None
        solve = (_CayleySolver(h, scale) if ldlt is None else ldlt).solve
    else:
        links = _link_bands(h, scale)
        positive = finish and not attractive and _LDLTSolver.factor(h, scale, links) is not None

        def solve(amp):
            h_now = h.plus_diagonal(mean_field_density_values(cfg.interaction, grid, np.abs(amp) ** 2))
            if not positive:
                return _solve_once(h_now, scale, amp, links)
            ldlt = _LDLTSolver.factor(h_now, scale, links)
            if ldlt is None:
                raise np.linalg.LinAlgError(f"1 + s H is not positive definite (s = {scale:.6g})")
            return ldlt.solve(amp)

    handoff = max(tol, _ATTRACTIVE_HANDOFF_ENERGY_CHANGE if attractive else _HANDOFF_ENERGY_CHANGE)
    history = [float(energies_of(cfg, h, amp))]
    iterations = newton_steps = 0
    converged = False
    while not converged and iterations < max_iter:
        iterations += 1
        amp = solve(amp)
        n = norms(grid, amp)  # NaN or inf when an amplitude is
        if not 0.0 < n < np.inf:
            problem = "cannot normalize a zero wavefunction" if n == 0 else "amplitudes must be finite"
            raise RuntimeError(f"imaginary-time iteration {iterations} failed: {problem}")
        amp = amp / n
        history.append(float(energies_of(cfg, h, amp)))
        change = abs(history[-1] - history[-2])
        if finish and change < handoff:
            amp, steps, converged = _newton_finish(cfg, h, amp, history, tol, max_iter - iterations)
            iterations += steps
            newton_steps += steps
            handoff = max(tol, handoff / 10)
        converged = converged or change < tol
    h_amp = h.plus_diagonal(mean_field_diagonal(cfg, grid, amp, 1.0)).matvec(amp)
    mu = float(quadrature(grid, np.conj(amp) * h_amp).real)
    return GroundStateResult(
        state=Wavefunction(grid, amp if phase == 1.0 else phase * amp, psi.time),
        energy=history[-1],
        iterations=iterations,
        converged=converged,
        energy_history=np.array(history),
        chemical_potential=mu,
        residual=float(norms(grid, h_amp - mu * amp)),
        newton_steps=newton_steps,
    )
