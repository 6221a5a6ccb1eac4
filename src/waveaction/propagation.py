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
step.  Where 1 + dtau H / hbar is positive definite, that is every
eigenvalue of H lies above -hbar / dtau, the filter damps every excited
component and, for a linear H, makes the energy sequence monotonically
non-increasing.  Where it is indefinite, the filter favours the level
whose eigenvalue lies nearest -hbar / dtau, not the lowest, and the energy
can rise: with V = x^2/2 - 10 (n = 401 on [-8, 8]) dtau = 0.05 reaches
the ground energy -9.50005, while dtau = 0.5 raises the energy by up to
5.8 and stops at -1.507, reported not converged, since the certificate
below fails.  A mean field rebuilt from each iterate changes H between
steps, and the energy can then rise on a definite filter too: a contact
g = 750 on three particles in a harmonic trap raises it by up to 1.7 at
dtau = 0.5.

Both implicit schemes solve tridiagonal systems 1 + s H with LAPACK, on
the bands of one builder (``_shifted_bands``).  Real-time stepping has one
Cayley stepper, linear or mean-field: a static linear H is factored once
per run and every step reuses the factors; every other run makes one
single-use solve per step.  The factored solver picks its factorization
from its bands and binds one routine for its solves: real bands
(imaginary time on a real H) that are positive definite, on periodic
grids with a positive Sherman-Morrison denominator too, as LDL^T without
pivots (pttrf and pttrs); every other matrix falls back to the pivoted LU
routines (gttrf and gttrs), z for complex bands and d for real ones.  A
matrix solved only once (the midpoint H of a time-dependent run, a
mean-field step, a Newton step, whose Jacobian is indefinite, and a
mean-field iteration on a complex H) takes one gtsv call with the bits of
the LU factors.  Imaginary time on a real H factors every matrix its loop
solves by the factored solver: a linear H once per run, a mean field once
per iteration, whatever the sign of its coupling or the kind of its
interaction, so each iteration's matrix is LDL^T-factored where it is
positive definite.  When only the mean field changes between solves (a
static H), the scaled link bands are formed once per run and left as they
are: each call copies them where LAPACK would overwrite them.  On periodic
grids every solve restores the wrap link by a Sherman-Morrison correction.

A mean-field run steps by Besse's relaxation scheme (SIAM J. Numer. Anal.
42, 934 (2004)): an auxiliary density phi, carried between steps, with
phi_-1/2 = |psi_0|^2 and phi_n+1/2 = 2 |psi_n|^2 - phi_n-1/2, sets the
mean field U(phi_n+1/2) of step n, one Cayley step with H + U(phi_n+1/2).
That is one solve per step, second order in dt, and it conserves the
discrete energy <psi_n|H|psi_n> + (1/2) int phi_n-1/2 U(phi_n+1/2) of a
static H to rounding, since U is linear in the density and symmetric.

Imaginary time on a real H (no vector potential) iterates in float64 from
|psi0|.  Every link of a real H is -hbar^2 / 2 m dx^2 < 0, and the
potential and any mean field read |phi|^2 alone, so E[|phi|] <= E[phi]:
the ground state is non-negative (Perron-Frobenius), and |psi0| overlaps
it for every psi0 != 0.  A complex H (A != 0) iterates in complex128.

On a real H, linear or with a contact interaction, the damped loop hands
off to Newton steps on (H + c phi^2) phi = mu phi with ||phi|| = 1
(c = (N-1) g, or 0 for a linear H) once consecutive energies differ by less
than a threshold: 1e-2 for c >= 0, 1e-4 for c < 0, never below tol.  For
c >= 0 the discrete energy is strictly convex in rho = phi^2 (Lieb,
Seiringer & Yngvason 2000), so in exact arithmetic a stationary state
without a sign change is the ground state, and Newton may take over early.
The sign test on a computed state cannot tell that state from a
self-trapped one whose other well holds 3.5e-49 of its peak: a
repulsive condensate in a deep double well can finish there, 0.27 above
its ground energy.  So a converged run with c >= 0 is certified: by
convexity a stationary phi is the ground state exactly when mu is the
lowest eigenvalue of H + c phi^2 (the aufbau condition, Cances & Le Bris
2000), which holds when H + c phi^2 - mu + delta is positive definite,
one pttrf (delta is the residual plus rounding).  A run that fails it
restarts once from sqrt((phi^2 + chi^2) / 2), chi the lowest eigenvector
of H + c phi^2, and reports converged only if that run is certified.
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
last threshold.  A complex H (a phase freedom, and no sign test) and
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
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

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
    newton_steps counts the accepted Newton steps of every finish on a real
    H; it is 0 for a complex H and a kernel and when every finish was
    rejected at its first step.  iterations counts loop
    iterations and Newton steps, and energy_history holds the start's
    energy and one row for each.  certified says whether mu is the lowest
    eigenvalue of H plus the full-weight mean field, to the residual: it
    is decided for converged runs on a real H, linear or with a contact
    c >= 0, where it is the ground-state condition, and None elsewhere (not
    converged, c < 0, a kernel, a complex H).
    """

    state: Wavefunction
    energy: float
    iterations: int
    converged: bool
    energy_history: np.ndarray
    chemical_potential: float
    residual: float
    newton_steps: int
    certified: bool | None = None


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
    """The bands (dl, d, du) LAPACK factors or solves for 1 + scale * H, their reduction levels, and (u, v_last).

    links are ``_link_bands(h, scale)``, formed here when None and left as
    they are when given.  Dirichlet grids give the interior block (the
    endpoints stay at zero) and no wrap link, u = v_last = None.  Periodic
    grids give every link but the wrap link with both end diagonals
    shifted, A = B + u v^T with u = (gamma, 0, ..., 0, c_lf) and
    v = (1, 0, ..., 0, v_last), so that a Sherman-Morrison correction
    restores the wrap link.  The bands come after ``_odd_even_reduction``
    (a real-time matrix above _REDUCTION_ROWS rows only), with its levels,
    and in arrays LAPACK may overwrite: where links were given and no level
    reduced them, dl and du are copies of theirs.
    """
    n = h.grid.n_points
    # the diagonal first: forming the links first moved the glibc heap of the
    # ground-states workload from about 1.5k to 2.9k minor faults per pass
    d = 1.0 + scale * (h.diag if h.grid.is_periodic else h.diag[1 : n - 1])
    dl, du, c_fl, c_lf = _link_bands(h, scale) if links is None else links
    u = v_last = None
    if h.grid.is_periodic:
        gamma = -d[0] if d[0] != 0 else -1.0  # -d[0] avoids cancellation in B[0, 0]
        d[0] -= gamma
        d[-1] -= c_lf * c_fl / gamma
        u = np.zeros(n, dtype=d.dtype)
        u[0] = gamma
        u[-1] = c_lf
        v_last = c_fl / gamma
    dl, d, du, levels = _odd_even_reduction(dl, d, du, scale)
    if links is not None and not levels:
        dl, du = dl.copy(), du.copy()
    return dl, d, du, levels, u, v_last


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
    """Factors of 1 + scale * H for one assembled tridiagonal H, for repeated solves.

    The matrix factored is the one ``_shifted_bands`` describes, by one of
    two LAPACK factorizations chosen from its bands; definite is True for
    LDL^T.  Real bands (imaginary time on a real H) are factored as LDL^T
    without pivots (pttrf) where that matrix is positive definite: a real H
    is symmetric (its links are -hbar^2 / 2 m dx^2 either way), so the pt
    routines, which read d and one off-diagonal, solve it.  On periodic
    grids ``_shifted_bands`` takes gamma = -A[0, 0] (-1 where A[0, 0] = 0)
    and v = u / gamma.  So B = A + u u^T / |gamma| where A[0, 0] >= 0, and
    B[0, 0] = 2 A[0, 0] < 0 otherwise: either way A is positive definite
    exactly when B is and the Sherman-Morrison denominator 1 + v^T B^-1 u is
    positive, and the LDL^T factors are kept only when both tests pass.
    Complex bands, and real bands that fail either test, take the pivoted LU
    factors of gttrf on bands formed anew (pttrf and the wrap-link solve
    overwrite the first ones), after the odd-even reduction of a real-time
    matrix of more than _REDUCTION_ROWS rows (``_odd_even_reduction``): its
    reduced bands are factored once, and each solve reduces the right-hand
    side and recovers the eliminated unknowns around its gttrs call
    (``_reduced_solve``).

    ``solve`` applies (1 + scale H)^-1 with one pttrs or gttrs call on the
    stored factors, run in place in one copy of the right-hand side.  On
    periodic grids the wrap-link response B^-1 u is solved once, at
    construction, by the same path.  The routine is bound when the bands
    are factored and follows their dtype, d for real bands and z for
    complex ones; a right-hand side is cast to it, and one that cannot be
    cast safely (complex for real bands) raises TypeError.  links, when
    given, are ``_link_bands(h, scale)`` formed once for several solvers;
    they are left as they are.  A Cayley step solves for the midpoint state
    x = (1 + scale H)^-1 psi and returns 2 x - psi (``_through_midpoint``).
    """

    def __init__(self, h: TridiagonalHamiltonian, scale: complex, links=None):
        self.h, self.scale = h, scale
        real = np.result_type(h.diag, h.lower, scale) == np.float64
        self.definite = real and self._factor_ldlt(h, scale, links)
        if not self.definite:
            self._factor_lu(h, scale, links)

    def _factor_ldlt(self, h: TridiagonalHamiltonian, scale: float, links) -> bool:
        """Whether the real 1 + scale H is positive definite; if so, its LDL^T factors are stored."""
        dl, d, _, self._levels, u, v_last = _shifted_bands(h, scale, links)
        pttrf, self._trs = get_lapack_funcs(("pttrf", "pttrs"), (d, dl))
        d, e, info = pttrf(d, dl, overwrite_d=1, overwrite_e=1)
        if info > 0:  # a pivot that is not positive
            return False
        _check_info(pttrf.typecode + "pttrf", info, scale)
        self._factors = d, e
        if u is not None:
            z = self._solve_bands(u)
            if not 1.0 + z[0] + v_last * z[-1] > 0:
                return False
            self._wrap = z, v_last, _wrap_denominator(z, v_last, scale)
        return True

    def _factor_lu(self, h: TridiagonalHamiltonian, scale: complex, links) -> None:
        """Store the LU factors of 1 + scale H, after its odd-even reduction where that applies."""
        dl, d, du, self._levels, u, v_last = _shifted_bands(h, scale, links)
        gttrf, self._trs = get_lapack_funcs(("gttrf", "gttrs"), (dl, d, du))
        dl, d, du, du2, ipiv, info = gttrf(dl, d, du, overwrite_dl=1, overwrite_d=1, overwrite_du=1)
        _check_info(gttrf.typecode + "gttrf", info, scale)
        self._factors = dl, d, du, du2, ipiv
        if u is not None:
            z = self._solve_bands(u)
            self._wrap = z, v_last, _wrap_denominator(z, v_last, scale)

    def _substitute(self, b: np.ndarray) -> np.ndarray:
        """The stored factors' solve of b, in b's own storage; b is contiguous and of the factors' dtype."""
        x, info = self._trs(*self._factors, b, overwrite_b=1)
        routine = "pttrs" if len(self._factors) == 2 else "gttrs"  # the LDL^T factors are (d, e)
        _check_info(self._trs.typecode + routine, info, self.scale)
        return x

    def _solve_bands(self, b: np.ndarray) -> np.ndarray:
        """B^-1 b in b's own storage; b is contiguous and of the factors' dtype."""
        return _reduced_solve(self._levels, b, self._substitute)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with (1 + scale H) x = rhs under the grid's boundary convention; rhs is left as it is."""
        out = rhs.astype(self._factors[1].dtype, casting="safe")
        if self.h.grid.is_periodic:
            return _wrap_corrected(self._solve_bands(out), *self._wrap)
        out[0] = out[-1] = 0.0
        self._solve_bands(out[1:-1])
        return out


def _solve_once(h: TridiagonalHamiltonian, scale: complex, rhs: np.ndarray, links=None) -> np.ndarray:
    """(1 + scale H)^-1 rhs by one LAPACK gtsv call, for a matrix solved only once; rhs is left as it is.

    rhs is one vector (n,) or a block (n, k) of k right-hand sides, which
    the one call factors the matrix for; the result has rhs's shape.  Equal
    bit for bit to ``_CayleySolver(h, scale).solve`` of each column where
    that solver is not definite (its LU branch): both take the same bands
    from ``_shifted_bands`` and run the same reduction of the right-hand
    side (``_reduced_solve``, a real-time matrix above _REDUCTION_ROWS rows
    only), and gtsv runs gttrf's pivoted elimination and gttrs's
    substitutions in one pass, in place in one full-length copy of a single
    rhs.  On periodic grids the wrap-link vector u is one more right-hand
    side.  dgtsv solves when the bands and rhs are all real, zgtsv
    otherwise.  links, when given, are ``_link_bands(h, scale)`` formed once
    for several solves; they are left as they are.
    """
    dl, d, du, levels, u, v_last = _shifted_bands(h, scale, links)
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


def _through_midpoint(x: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """The Cayley step's new state 2 x - amp from its midpoint state x = (1 + s H)^-1 amp, in x's storage."""
    x *= 2.0
    x -= amp
    return x


# Steppers map (amplitudes at t, t) to the amplitudes at t + dt.  Each is
# built once per run, so static factors and phases are built once too.


def _cayley_stepper(cfg: HamiltonianConfig, grid: Grid, dt: float):
    """Cayley steps with H(t + dt/2), plus U(phi_n+1/2) by Besse's relaxation scheme when cfg has an interaction.

    A static linear H is factored once for the run (``_CayleySolver``);
    every other run makes one single-use solve per step (``_solve_once``),
    with the link bands of a static H formed once.  The stepper carries the
    auxiliary density phi from one call to the next, so it steps one run,
    its calls in order.  The first call sets phi_-1/2 = |psi_0|^2; step n
    takes phi_n+1/2 = 2 |psi_n|^2 - phi_n-1/2, which is |psi_0|^2 exactly
    at n = 0.  U is ``mean_field_density_values``, linear in the density,
    so phi may go negative; the diagonal stays real and the step keeps the
    norm.
    """
    scale = 1j * dt / (2.0 * cfg.constants.hbar)
    h_at = hamiltonian_at(cfg, grid)
    if cfg.is_static and cfg.interaction is None:  # one H, so one factorization for the whole run
        solver = _CayleySolver(h_at(0.0), scale)
        return lambda amp, t: _through_midpoint(solver.solve(amp), amp)
    links = _link_bands(h_at(0.0), scale) if cfg.is_static else None
    phi = None

    def advance(amp, t):
        nonlocal phi
        h = h_at(t + dt / 2.0)
        if cfg.interaction is not None:
            rho = np.abs(amp) ** 2
            phi = rho if phi is None else 2.0 * rho - phi
            h = h.plus_diagonal(mean_field_density_values(cfg.interaction, grid, phi))
        return _through_midpoint(_solve_once(h, scale, amp, links), amp)

    return advance


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


def step_crank_nicolson(
    cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float
) -> Wavefunction:
    """One Cayley step of the linear Schrodinger equation; norm-preserving."""
    if cfg.interaction is not None:
        raise ValueError("step_crank_nicolson is the linear stepper; use step_gp")
    return Wavefunction(psi.grid, _cayley_stepper(cfg, psi.grid, dt)(psi.amplitudes, t), psi.time + dt)


def step_split_operator(
    cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float
) -> Wavefunction:
    """Strang-split FFT step; periodic grids with zero vector potential only."""
    return Wavefunction(psi.grid, _split_stepper(cfg, psi.grid, dt)(psi.amplitudes, t), psi.time + dt)


def step_gp(cfg: HamiltonianConfig, psi: Wavefunction, t: float, dt: float) -> Wavefunction:
    """The first step of the relaxation scheme from psi: one Cayley step with H(t + dt/2) plus U(|psi|^2).

    The scheme carries its auxiliary density between steps, which a single
    step cannot: a loop of step_gp restarts it at |psi|^2 on every call,
    which is first order in the nonlinearity.  ``propagate`` runs the
    scheme.  At g = 0 the step equals step_crank_nicolson bit for bit.
    """
    if cfg.interaction is None:
        raise ValueError("step_gp requires a configured interaction")
    return Wavefunction(psi.grid, _cayley_stepper(cfg, psi.grid, dt)(psi.amplitudes, t), psi.time + dt)


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
    stepper = _split_stepper if plan.scheme == SPLIT_OPERATOR else _cayley_stepper
    advance = stepper(cfg, grid, plan.dt)
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


# On a real H the loop hands off to Newton once consecutive energies differ by
# less than this or tol, whichever is larger; after a finish that does not
# converge, at a tenth of the last threshold.  With c >= 0 an exact positive
# stationary state is the ground state, so the hand-off can come early.
_HANDOFF_ENERGY_CHANGE = 1e-2
# An attractive contact (c < 0) has positive stationary states above the
# ground state: handed off at 1e-2, double wells started near their barrier
# finished at the symmetric one, up to 0.7 above the ground energy.
_ATTRACTIVE_HANDOFF_ENERGY_CHANGE = 1e-4
# A Newton step has a sign change when an amplitude of the sign opposite its
# peak's exceeds this fraction of the peak modulus.  An excited state's lobes
# are of the peak's order; finished states show rounding tails (-6e-48 of the
# peak) and partly converged ones tails of up to about -3e-11 of it.
_SIGN_CHANGE_FLOOR = 1e-8
# The certificate shifts mu down by the residual plus this many units of
# rounding of the largest row sum of |H + U|, so that rounding in pttrf and
# in mu cannot fail the ground state itself.
_CERTIFICATE_ROUNDING = 64 * np.finfo(np.float64).eps


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


def _lowest_eigenvalue_is(h: TridiagonalHamiltonian, mu: float, residual: float) -> bool:
    """Whether mu is, to its residual, the lowest eigenvalue of the real tridiagonal h: h - mu + delta is positive definite.

    delta is the residual, which bounds mu - lambda_0 for a state near the
    lowest eigenvector, plus _CERTIFICATE_ROUNDING times the largest row
    sum of |h|, the scale of the factorization's rounding.  The test is one
    pttrf of the shifted matrix (``_CayleySolver`` with scale 1 on h - mu +
    delta - 1), with the Sherman-Morrison denominator test on periodic grids.
    """
    row_sum = np.abs(h.diag).max() + np.abs(h.lower).max() + np.abs(h.upper).max()
    delta = residual + _CERTIFICATE_ROUNDING * row_sum
    return _CayleySolver(h.plus_diagonal(delta - mu - 1.0), 1.0).definite


def _restart_state(h: TridiagonalHamiltonian, amp: np.ndarray) -> np.ndarray:
    """sqrt((amp^2 + chi^2) / 2), normalized: chi is the lowest eigenvector of the real h on its open path.

    The path is the Dirichlet interior, or a periodic grid without its wrap
    link; amp is real and normalized.  The mixture carries the density of
    both the stationary state amp and the lowest mode of its own mean-field
    operator, so a loop restarted from it is no longer trapped where amp is.
    """
    grid = h.grid
    n = grid.n_points
    path = slice(None) if grid.is_periodic else slice(1, n - 1)
    links = h.lower[:-1] if grid.is_periodic else h.lower[1 : n - 2]
    _, vectors = eigh_tridiagonal(h.diag[path], links, select="i", select_range=(0, 0))
    chi = np.zeros(n)
    chi[path] = vectors[:, 0]
    mixed = np.sqrt((amp**2 + chi**2 / norms(grid, chi) ** 2) / 2)
    return mixed / norms(grid, mixed)


def ground_state_imaginary_time(
    cfg: HamiltonianConfig,
    psi0: Wavefunction,
    dtau: float = 0.1,
    tol: float = 1e-10,
    max_iter: int = 10**6,
) -> GroundStateResult:
    """Relax to the ground state by damped imaginary-time iteration, finished by Newton on a real H.

    Each step solves (1 + dtau H / hbar) psi' = psi and renormalizes; for
    mean-field configurations H carries the full-weight mean field rebuilt
    from the current normalized state.  Stops when consecutive energies
    differ by less than tol.  The start state must overlap the ground
    state (not checkable a priori).

    A real H (no vector potential) iterates in float64 from |psi0|, whose
    energy, energy_history's first row, is at most psi0's; the result is
    real.  On this path, for a linear H or a contact interaction, the loop
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
    runs max_iter iterations.  A complex H (A != 0), which iterates in
    complex128, and a kernel interaction keep the loop alone, bit for bit.

    A converged run on a real H with c >= 0 is certified
    (``_lowest_eigenvalue_is``: mu is the lowest eigenvalue of its own
    H + c phi^2, to the residual).  Where it is not, the state is
    stationary but self-trapped, and the run restarts once, with its
    hand-off re-armed at the first threshold, from the mixture of that
    state and the lowest mode of H + c phi^2 (``_restart_state``); the
    restart adds no energy_history row, so the next row may lie above the
    last.  That run is certified again, and converged only if it passes.

    The loop picks no routine itself.  On a real H every matrix it solves
    is one ``_CayleySolver`` (LDL^T where 1 + dtau H / hbar is positive
    definite, LU otherwise): one per run for a linear H, one per iteration
    for a mean field.  On a complex H a linear H is one ``_CayleySolver``
    and each mean-field iteration one gtsv (``_solve_once``), as is every
    Newton step.
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
    real = not any(a.imag.any() for a in (h.diag, h.upper, h.lower))
    amp = psi.amplitudes
    if real:
        h = TridiagonalHamiltonian(grid, h.diag.real.copy(), h.upper.real.copy(), h.lower.real.copy())
        amp = np.abs(amp)
    finish = real and (cfg.interaction is None or cfg.interaction.kind == "contact")
    attractive = cfg.interaction is not None and (cfg.interaction.n_particles - 1) * cfg.interaction.g < 0
    if cfg.interaction is None:
        solve = _CayleySolver(h, scale).solve
    else:
        links = _link_bands(h, scale)

        def solve(amp):
            h_now = h.plus_diagonal(mean_field_density_values(cfg.interaction, grid, np.abs(amp) ** 2))
            if real:
                return _CayleySolver(h_now, scale, links).solve(amp)
            return _solve_once(h_now, scale, amp, links)

    first_handoff = max(tol, _ATTRACTIVE_HANDOFF_ENERGY_CHANGE if attractive else _HANDOFF_ENERGY_CHANGE)
    history = [float(energies_of(cfg, h, amp))]
    iterations = newton_steps = 0
    certified = None
    for restart in (False, True):
        handoff = first_handoff
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
        h_mf = h.plus_diagonal(mean_field_diagonal(cfg, grid, amp, 1.0))
        h_amp = h_mf.matvec(amp)
        mu = float(quadrature(grid, np.conj(amp) * h_amp).real)
        residual = float(norms(grid, h_amp - mu * amp))
        if not (converged and finish and not attractive):
            break
        certified = _lowest_eigenvalue_is(h_mf, mu, residual)
        if certified or restart:
            converged = certified
            break
        amp = _restart_state(h_mf, amp)
    return GroundStateResult(
        state=Wavefunction(grid, amp, psi.time),
        energy=history[-1],
        iterations=iterations,
        converged=converged,
        energy_history=np.array(history),
        chemical_potential=mu,
        residual=residual,
        newton_steps=newton_steps,
        certified=certified,
    )
