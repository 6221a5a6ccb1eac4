"""Independent oracles shared across the test modules.

These deliberately avoid the library's own assembly paths: dense matrix
products, explicit double loops, and direct tridiagonal diagonalization.
"""

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded, solve_triangular

from waveaction import Trajectory, Wavefunction, lagrangian_densities, make_grid, quadrature
from waveaction.hamiltonian import BLOCK_POINTS


def dense_momentum_matrix(grid, a_values, hbar=1.0, charge=1.0):
    """Explicit matrix of -i hbar D - q A (central stencil, boundary rules)."""
    n = grid.n_points
    m = np.zeros((n, n), dtype=complex)
    c = -1j * hbar / (2.0 * grid.dx)
    for j in range(n):
        if grid.is_periodic:
            m[j, (j + 1) % n] += c
            m[j, (j - 1) % n] -= c
        elif 0 < j < n - 1:
            m[j, j + 1] += c
            m[j, j - 1] -= c
        m[j, j] -= charge * a_values[j]
    if not grid.is_periodic:
        m[0, :] = 0.0
        m[-1, :] = 0.0
    return m


def dense_ground_energy(grid, v_values, hbar=1.0, mass=1.0, n_states=1):
    """Lowest eigenvalues of the discrete -hbar^2 lap / 2m + V (A = 0 only)."""
    kin = hbar**2 / (2.0 * mass * grid.dx**2)
    if grid.is_periodic:
        n = grid.n_points
        h = np.zeros((n, n))
        for j in range(n):
            h[j, j] = 2.0 * kin + v_values[j]
            h[j, (j + 1) % n] -= kin
            h[j, (j - 1) % n] -= kin
        return np.sort(np.linalg.eigvalsh(h))[:n_states]
    diag = 2.0 * kin + v_values[1:-1]
    off = -kin * np.ones(grid.n_points - 3)
    vals = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_states - 1))[0]
    return vals


def richardson_order(errors):
    """Observed convergence order from errors on successively halved steps."""
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])


def random_state(grid, seed, smooth=True):
    """Seeded random normalized wavefunction (optionally band-limited)."""
    rng = np.random.default_rng(seed)
    amp = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    if smooth:
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n_points, d=grid.dx)
        amp = np.fft.ifft(np.fft.fft(amp) * np.exp(-0.5 * k**2))
    psi = Wavefunction(grid, amp)
    w = grid.weights
    scale = np.sqrt(np.sum(w * np.abs(psi.amplitudes) ** 2))
    return Wavefunction(grid, psi.amplitudes / scale)


def loop_inner_product(bra, ket):
    """Plain-Python quadrature sum, independent of the vectorized path."""
    total = 0.0 + 0.0j
    w = bra.grid.weights
    for j in range(bra.grid.n_points):
        total += w[j] * np.conj(bra.amplitudes[j]) * ket.amplitudes[j]
    return total


def dense_shifted_matrix(h, scale):
    """Explicit n x n matrix of 1 + scale * H, one link at a time, the periodic wrap link included."""
    n = h.grid.n_points
    m = np.eye(n, dtype=complex)
    for j in range(n):
        m[j, j] += scale * h.diag[j]
    for j in range(len(h.upper)):
        m[j, (j + 1) % n] += scale * h.upper[j]
        m[(j + 1) % n, j] += scale * h.lower[j]
    return m


def _qr_solve(m, rhs):
    """m^-1 rhs by Householder QR, which is backward stable without a growth factor.

    Dense LU with partial pivoting is not, on some periodic 1 + scale H: at
    n = 41, V = -29, dt = 0.125 (condition number 4) np.linalg.solve left a
    relative residual of 4e-11, where the circulant FFT solve and the
    library's step agree to 5e-16.
    """
    q, r = np.linalg.qr(m)
    return solve_triangular(r, q.conj().T @ rhs)


def dense_cayley_step(h, scale, amp):
    """(1 + scale H)^-1 (amp - scale H amp) with the dense matrix of dense_shifted_matrix, solved by QR.

    H amp is summed one link at a time, as that matrix is built.  Dirichlet
    grids hold their endpoints at zero: the step solves the interior block.
    """
    n = h.grid.n_points
    amp = np.array(amp, dtype=complex)
    if not h.grid.is_periodic:
        amp[0] = amp[-1] = 0.0
    h_amp = h.diag * amp
    for j in range(len(h.upper)):
        h_amp[j] += h.upper[j] * amp[(j + 1) % n]
        h_amp[(j + 1) % n] += h.lower[j] * amp[j]
    m, rhs = dense_shifted_matrix(h, scale), amp - scale * h_amp
    if h.grid.is_periodic:
        return _qr_solve(m, rhs)
    out = np.zeros(n, dtype=complex)
    out[1:-1] = _qr_solve(m[1:-1, 1:-1], rhs[1:-1])
    return out


def banded_shift_solve(h, scale, rhs):
    """(1 + scale H) x = rhs on the Dirichlet interior by scipy's solve_banded (LAPACK zgtsv)."""
    n = h.grid.n_points
    m = n - 2
    ab = np.zeros((3, m), dtype=complex)
    ab[0, 1:] = scale * h.upper[1 : n - 2]
    ab[1, :] = 1.0 + scale * h.diag[1 : n - 1]
    ab[2, :-1] = scale * h.lower[1 : n - 2]
    out = np.zeros(n, dtype=complex)
    out[1:-1] = solve_banded((1, 1), ab, rhs[1:-1])
    return out


def loop_action_integrals(cfg, traj):
    """(simple, standard) by a loop over snapshot Wavefunctions with a list of derivatives.

    Builds every time derivative first, centred at interior snapshots and
    one-sided at the ends, then evaluates the densities snapshot by snapshot.
    """
    states = [psi for _, psi in traj.snapshots]
    times = traj.times
    last = len(states) - 1
    derivs = []
    for k in range(len(states)):
        if k == 0:
            d = (states[1].amplitudes - states[0].amplitudes) / (times[1] - times[0])
        elif k == last:
            d = (states[k].amplitudes - states[k - 1].amplitudes) / (times[k] - times[k - 1])
        else:
            d = (states[k + 1].amplitudes - states[k - 1].amplitudes) / (times[k + 1] - times[k - 1])
        derivs.append(d)
    simple = np.empty(len(states), dtype=complex)
    standard = np.empty(len(states))
    for k, (state, d) in enumerate(zip(states, derivs)):
        sample = lagrangian_densities(cfg, state, Wavefunction(traj.grid, d, times[k]))
        simple[k] = quadrature(traj.grid, sample.l_simple)
        standard[k] = quadrature(traj.grid, sample.l_standard).real
    return simple, standard


def random_trajectory(seed, n_snapshots, n_points, boundary, dt):
    """Seeded random amplitudes at uniformly spaced times."""
    rng = np.random.default_rng(seed)
    g = make_grid(-4.0, 4.0, n_points, boundary)
    shape = (n_snapshots, n_points)
    amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = rng.uniform(-1.0, 1.0) + dt * np.arange(n_snapshots)
    return Trajectory(g, times, amps)


@st.composite
def trajectory_shapes(draw):
    """(n_snapshots, n_points) of runs inside one row block of a static analysis pass and across several.

    Small grids give blocks longer than any run; grids of about 1000 or more
    points give blocks of 2 to 9 rows, and the run then ends before, at or
    after a block boundary.
    """
    n_points = draw(st.one_of(st.integers(8, 200), st.integers(900, 3000)))
    block = max(1, BLOCK_POINTS // n_points)
    boundaries = [t for t in (block - 1, block, block + 1, 2 * block, 3 * block - 1) if 3 <= t <= 30]
    n_snapshots = draw(st.one_of(st.integers(3, 30), st.sampled_from(boundaries or [3])))
    return n_snapshots, n_points
