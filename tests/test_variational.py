"""Lagrangian densities, action integrals, stationarity, Rayleigh-Ritz."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveaction import (
    HamiltonianConfig,
    PhysicalConstants,
    PotentialField,
    PropagationPlan,
    Trajectory,
    TwoBodyInteraction,
    Wavefunction,
    action,
    action_integrals,
    apply_hamiltonian,
    box_sine_family,
    gaussian_family,
    gaussian_phase_family,
    gaussian_wavepacket,
    lagrangian_densities,
    make_grid,
    normalize,
    propagate,
    quadrature,
    rayleigh_ritz_minimize,
)
from waveaction.grids import central_difference
from waveaction.hamiltonian import (
    TridiagonalHamiltonian,
    apply_mechanical_momentum,
    energies_of,
    hamiltonian_matrix,
    mean_field_density_values,
    mean_field_diagonal,
)
from waveaction.variational import FAMILIES, TrialFamily, _forward_kinetic_density, energy_and_gradient

from helpers import dense_ground_energy, loop_action_integrals, random_state, random_trajectory, trajectory_shapes

HARMONIC = HamiltonianConfig(v1=PotentialField.harmonic())
FREE = HamiltonianConfig()


def discrete_ground_state(g):
    from waveaction import ground_state_imaginary_time

    start = gaussian_wavepacket(g, width=2**-0.5)
    result = ground_state_imaginary_time(HARMONIC, start, dtau=0.1, tol=1e-13)
    assert result.converged
    return result


def solution_trajectory(g, dt=1e-3, n_steps=1000):
    gs = discrete_ground_state(g)
    return gs, propagate(HARMONIC, gs.state, PropagationPlan(dt=dt, n_steps=n_steps))


def test_densities_vanish_on_stationary_state():
    g = make_grid(-10, 10, 2001)  # dx = 0.01
    psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
    rate = Wavefunction(g, (-1j * 0.5) * psi.amplitudes)  # dpsi/dt = -iE psi
    sample = lagrangian_densities(HARMONIC, psi, rate)
    assert np.max(np.abs(sample.l_simple)) < 1e-4


def test_density_definition_at_zero_rate():
    g = make_grid(-6, 6, 301)
    psi = gaussian_wavepacket(g, width=0.9)
    zero = Wavefunction(g, np.zeros(g.n_points))
    sample = lagrangian_densities(FREE, psi, zero)
    expected = -np.conj(psi.amplitudes) * apply_hamiltonian(FREE, psi).amplitudes
    np.testing.assert_allclose(sample.l_simple, expected, atol=1e-14)


def test_lagrangian_densities_reject_a_rate_on_another_grid_of_the_same_size():
    psi = gaussian_wavepacket(make_grid(-5, 5, 101))
    rate = gaussian_wavepacket(make_grid(0, 1, 101, "periodic"))
    with pytest.raises(ValueError, match="different grids"):
        lagrangian_densities(HARMONIC, psi, rate)


def test_standard_density_is_real_array():
    g = make_grid(-6, 6, 129)
    sample = lagrangian_densities(
        HARMONIC,
        random_state(g, seed=1),
        random_state(g, seed=2),
    )
    assert sample.l_standard.dtype.kind == "f"


def general_kinetic_density(cfg, grid, amp, t):
    # the general expression of the link kinetic density, which forms the A term whatever A is;
    # the reference whose bits the zero-A shortcut must give
    c = cfg.constants
    a = cfg.a_vec.evaluate(grid, t)
    nxt = np.roll(amp, -1, axis=-1)
    d_plus = (nxt - amp) / grid.dx
    a_link = 0.5 * (a + np.concatenate((a[1:], a[:1])))
    p_plus = -1j * c.hbar * d_plus - c.charge * a_link * (0.5 * (amp + nxt))
    return np.abs(p_plus) ** 2 / (2.0 * c.mass)


@pytest.mark.parametrize("field", ["sampled", "free", "zero-samples"])
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_standard_density_matches_per_link_oracle(boundary, field):
    # L1_j = -hbar Im(psi_j* rate_j) - |P psi|^2_j / 2m - (V_j + q A0_j) |psi_j|^2, where link j
    # joins nodes j and j+1 (wrapping round on a periodic grid; a Dirichlet grid has no last link)
    hbar, mass, charge = 0.7, 1.3, -0.9
    g = make_grid(-4, 5, 97, boundary)
    rng = np.random.default_rng(11)
    a_vals, a0_vals = rng.standard_normal(g.n_points), rng.standard_normal(g.n_points)
    a_vec = PotentialField.from_samples(a_vals)
    if field != "sampled":  # a zero vector potential, given as the free field or as zero samples
        a_vals = np.zeros(g.n_points)
        a_vec = PotentialField.free() if field == "free" else PotentialField.from_samples(a_vals)
    cfg = HamiltonianConfig(
        constants=PhysicalConstants(hbar=hbar, mass=mass, charge=charge),
        v1=PotentialField.harmonic(),
        a0=PotentialField.from_samples(a0_vals),
        a_vec=a_vec,
    )
    psi, rate = random_state(g, seed=3, smooth=False), random_state(g, seed=4, smooth=False)
    sample = lagrangian_densities(cfg, psi, rate)

    amp, damp, n = psi.amplitudes, rate.amplitudes, g.n_points
    v = 0.5 * g.x**2
    expected = []
    for j in range(n):
        if boundary == "dirichlet" and j == n - 1:
            kinetic = 0.0
        else:
            k = (j + 1) % n
            a_link, amp_link = 0.5 * (a_vals[j] + a_vals[k]), 0.5 * (amp[j] + amp[k])
            kinetic = abs(-1j * hbar * (amp[k] - amp[j]) / g.dx - charge * a_link * amp_link) ** 2 / (2.0 * mass)
        time_part = -hbar * (np.conj(amp[j]) * damp[j]).imag
        expected.append(time_part - kinetic - (v[j] + charge * a0_vals[j]) * abs(amp[j]) ** 2)
    expected = np.array(expected)
    assert np.max(np.abs(sample.l_standard - expected)) <= 1e-13 * np.max(np.abs(expected))
    if boundary == "dirichlet":
        assert sample.l_standard[-1] == 0.0

    # bit for bit the general expression, for a zero A too, for a state and for a block of rows
    block = np.stack([amp, rate.amplitudes, np.conj(amp)])
    for rows in (amp, block):
        np.testing.assert_array_equal(
            _forward_kinetic_density(cfg, g, rows, 0.0), general_kinetic_density(cfg, g, rows, 0.0)
        )
    time_part = -hbar * np.imag(np.conj(amp) * damp)
    scalar = v + charge * a0_vals
    reference = time_part - general_kinetic_density(cfg, g, amp, 0.0) - scalar * np.abs(amp) ** 2
    np.testing.assert_array_equal(sample.l_standard, reference)


def test_integrated_density_difference_matches_flux_oracle():
    # random pair on a periodic grid: int(L - L1) dx must equal the
    # independently quadratured total-derivative terms to rounding
    g = make_grid(0, 5, 64, "periodic")
    psi = random_state(g, seed=31, smooth=False)
    rate = random_state(g, seed=32, smooth=False)
    sample = lagrangian_densities(FREE, psi, rate)
    lhs = quadrature(g, sample.l_simple - sample.l_standard)
    # oracle: i hbar/2 d_t(psi* psi) integrates to i hbar Re<psi|rate>;
    # the flux divergence telescopes to zero on a periodic grid
    time_term = 1j * quadrature(g, np.real(np.conj(psi.amplitudes) * rate.amplitudes))
    flux = np.conj(psi.amplitudes) * apply_mechanical_momentum(FREE, psi).amplitudes
    flux_term = (1j / 2.0) * quadrature(g, central_difference(g, flux))
    assert abs(flux_term) < 1e-12
    assert lhs == pytest.approx(time_term + flux_term, abs=1e-10)


def test_action_requires_three_uniform_snapshots():
    g = make_grid(-5, 5, 64)
    amp = gaussian_wavepacket(g).amplitudes
    with pytest.raises(ValueError, match="3 snapshots"):
        action(HARMONIC, Trajectory(g, [0.0, 0.1], [amp, amp]), "simple")
    with pytest.raises(ValueError, match="uniform"):
        action(HARMONIC, Trajectory(g, [0.0, 0.1, 0.35], [amp, amp, amp]), "simple")
    with pytest.raises(ValueError, match="simple"):
        action(HARMONIC, Trajectory(g, [0.0, 0.1, 0.2], [amp, amp, amp]), "sil")


def test_action_vanishes_on_stationary_trajectory():
    g = make_grid(-10, 10, 2001)
    _, traj = solution_trajectory(g)
    assert abs(action(HARMONIC, traj, "simple")) < 1e-6


def test_action_equivalence_of_densities():
    g = make_grid(-10, 10, 2001)
    _, traj = solution_trajectory(g)
    s_simple = action(HARMONIC, traj, "simple")
    s_standard = action(HARMONIC, traj, "standard")
    assert abs(s_simple - s_standard) < 1e-8


def test_action_equivalence_for_moving_packet():
    # also holds far off the ground state, as long as the state stays localized
    g = make_grid(-12, 12, 1201)
    psi = gaussian_wavepacket(g, center=2.0, width=0.9)
    traj = propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=600))
    s_simple = action(HARMONIC, traj, "simple")
    s_standard = action(HARMONIC, traj, "standard")
    assert abs(s_simple - s_standard) < 1e-8


def test_reality_of_density_along_solution():
    g = make_grid(-10, 10, 2001)
    _, traj = solution_trajectory(g)
    deviations = action_integrals(HARMONIC, traj).reality_deviations()
    assert np.max(deviations) < 1e-6


def test_time_reversal_conjugates_the_action():
    g = make_grid(-10, 10, 2001)
    gs = discrete_ground_state(g)
    dt = 2e-4
    traj = propagate(HARMONIC, gs.state, PropagationPlan(dt=dt, n_steps=2500))

    def complex_action(t):
        integrals = action_integrals(HARMONIC, t)
        return np.trapezoid(integrals.simple, integrals.trajectory.times)

    s = complex_action(traj)
    reversed_traj = Trajectory(g, traj.times, np.conj(traj.amplitudes[::-1]))
    s_rev = complex_action(reversed_traj)
    # exact discrete identity: reversal + conjugation conjugates the action
    assert abs(s_rev - np.conj(s)) < 1e-12
    # for a near-stationary window both are ~0, so the reversal negates it too
    assert abs(action(HARMONIC, reversed_traj) + action(HARMONIC, traj)) < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=trajectory_shapes(),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dt=st.floats(1e-4, 0.1),
    contact=st.one_of(st.none(), st.floats(0.0, 100.0)),
)
def test_action_integrals_equal_the_snapshot_loop(seed, shape, boundary, dt, contact):
    # the pass over row blocks, each with a halo row on either side, must
    # reproduce the per-snapshot loop bit for bit
    n_snapshots, n_points = shape
    interaction = None if contact is None else TwoBodyInteraction.contact(contact, 3)
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=interaction)
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, dt)
    integrals = action_integrals(cfg, traj)
    simple, standard = loop_action_integrals(cfg, traj)
    np.testing.assert_array_equal(integrals.simple, simple)
    np.testing.assert_array_equal(integrals.standard, standard)
    assert integrals.trajectory is traj


def _driven(x, t):
    return 0.5 * x**2 + 0.4 * x * np.sin(3.0 * t)


def _drift(x, t):
    return 0.3 * np.cos(x + 2.0 * t)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=trajectory_shapes(),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dt=st.floats(1e-4, 0.1),
    contact=st.one_of(st.none(), st.floats(0.0, 100.0)),
)
def test_driven_action_integrals_equal_the_snapshot_loop(seed, shape, boundary, dt, contact):
    # a time-dependent H is reassembled at every row: a pass that held one H
    # for the whole trajectory would differ from the public per-row densities
    n_snapshots, n_points = shape
    interaction = None if contact is None else TwoBodyInteraction.contact(contact, 3)
    cfg = HamiltonianConfig(
        v1=PotentialField.from_callable(_driven), a_vec=PotentialField.from_callable(_drift), interaction=interaction
    )
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, dt)
    integrals = action_integrals(cfg, traj)
    simple, standard = loop_action_integrals(cfg, traj)
    np.testing.assert_array_equal(integrals.simple, simple)
    np.testing.assert_array_equal(integrals.standard, standard)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_snapshots=st.integers(3, 12),
    n_points=st.integers(8, 200),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dt=st.floats(1e-3, 0.1),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_global_phase_leaves_the_action_invariant(seed, n_snapshots, n_points, boundary, dt, phase):
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, dt)
    rotated = Trajectory(traj.grid, traj.times, np.exp(1j * phase) * traj.amplitudes)
    for which in ("simple", "standard"):
        s = action(HARMONIC, traj, which)
        s_rot = action(HARMONIC, rotated, which)
        assert abs(s_rot - s) <= 1e-12 * max(1.0, abs(s))


@pytest.mark.parametrize("which", ["simple", "standard"])
def test_running_action_ends_at_the_action(which):
    g = make_grid(-10, 10, 1001)
    psi = gaussian_wavepacket(g, center=1.5, width=0.8, wavenumber=0.5)
    traj = propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=200, record_stride=2))
    integrals = action_integrals(HARMONIC, traj)
    running = integrals.running(which)
    assert running.shape == (len(traj.snapshots),) and running[0] == 0.0
    value = action(HARMONIC, traj, which)
    assert type(value) is float and value == running[-1]


def test_gauge_phase_leaves_action_invariant():
    from waveaction import gauge_transform

    g = make_grid(-10, 10, 1001)
    _, traj = solution_trajectory(g, n_steps=400)
    s = action(HARMONIC, traj, "simple")
    rotated = [gauge_transform(psi, 0.37).amplitudes for _, psi in traj.snapshots]
    s_rot = action(HARMONIC, Trajectory(g, traj.times, rotated), "simple")
    assert abs(s_rot - s) < 1e-10


def stationarity_setup(n_steps=1000):
    g = make_grid(-10, 10, 1001)
    gs, traj = solution_trajectory(g, dt=1e-3, n_steps=n_steps)
    bump = normalize(Wavefunction(g, np.exp(-g.x**2)))
    return g, gs, traj, bump


def test_stationarity_quadratic_on_solution():
    _, _, traj, bump = stationarity_setup()
    result = action_integrals(HARMONIC, traj).stationarity(bump, [1e-2, 1e-3, 1e-4])
    assert result.slope == pytest.approx(2.0, abs=0.15)


def test_stationarity_second_divided_differences_agree():
    # dS(eps) = eps S1 + eps^2 S2 exactly on a linear H, so the second divided
    # difference (dS1/eps1 - dS2/eps2) / (eps1 - eps2) is S2 for every pair;
    # per-epsilon passes lose digits to cancellation as eps shrinks
    _, _, traj, bump = stationarity_setup()
    result = action_integrals(HARMONIC, traj).stationarity(bump, [1e-2, 1e-3, 1e-4])
    (e1, d1), (e2, d2), (e3, d3) = result.points
    coarse = (d1 / e1 - d2 / e2) / (e1 - e2)
    fine = (d2 / e2 - d3 / e3) / (e2 - e3)
    assert fine == pytest.approx(coarse, rel=1e-12, abs=0.0)
    assert result.second_order == pytest.approx(coarse, rel=1e-12, abs=0.0)


def oracle_rounding(cfg, traj):
    """Trapezoid time integral of sum |weights * compact density| of traj, each term in modulus.

    The density psi* (i hbar d_t psi - H psi) - rho U(rho) / 2 at row k is
    formed from rows k-1..k+1, the entries of H and the mean field U, and
    its terms cancel on a solution; its rounding is relative to their
    moduli, |psi_k| times hbar (|psi_k+1| + |psi_k-1|) / (t_k+1 - t_k-1),
    |H| |psi_k| and rho_k |U|(rho_k) / 2, with |U| the mean field of |g| or
    of the kernel's moduli.  An action then rounds to a few units in the
    last place of this integral.
    """
    grid, times, amps = traj.grid, traj.times, np.abs(traj.amplitudes)
    last = len(times) - 1
    interaction = cfg.interaction
    if interaction is not None:
        n = interaction.n_particles
        if interaction.kind == "contact":
            modulus = TwoBodyInteraction.contact(abs(interaction.g), n)
        else:
            modulus = TwoBodyInteraction.from_kernel(np.abs(interaction.kernel), n)
    sizes = []
    for k, t in enumerate(times):
        prev, nxt = max(k - 1, 0), min(k + 1, last)
        h = hamiltonian_matrix(cfg, grid, t)
        h_abs = TridiagonalHamiltonian(grid, np.abs(h.diag), np.abs(h.upper), np.abs(h.lower))
        rate = (amps[nxt] + amps[prev]) / (times[nxt] - times[prev])
        size = amps[k] * (cfg.constants.hbar * rate + h_abs.matvec(amps[k]))
        if interaction is not None:
            rho = amps[k] ** 2
            size += 0.5 * rho * mean_field_density_values(modulus, grid, rho)
        sizes.append(quadrature(grid, size))
    return float(np.trapezoid(sizes, times))


def perturbed_trajectory(traj, eta, eps):
    """traj with every row k moved by eps * window_k * eta, the probe's perturbation, built by the outer product."""
    times = traj.times
    window = np.sin(np.pi * (times - times[0]) / (times[-1] - times[0])) ** 2
    amps = np.outer(eps * window, eta.amplitudes)
    amps += traj.amplitudes
    return Trajectory(traj.grid, times, amps)


def assert_within_oracle_rounding(cfg, traj, eta, eps, delta):
    """delta against the oracle action(perturbed) - action(traj), to that difference's own rounding.

    Each term of either oracle action passes through about eight roundings
    (the perturbed row, its rate, the three products and two sums of H psi
    with its mean field, the density's product), so the difference is good
    to 8 ulps of both trajectories' oracle_rounding; the exact coefficients
    round far below it.
    """
    perturbed = perturbed_trajectory(traj, eta, eps)
    oracle = action(cfg, perturbed) - action(cfg, traj)
    bound = 8 * np.finfo(float).eps * (oracle_rounding(cfg, traj) + oracle_rounding(cfg, perturbed))
    assert abs(delta - oracle) <= bound


def test_stationarity_points_are_perturbed_minus_base_action():
    # the probe perturbs every row by eps * window(t) * eta; rebuild the
    # perturbed trajectory and integrate it, as the per-epsilon passes did
    _, _, traj, bump = stationarity_setup(n_steps=300)
    result = action_integrals(HARMONIC, traj).stationarity(bump, [1e-2, 1e-3])
    for eps, delta in result.points:
        assert_within_oracle_rounding(HARMONIC, traj, bump, eps, delta)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=trajectory_shapes(),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    contact=st.one_of(st.none(), st.floats(0.0, 100.0)),
    driven=st.booleans(),
)
def test_stationarity_equals_passes_over_perturbed_trajectories(seed, shape, boundary, contact, driven):
    # the oracle stores every perturbed trajectory, built by the outer
    # product, and integrates it; the exact coefficients meet it within the
    # oracle's own rounding, and a linear H has no eps^3 or eps^4 term
    n_snapshots, n_points = shape
    interaction = None if contact is None else TwoBodyInteraction.contact(contact, 3)
    v1 = PotentialField.from_callable(_driven) if driven else PotentialField.harmonic()
    cfg = HamiltonianConfig(v1=v1, interaction=interaction)
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, 1e-2)
    eta = random_state(traj.grid, seed)
    epsilons = [1e-1, 1e-2, 1e-3]
    result = action_integrals(cfg, traj).stationarity(eta, epsilons)
    for eps, delta in result.points:
        assert_within_oracle_rounding(cfg, traj, eta, eps, delta)
    if interaction is None:
        assert result.third_order == result.fourth_order == 0.0
        for eps, delta in result.points:
            assert delta == eps * result.first_order + eps * eps * result.second_order
    slope = np.polyfit(np.log(epsilons), np.log([abs(d) for _, d in result.points]), 1)[0]
    assert result.slope == float(slope)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    case=st.one_of(
        st.tuples(st.just("contact"), trajectory_shapes()),
        # a dense kernel on small grids; the driven draws read one row per block
        st.tuples(st.just("kernel"), st.tuples(st.integers(3, 30), st.integers(8, 200))),
    ),
    strength=st.floats(-50.0, 100.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    driven=st.booleans(),
)
def test_quartic_expansion_meets_the_per_epsilon_passes(seed, case, strength, boundary, driven):
    # with an interaction dS = eps S1 + eps^2 S2 + eps^3 S3 + eps^4 S4; eps runs
    # from 1, where S4 weighs most, to 1e-3, where S1 does, and each point
    # meets the per-epsilon oracle within the oracle's own rounding
    kind, (n_snapshots, n_points) = case
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, 1e-2)
    if kind == "contact":
        interaction = TwoBodyInteraction.contact(strength, 3)
    else:  # a random symmetric kernel, of both signs
        a = np.random.default_rng(seed).standard_normal((n_points, n_points))
        interaction = TwoBodyInteraction.from_kernel(strength * (a + a.T), 3)
    v1 = PotentialField.from_callable(_driven) if driven else PotentialField.harmonic()
    cfg = HamiltonianConfig(v1=v1, interaction=interaction)
    eta = random_state(traj.grid, seed)
    result = action_integrals(cfg, traj).stationarity(eta, [1.0, 1e-1, 1e-2, 1e-3])
    coefficients = (result.first_order, result.second_order, result.third_order, result.fourth_order)
    assert all(type(value) is float for value in coefficients)
    for eps, delta in result.points:
        assert_within_oracle_rounding(cfg, traj, eta, eps, delta)


def test_stationarity_keeps_a_linear_change_finite_at_a_large_epsilon():
    # the eps^3 and eps^4 terms are not formed on a linear H: at eps = 1e100
    # the change is finite, where eps^4 * 0 would be NaN
    traj = random_trajectory(7, 12, 64, "periodic", 1e-2)
    eta = random_state(traj.grid, 7)
    result = action_integrals(HARMONIC, traj).stationarity(eta, [1e100, 1e-3])
    for eps, delta in result.points:
        assert np.isfinite(delta)
        assert delta == eps * result.first_order + eps * eps * result.second_order


def quadrature_expansion(cfg, traj, eta):
    """(S1, S2, scale) of the exact stationarity expansion with c_k, d_k and e_k each a grid quadrature of row k.

    H is assembled at every row time.  scale is the trapezoid integral of
    the moduli of s1's three terms, the size S1 rounds relative to: S1
    itself cancels to far below it on some trajectories.
    """
    grid, times, hbar = traj.grid, traj.times, cfg.constants.hbar
    window = np.sin(np.pi * (times - times[0]) / (times[-1] - times[0])) ** 2
    bra = np.conj(eta.amplitudes)
    c, d, e = (np.empty(len(times), dtype=complex) for _ in range(3))
    for k, t in enumerate(times):
        h_eta = hamiltonian_matrix(cfg, grid, t).matvec(eta.amplitudes)
        c[k] = quadrature(grid, bra * traj.amplitudes[k])
        d[k] = quadrature(grid, np.conj(h_eta) * traj.amplitudes[k])
        e[k] = quadrature(grid, bra * h_eta)

    rows = np.arange(len(times))
    prev, nxt = np.maximum(rows - 1, 0), np.minimum(rows + 1, len(times) - 1)

    def rate(f):  # centred, one-sided at the two ends
        return (f[nxt] - f[prev]) / (times[nxt] - times[prev])

    terms = (hbar * rate(window) * np.conj(c), hbar * window * rate(c), 2.0 * window * d)
    s1 = (1j * (terms[0] + terms[1])).real - terms[2].real
    scale = np.trapezoid(sum(np.abs(term) for term in terms), times)
    return np.trapezoid(s1, times), np.trapezoid(-(window**2) * e.real, times), scale


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=trajectory_shapes(),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    driven=st.booleans(),
)
def test_expansion_coefficients_match_the_row_quadratures(seed, shape, boundary, driven):
    # the probe forms c and d as one matrix product per row block; each
    # quadrature inner product rounds differently, far below 1e-14 of the sizes summed
    n_snapshots, n_points = shape
    cfg = HamiltonianConfig(v1=PotentialField.from_callable(_driven) if driven else PotentialField.harmonic())
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, 1e-2)
    eta = random_state(traj.grid, seed)
    result = action_integrals(cfg, traj).stationarity(eta, [1e-1, 1e-2])
    first, second, scale = quadrature_expansion(cfg, traj, eta)
    assert abs(result.first_order - first) <= 1e-14 * scale
    assert abs(result.second_order - second) <= 1e-14 * abs(second)


@pytest.mark.parametrize("contact", [None, 10.0], ids=["linear", "interacting"])
@pytest.mark.parametrize("eps", [1e300, 1e308])
def test_stationarity_rejects_a_non_finite_action_change(contact, eps):
    # eps = 1e300 and 1e308 overflow the action change in its powers of eps,
    # eps^2 on a linear H and up to eps^4 with an interaction; no perturbed
    # row is formed (warnings are errors here, so neither may warn)
    interaction = None if contact is None else TwoBodyInteraction.contact(contact, 3)
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=interaction)
    traj = random_trajectory(7, 12, 64, "periodic", 1e-2)
    eta = Wavefunction(traj.grid, 10.0 * random_state(traj.grid, 7).amplitudes)
    assert np.abs(eta.amplitudes.real).max() > 2.0
    with pytest.raises(ValueError, match=re.escape(f"the action change at epsilon {eps!r} is not finite")):
        action_integrals(cfg, traj).stationarity(eta, [eps, 1e-3])


def test_stationarity_rejects_an_envelope_from_another_grid_of_the_same_size():
    _, _, traj, _ = stationarity_setup(n_steps=4)
    bump = gaussian_wavepacket(make_grid(0, 1, traj.grid.n_points, "periodic"))
    with pytest.raises(ValueError, match="different grids"):
        action_integrals(HARMONIC, traj).stationarity(bump, [1e-2, 1e-3])


def test_stationarity_linear_off_shell():
    g, gs, traj, bump = stationarity_setup()
    wrong_phase = Trajectory(g, traj.times, traj.amplitudes * np.exp(-1j * 0.05 * traj.times)[:, None])
    result = action_integrals(HARMONIC, wrong_phase).stationarity(bump, [1e-2, 1e-3, 1e-4])
    assert result.slope == pytest.approx(1.0, abs=0.15)


def test_stationarity_zero_epsilon_is_exact_zero():
    _, _, traj, bump = stationarity_setup(n_steps=300)
    result = action_integrals(HARMONIC, traj).stationarity(bump, [0.0, 1e-2, 1e-3])
    eps_to_ds = dict(result.points)
    assert eps_to_ds[0.0] == 0.0


def test_stationarity_rejects_degenerate_epsilons():
    _, _, traj, bump = stationarity_setup(n_steps=300)
    with pytest.raises(ValueError, match="epsilon"):
        action_integrals(HARMONIC, traj).stationarity(bump, [1e-3])
    with pytest.raises(ValueError, match="epsilon"):
        action_integrals(HARMONIC, traj).stationarity(bump, [0.0, 1e-3])


def test_rayleigh_ritz_gaussian_in_harmonic_trap():
    g = make_grid(-10, 10, 6001)
    result = rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [0.5, 0.8], grid=g)
    assert result.converged
    assert result.energy == pytest.approx(0.5, abs=1e-6)
    width = result.params[1]
    assert width**2 == pytest.approx(0.5, abs=1e-3)


def test_rayleigh_ritz_quartic_upper_bound_within_five_percent():
    g = make_grid(-8, 8, 1201)
    quartic = HamiltonianConfig(v1=PotentialField.quartic())
    result = rayleigh_ritz_minimize(quartic, gaussian_family(), [0.0, 0.6], grid=g)
    e0 = dense_ground_energy(g, quartic.v1.evaluate(g))[0]
    assert result.energy >= e0 - 1e-8
    gap = (result.energy - e0) / e0
    assert 0.0 < gap < 0.05


def test_rayleigh_ritz_frozen_wide_gaussian_upper_bound():
    # width pinned at 10: E = 1/(8*100) + 100/2 = 50.00125, far above the
    # ground state but still an upper bound; box wide enough to hold the tail
    g = make_grid(-80, 80, 3201)

    def build(params, grid):
        return gaussian_wavepacket(grid, center=params[0], width=10.0)

    def derivatives(params, grid, state):
        return np.array([(grid.x - params[0]) / (2.0 * 10.0**2)]) * state.amplitudes

    frozen = TrialFamily("frozen-wide", ("center",), build, ((-1.0, 1.0),), derivatives)
    result = rayleigh_ritz_minimize(HARMONIC, frozen, [0.3], grid=g)
    assert result.energy == pytest.approx(50.00125, abs=1e-5)
    assert result.energy > 0.5


def test_rayleigh_ritz_box_sine_family_contains_box_ground_state():
    g = make_grid(0, 1, 1001)
    box = HamiltonianConfig()
    result = rayleigh_ritz_minimize(box, box_sine_family(), [0.3, -0.2], grid=g)
    e0 = dense_ground_energy(g, np.zeros(g.n_points))[0]
    assert result.converged
    assert result.energy >= e0 - 1e-8
    assert result.energy == pytest.approx(e0, abs=1e-6)


def test_rayleigh_ritz_upper_bound_across_pairs():
    pairs = []
    g1 = make_grid(-10, 10, 1501)
    pairs.append((HARMONIC, gaussian_family(), [0.2, 1.5], g1))
    quartic = HamiltonianConfig(v1=PotentialField.quartic())
    pairs.append((quartic, gaussian_phase_family(), [0.0, 0.7, 0.5], g1))
    g2 = make_grid(0, 1, 801)
    pairs.append((HamiltonianConfig(), box_sine_family(), [0.5, 0.5], g2))
    for cfg, family, x0, g in pairs:
        result = rayleigh_ritz_minimize(cfg, family, x0, grid=g)
        e0 = dense_ground_energy(g, cfg.v1.evaluate(g))[0]
        assert result.energy >= e0 - 1e-8


def test_rayleigh_ritz_rejects_out_of_bounds_start():
    g = make_grid(-5, 5, 128)
    with pytest.raises(ValueError, match="bounds"):
        rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [0.0, 100.0], grid=g)
    with pytest.raises(ValueError, match="parameters"):
        rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [0.0], grid=g)


def test_rayleigh_ritz_rejects_a_driven_config():
    # the energy principle bounds the ground state of a static H only
    g = make_grid(-5, 5, 128)
    driven = HamiltonianConfig(v1=PotentialField.from_callable(lambda x, t: 0.5 * x**2 * (1.0 + t)))
    with pytest.raises(ValueError, match="static"):
        rayleigh_ritz_minimize(driven, gaussian_family(), [0.0, 1.0], grid=g)


def test_rayleigh_ritz_gradient_path_recovers_from_failing_builds():
    # in a stiff trap the first gradient step overshoots the centre into the failure
    # region, and that failed evaluation hands the rest of the run to Nelder-Mead;
    # V = 2x^2 on mass 4 still has ground energy 0.5
    g = make_grid(-5, 5, 601)
    stiff = HamiltonianConfig(constants=PhysicalConstants(mass=4.0), v1=PotentialField.harmonic(omega=2.0))

    def fragile_build(params, grid):
        if params[0] > 0.25:  # inside bounds, still fails
            raise ValueError("synthetic failure region")
        return gaussian_wavepacket(grid, center=params[0], width=params[1])

    family = TrialFamily(
        "fragile", ("center", "width"), fragile_build, ((-1.0, 1.0), (0.1, 5.0)), gaussian_family().derivatives
    )
    result = rayleigh_ritz_minimize(stiff, family, [-0.2, 1.0], grid=g)
    assert "Nelder-Mead" in result.message
    assert result.converged
    assert result.energy == pytest.approx(0.5, abs=1e-4)
    assert result.gradient_norm is None


def test_rayleigh_ritz_gradient_path_keeps_the_best_point_when_every_later_build_fails():
    g = make_grid(-10, 10, 401)
    builds = []

    def build_once(params, grid):
        builds.append(params.copy())
        if len(builds) > 1:
            raise ValueError("synthetic failure after the first build")
        return gaussian_wavepacket(grid, center=params[0], width=params[1])

    family = TrialFamily(
        "build-once", ("center", "width"), build_once, ((-1.0, 1.0), (0.1, 5.0)), gaussian_family().derivatives
    )
    result = rayleigh_ritz_minimize(HARMONIC, family, [0.2, 1.0], grid=g, max_iter=20)
    assert np.isfinite(result.energy)
    assert not result.converged
    np.testing.assert_array_equal(result.params, [0.2, 1.0])
    start = gaussian_wavepacket(g, center=0.2, width=1.0).amplitudes
    assert result.energy == energies_of(HARMONIC, hamiltonian_matrix(HARMONIC, g), start)
    assert result.history.tolist() == [result.energy]


def test_rayleigh_ritz_gradient_path_reports_the_projected_gradient():
    g = make_grid(-10, 10, 1501)
    result = rayleigh_ritz_minimize(HARMONIC, gaussian_phase_family(), [0.4, 1.2, 0.3], grid=g)
    assert result.converged
    assert 0.0 <= result.gradient_norm < 1e-4
    assert result.energy == pytest.approx(0.5, abs=1e-5)
    # the optimizer counts iterations, the history counts evaluations
    capped = rayleigh_ritz_minimize(HARMONIC, gaussian_phase_family(), [0.4, 1.2, 0.3], grid=g, max_iter=1)
    assert not capped.converged
    assert len(capped.history) >= 2


def test_rayleigh_ritz_gradient_norm_is_projected_onto_the_bounds():
    # the width bound stops a wide trial state in a tight trap: the raw gradient is large, its projection 0
    g = make_grid(-10, 10, 801)
    tight = HamiltonianConfig(v1=PotentialField.harmonic(omega=400.0))
    result = rayleigh_ritz_minimize(tight, gaussian_family(), [0.0, 1.0], grid=g)
    assert result.params[1] == 0.05
    _, grad = energy_and_gradient(tight, hamiltonian_matrix(tight, g), gaussian_family(), result.params)
    assert grad[1] > 1.0
    assert result.gradient_norm < 1e-5


def _central_difference_gradient(cfg, h, family, params):
    """Fourth-order central differences of energies_of, each step scaled to its parameter."""
    # the Gaussians' lengths scale with the width, their wavenumbers with its inverse
    width = params[1] if family.name.startswith("gaussian") else 1.0
    scales = {"center": width, "width": width, "wavenumber": 1.0 / width, "c2": 1.0, "c3": 1.0}

    def e(p):
        return float(energies_of(cfg, h, family.build(p, h.grid).amplitudes))

    out = []
    for i, name in enumerate(family.parameter_names):
        step = np.zeros(len(params))
        step[i] = 1e-3 * scales[name]
        near = e(params + step) - e(params - step)
        far = e(params + 2 * step) - e(params - 2 * step)
        out.append((8 * near - far) / (12 * step[i]))
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(
    family_name=st.sampled_from(sorted(FAMILIES)),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    contact=st.sampled_from([None, -4.0, 30.0]),
    vector_potential=st.booleans(),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_energy_gradient_matches_central_differences(family_name, boundary, contact, vector_potential, fractions):
    g = make_grid(-8, 8, 321, boundary)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(),
        a_vec=PotentialField.harmonic(omega=0.5) if vector_potential else PotentialField.free(),
        interaction=None if contact is None else TwoBodyInteraction.contact(contact, 3),
    )
    family = FAMILIES[family_name]()
    params = np.array([lo + f * (hi - lo) for f, (lo, hi) in zip(fractions, family.parameter_bounds)])
    h = hamiltonian_matrix(cfg, g)
    energy, grad = energy_and_gradient(cfg, h, family, params)
    assert energy == energies_of(cfg, h, family.build(params, g).amplitudes)
    reference = _central_difference_gradient(cfg, h, family, params)
    # 1e-5 relative to the largest component, with an absolute floor of 1e-7
    assert np.max(np.abs(grad - reference)) <= 1e-5 * np.max(np.abs(reference)) + 1e-7
    result = rayleigh_ritz_minimize(cfg, family, params, grid=g)
    assert result.energy == energies_of(cfg, h, family.build(result.params, g).amplitudes)
    assert result.energy <= energy


def _stacked_gaussian_derivatives(params, grid, state):
    """The Gaussian families' derivative rows as one stacked (p, N) product, the row-by-row fill's oracle."""
    u = grid.x - params[0]
    rows = [u / (2.0 * params[1] ** 2), u**2 / (2.0 * params[1] ** 3)]
    if len(params) == 3:
        rows.append(1j * grid.x)
    return np.array(rows) * state.amplitudes


def _stacked_energy_gradient(cfg, h, family, params):
    """The gradient as one reduction over the (p, N) product conj(D) (r - mu phi), the row-by-row reduction's oracle."""
    g = h.grid
    state = family.build(params, g)
    phi = state.amplitudes
    r = h.plus_diagonal(mean_field_diagonal(cfg, g, phi, 1.0)).matvec(phi)
    mu = quadrature(g, np.conj(phi) * r).real
    d = family.derivatives(params, g, state)
    return 2.0 * quadrature(g, np.conj(d) * (r - mu * phi)).real


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    family_name=st.sampled_from(sorted(FAMILIES)),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    contact=st.sampled_from([None, -4.0, 30.0]),
    n_points=st.integers(17, 600),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_gradient_rows_keep_the_bits_of_the_stacked_formulas(family_name, boundary, contact, n_points, fractions):
    g = make_grid(-8, 8, n_points, boundary)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(),
        interaction=None if contact is None else TwoBodyInteraction.contact(contact, 3),
    )
    family = FAMILIES[family_name]()
    params = np.array([lo + f * (hi - lo) for f, (lo, hi) in zip(fractions, family.parameter_bounds)])
    h = hamiltonian_matrix(cfg, g)
    if family_name.startswith("gaussian"):
        state = family.build(params, g)
        assert _same_bits(family.derivatives(params, g, state), _stacked_gaussian_derivatives(params, g, state))
    _, grad = energy_and_gradient(cfg, h, family, params)
    assert _same_bits(grad, _stacked_energy_gradient(cfg, h, family, params))


@pytest.mark.parametrize("family_name", sorted(FAMILIES))
def test_energy_and_gradient_holds_no_derivative_sized_temporary(family_name):
    # the derivative rows are filled in place and reduced one at a time, so no
    # (p, N) complex temporary adds to the peak (11, 14 and 11 states' bytes
    # with the stacked formulas for gaussian, gaussian-phase and box-sine);
    # numpy reports its buffers to tracemalloc, so the measure does not depend
    # on the machine
    import tracemalloc

    g = make_grid(-10, 10, 4001)
    family = FAMILIES[family_name]()
    start = {"center": 0.3, "width": 1.1, "wavenumber": 0.5, "c2": 0.2, "c3": -0.1}
    params = np.array([start[name] for name in family.parameter_names])
    h = hamiltonian_matrix(HARMONIC, g)
    energy_and_gradient(HARMONIC, h, family, params)  # warm-up
    tracemalloc.start()
    try:
        energy_and_gradient(HARMONIC, h, family, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state_bytes = g.n_points * np.dtype(complex).itemsize
    assert peak <= 10 * state_bytes, peak / state_bytes


def test_rayleigh_ritz_iteration_cap_flags_result():
    g = make_grid(-10, 10, 401)
    result = rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [3.0, 5.0], grid=g, max_iter=2)
    assert not result.converged
    assert np.isfinite(result.energy)  # best-so-far still reported


SMALL = make_grid(-6, 6, 97)


def _small_trajectory():
    return propagate(HARMONIC, gaussian_wavepacket(SMALL, center=0.5), PropagationPlan(dt=1e-2, n_steps=8))


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: action_integrals(HARMONIC, _small_trajectory()).stationarity(
                Wavefunction(SMALL, np.zeros(97)), [1e-2, 1e-3]
            ),
            "degenerate epsilon list: zero action change at nonzero epsilon",
        ),
        (
            lambda: rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [0.0, 1.0], grid=SMALL, max_iter=0),
            "max_iter must be at least 1",
        ),
        (
            lambda: rayleigh_ritz_minimize(HARMONIC, box_sine_family(), [0.0, 0.0], grid=SMALL, max_iter=-3),
            "max_iter must be at least 1",
        ),
    ],
    ids=["zero-envelope", "rayleigh-ritz-max-iter-0", "rayleigh-ritz-max-iter-negative"],
)
def test_action_probe_and_minimizer_reject_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_rayleigh_ritz_hands_a_non_finite_gradient_to_nelder_mead():
    g = make_grid(-10, 10, 401)
    family = TrialFamily(
        "nan-gradient",
        ("center", "width"),
        gaussian_family().build,
        ((-1.0, 1.0), (0.1, 5.0)),
        lambda params, grid, state: np.full((2, grid.n_points), np.nan),
    )
    result = rayleigh_ritz_minimize(HARMONIC, family, [0.3, 1.5], grid=g)
    assert result.message.startswith("evaluation failed after 0 L-BFGS-B iterations; Nelder-Mead: ")
    assert result.gradient_norm is None
    assert result.converged
    assert result.energy == pytest.approx(0.5, abs=1e-4)
