"""Lagrangian densities, action integrals, stationarity, Rayleigh-Ritz."""

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
from waveaction.hamiltonian import apply_mechanical_momentum
from waveaction.variational import TrialFamily

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


def test_standard_density_is_real_array():
    g = make_grid(-6, 6, 129)
    sample = lagrangian_densities(
        HARMONIC,
        random_state(g, seed=1),
        random_state(g, seed=2),
    )
    assert sample.l_standard.dtype.kind == "f"


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_standard_density_matches_per_link_oracle(boundary):
    # L1_j = -hbar Im(psi_j* rate_j) - |P psi|^2_j / 2m - (V_j + q A0_j) |psi_j|^2, where link j
    # joins nodes j and j+1 (wrapping round on a periodic grid; a Dirichlet grid has no last link)
    hbar, mass, charge = 0.7, 1.3, -0.9
    g = make_grid(-4, 5, 97, boundary)
    rng = np.random.default_rng(11)
    a_vals, a0_vals = rng.standard_normal(g.n_points), rng.standard_normal(g.n_points)
    cfg = HamiltonianConfig(
        constants=PhysicalConstants(hbar=hbar, mass=mass, charge=charge),
        v1=PotentialField.harmonic(),
        a0=PotentialField.from_samples(a0_vals),
        a_vec=PotentialField.from_samples(a_vals),
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
    s = action(HARMONIC, traj, "simple")
    assert abs(s.value) < 1e-6
    assert s.time_window == (0.0, pytest.approx(1.0))


def test_action_equivalence_of_densities():
    g = make_grid(-10, 10, 2001)
    _, traj = solution_trajectory(g)
    s_simple = action(HARMONIC, traj, "simple").value
    s_standard = action(HARMONIC, traj, "standard").value
    assert abs(s_simple - s_standard) < 1e-8


def test_action_equivalence_for_moving_packet():
    # also holds far off the ground state, as long as the state stays localized
    g = make_grid(-12, 12, 1201)
    psi = gaussian_wavepacket(g, center=2.0, width=0.9)
    traj = propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=600))
    s_simple = action(HARMONIC, traj, "simple").value
    s_standard = action(HARMONIC, traj, "standard").value
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
        return np.trapezoid(integrals.simple, integrals.times)

    s = complex_action(traj)
    reversed_traj = Trajectory(g, traj.times, np.conj(traj.amplitudes[::-1]))
    s_rev = complex_action(reversed_traj)
    # exact discrete identity: reversal + conjugation conjugates the action
    assert abs(s_rev - np.conj(s)) < 1e-12
    # for a near-stationary window both are ~0, so the reversal negates it too
    assert abs(action(HARMONIC, reversed_traj).value + action(HARMONIC, traj).value) < 1e-8


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
    assert integrals.times is traj.times


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
        s = action(HARMONIC, traj, which).value
        s_rot = action(HARMONIC, rotated, which).value
        assert abs(s_rot - s) <= 1e-12 * max(1.0, abs(s))


@pytest.mark.parametrize("which", ["simple", "standard"])
def test_running_action_ends_at_the_action(which):
    g = make_grid(-10, 10, 1001)
    psi = gaussian_wavepacket(g, center=1.5, width=0.8, wavenumber=0.5)
    traj = propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=200, record_stride=2))
    integrals = action_integrals(HARMONIC, traj)
    running = integrals.running(which)
    value = integrals.action(which).value
    assert running.shape == (len(traj.snapshots),) and running[0] == 0.0
    assert abs(running[-1] - value) <= 1e-12 * abs(value)
    assert value == action(HARMONIC, traj, which).value


def test_gauge_phase_leaves_action_invariant():
    from waveaction import gauge_transform

    g = make_grid(-10, 10, 1001)
    _, traj = solution_trajectory(g, n_steps=400)
    s = action(HARMONIC, traj, "simple").value
    rotated = [gauge_transform(psi, 0.37).amplitudes for _, psi in traj.snapshots]
    s_rot = action(HARMONIC, Trajectory(g, traj.times, rotated), "simple").value
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


def test_stationarity_points_are_perturbed_minus_base_action():
    # the probe reuses the pass's base action and perturbs every row by
    # eps * window(t) * eta; rebuild both row by row and compare exactly
    _, _, traj, bump = stationarity_setup(n_steps=300)
    result = action_integrals(HARMONIC, traj).stationarity(bump, [1e-2, 1e-3])
    base = action(HARMONIC, traj).value
    times = traj.times
    window = np.sin(np.pi * (times - times[0]) / (times[-1] - times[0])) ** 2
    for eps, delta in result.points:
        rows = [amp + eps * w * bump.amplitudes for w, amp in zip(window, traj.amplitudes)]
        assert delta == action(HARMONIC, Trajectory(traj.grid, times, rows)).value - base


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=trajectory_shapes(),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    contact=st.one_of(st.none(), st.floats(0.0, 100.0)),
    driven=st.booleans(),
)
def test_stationarity_equals_passes_over_perturbed_trajectories(seed, shape, boundary, contact, driven):
    # the probe perturbs each block of rows as it reads it; the oracle stores
    # every perturbed trajectory, built by the outer product, and integrates it
    n_snapshots, n_points = shape
    interaction = None if contact is None else TwoBodyInteraction.contact(contact, 3)
    v1 = PotentialField.from_callable(_driven) if driven else PotentialField.harmonic()
    cfg = HamiltonianConfig(v1=v1, interaction=interaction)
    traj = random_trajectory(seed, n_snapshots, n_points, boundary, 1e-2)
    eta = random_state(traj.grid, seed)
    epsilons = [1e-1, 1e-2, 1e-3]
    result = action_integrals(cfg, traj).stationarity(eta, epsilons)
    times = traj.times
    window = np.sin(np.pi * (times - times[0]) / (times[-1] - times[0])) ** 2
    base = action(cfg, traj).value
    points = []
    for eps in epsilons:
        amps = np.outer(eps * window, eta.amplitudes)
        amps += traj.amplitudes
        points.append((eps, action(cfg, Trajectory(traj.grid, times, amps)).value - base))
    assert result.points == tuple(points)
    slope = np.polyfit(np.log(epsilons), np.log([abs(d) for _, d in points]), 1)[0]
    assert result.slope == float(slope)


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

    frozen = TrialFamily("frozen-wide", ("center",), build, ((-1.0, 1.0),))
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


def test_rayleigh_ritz_recovers_from_failing_builds():
    g = make_grid(-10, 10, 401)

    def fragile_build(params, grid):
        if params[0] > 0.25:  # inside bounds, still fails
            raise ValueError("synthetic failure region")
        return gaussian_wavepacket(grid, center=params[0], width=params[1])

    family = TrialFamily(
        "fragile", ("center", "width"), fragile_build, ((-1.0, 1.0), (0.1, 5.0))
    )
    result = rayleigh_ritz_minimize(HARMONIC, family, [0.2, 1.0], grid=g)
    assert np.isfinite(result.energy)
    assert result.energy == pytest.approx(0.5, abs=1e-4)


def test_rayleigh_ritz_iteration_cap_flags_result():
    g = make_grid(-10, 10, 401)
    result = rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [3.0, 5.0], grid=g, max_iter=2)
    assert not result.converged
    assert np.isfinite(result.energy)  # best-so-far still reported
