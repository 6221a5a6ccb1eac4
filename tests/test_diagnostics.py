"""Probability fields, continuity, canonical formalism, gauge invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveaction import (
    HamiltonianConfig,
    PotentialField,
    PropagationPlan,
    TwoBodyInteraction,
    Wavefunction,
    apply_hamiltonian,
    apply_mechanical_momentum,
    canonical_fields,
    continuity_residual,
    energy,
    gauge_transform,
    gaussian_wavepacket,
    ground_state_imaginary_time,
    hamilton_equations_residual,
    inner_product,
    lagrangian_densities,
    make_grid,
    norm,
    normalize,
    plane_wave,
    probability_fields,
    propagate,
    quadrature,
    step_crank_nicolson,
)
from waveaction.grids import commensurate_wavenumber

from helpers import random_state

HARMONIC = HamiltonianConfig(v1=PotentialField.harmonic())
FREE = HamiltonianConfig()


def test_real_state_carries_no_current():
    g = make_grid(-8, 8, 301)
    psi = gaussian_wavepacket(g, width=1.1)
    fields = probability_fields(FREE, psi)
    np.testing.assert_allclose(fields.current, 0.0, atol=1e-15)
    assert np.all(fields.rho >= 0.0)
    assert quadrature(g, fields.rho) == pytest.approx(1.0, abs=1e-10)


def test_plane_wave_current_value():
    g = make_grid(0, 2 * np.pi, 64, "periodic")
    psi = plane_wave(g, 2)
    k = commensurate_wavenumber(g, 2)
    length = 2 * np.pi
    expected = (np.sin(k * g.dx) / g.dx) / length  # hbar = m = 1, rho = 1/L
    fields = probability_fields(FREE, psi)
    np.testing.assert_allclose(fields.current, expected, atol=1e-13)


def test_constant_vector_potential_drift_current():
    g = make_grid(-8, 8, 301)
    a0 = 0.83
    cfg = HamiltonianConfig(a_vec=PotentialField.from_samples(np.full(g.n_points, a0)))
    psi = gaussian_wavepacket(g, width=1.0)
    fields = probability_fields(cfg, psi)
    rho = np.abs(psi.amplitudes) ** 2
    # elementwise oracle: J = Re[psi* (P psi)]/m with P built independently
    oracle = np.zeros(g.n_points)
    for j in range(1, g.n_points - 1):
        dpsi = (psi.amplitudes[j + 1] - psi.amplitudes[j - 1]) / (2 * g.dx)
        p_psi = -1j * dpsi - a0 * psi.amplitudes[j]
        oracle[j] = (np.conj(psi.amplitudes[j]) * p_psi).real
    np.testing.assert_allclose(fields.current, oracle, atol=1e-14)
    np.testing.assert_allclose(fields.current, -a0 * rho, atol=1e-14)


def test_current_integral_matches_velocity_expectation():
    g = make_grid(0, 4, 64, "periodic")
    cfg = HamiltonianConfig(a_vec=PotentialField.from_samples(0.2 * np.sin(np.pi * g.x / 2)))
    psi = random_state(g, seed=8)
    fields = probability_fields(cfg, psi)
    v_psi = apply_mechanical_momentum(cfg, psi).amplitudes  # m = 1
    expectation = inner_product(psi, Wavefunction(g, v_psi, psi.time)).real
    assert quadrature(g, fields.current) == pytest.approx(expectation, abs=1e-12)


def test_continuity_stationary_state():
    g = make_grid(-10, 10, 1001)
    gs = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g), dtau=0.1, tol=1e-13)
    dt = 1e-3
    after = step_crank_nicolson(HARMONIC, gs.state, 0.0, dt)
    report = continuity_residual(HARMONIC, gs.state, after)
    assert report.sup_norm < 1e-6
    assert report.dt_used == pytest.approx(dt)


def test_continuity_second_order_self_convergence():
    def l2_at_time(n, dt, steps):
        g = make_grid(-10, 10, n)
        psi = gaussian_wavepacket(g, center=1.0, width=2**-0.5)
        for k in range(steps):
            psi_next = step_crank_nicolson(HARMONIC, psi, k * dt, dt)
            psi = psi_next
        after = step_crank_nicolson(HARMONIC, psi, steps * dt, dt)
        return continuity_residual(HARMONIC, psi, after).l2_norm

    coarse = l2_at_time(501, 2e-3, 100)
    fine = l2_at_time(1001, 1e-3, 200)
    assert coarse / fine == pytest.approx(4.0, abs=0.5)


def test_continuity_flags_corrupted_snapshot():
    g = make_grid(-10, 10, 801)
    psi = gaussian_wavepacket(g, width=2**-0.5)
    dt = 1e-3
    after = step_crank_nicolson(HARMONIC, psi, 0.0, dt)
    clean = continuity_residual(HARMONIC, psi, after).sup_norm
    corrupted = Wavefunction(g, 1.01 * after.amplitudes, after.time)
    dirty = continuity_residual(HARMONIC, psi, corrupted).sup_norm
    assert dirty > 100 * clean


def test_continuity_rejects_identical_times():
    g = make_grid(-5, 5, 64)
    psi = gaussian_wavepacket(g)
    with pytest.raises(ValueError, match="identical times"):
        continuity_residual(HARMONIC, psi, psi)


def test_global_norm_conservation_via_continuity():
    # d/dt int rho dx is bounded by the boundary flux, negligible for localized states
    g = make_grid(-10, 10, 801)
    psi = gaussian_wavepacket(g, center=0.5, width=0.8)
    dt = 1e-3
    after = step_crank_nicolson(HARMONIC, psi, 0.0, dt)
    d_norm = (quadrature(g, np.abs(after.amplitudes) ** 2) - quadrature(g, np.abs(psi.amplitudes) ** 2)) / dt
    assert abs(d_norm) < 1e-10


def test_canonical_fields_momentum_definition_and_energy_identity():
    g = make_grid(-10, 10, 501)
    psi = random_state(g, seed=77)
    fields = canonical_fields(HARMONIC, psi)
    np.testing.assert_array_equal(fields.pi, 1j * np.conj(psi.amplitudes))
    assert fields.hamiltonian_functional == pytest.approx(energy(HARMONIC, psi), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    g=st.floats(0.0, 200.0),
    n_particles=st.integers(1, 50),
    center=st.floats(-3.0, 3.0),
    width=st.floats(0.3, 2.0),
)
def test_half_weight_mean_field_is_shared(g, n_particles, center, width):
    # canonical functional, energy and the zero-rate compact Lagrangian all
    # see the same half-weight interaction
    grid = make_grid(-10, 10, 257)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(g, n_particles)
    )
    psi = gaussian_wavepacket(grid, center=center, width=width)
    e = energy(cfg, psi)
    tol = 1e-12 * max(1.0, abs(e))
    assert abs(canonical_fields(cfg, psi).hamiltonian_functional - e) <= tol
    zero_rate = Wavefunction(grid, np.zeros(grid.n_points))
    l_integral = quadrature(grid, lagrangian_densities(cfg, psi, zero_rate).l_simple)
    assert abs(l_integral + e) <= tol


def test_canonical_functional_oscillator_value():
    g = make_grid(-10, 10, 4001)
    psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
    assert canonical_fields(HARMONIC, psi).hamiltonian_functional == pytest.approx(0.5, abs=1e-6)


def test_canonical_functional_plane_wave():
    g = make_grid(0, 2 * np.pi, 128, "periodic")
    psi = plane_wave(g, 3)
    k = commensurate_wavenumber(g, 3)
    k_eff_sq = (2 - 2 * np.cos(k * g.dx)) / g.dx**2
    assert canonical_fields(FREE, psi).hamiltonian_functional == pytest.approx(
        k_eff_sq / 2, abs=1e-10
    )


def residual_pair(dt, stride):
    g = make_grid(-10, 10, 2001)
    gs = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g), dtau=0.1, tol=1e-13)
    traj = propagate(
        HARMONIC, gs.state, PropagationPlan(dt=dt, n_steps=2 * stride, record_stride=stride)
    )
    (_, first), (_, second), _ = traj.snapshots
    return first, second


def test_hamilton_residual_scale_and_order():
    before, after = residual_pair(1e-3, 10)
    r1, _ = hamilton_equations_residual(HARMONIC, before, after)
    assert r1 < 1e-5
    before2, after2 = residual_pair(5e-4, 10)
    r1_half, _ = hamilton_equations_residual(HARMONIC, before2, after2)
    assert r1 / r1_half == pytest.approx(4.0, abs=0.5)


def test_hamilton_second_residual_equals_first():
    g = make_grid(-10, 10, 501)
    a = random_state(g, seed=51)
    b = Wavefunction(g, random_state(g, seed=52).amplitudes, 0.01)
    r1, r2 = hamilton_equations_residual(HARMONIC, a, b)
    assert r2 == pytest.approx(r1, abs=1e-14)


def test_hamilton_residual_rejects_identical_times():
    g = make_grid(-5, 5, 64)
    psi = gaussian_wavepacket(g)
    with pytest.raises(ValueError, match="identical times"):
        hamilton_equations_residual(HARMONIC, psi, psi)


def test_gauge_identity_and_sign_flip():
    g = make_grid(-5, 5, 128)
    psi = random_state(g, seed=3)
    same = gauge_transform(psi, 0.0)
    np.testing.assert_array_equal(same.amplitudes, psi.amplitudes)
    flipped = gauge_transform(psi, np.pi)  # delta_gamma = pi * hbar
    np.testing.assert_allclose(flipped.amplitudes, -psi.amplitudes, atol=1e-15)


def test_gauge_invariance_of_observables():
    g = make_grid(-10, 10, 801)
    psi = random_state(g, seed=19)
    rotated = gauge_transform(psi, 0.37)
    assert norm(rotated) == pytest.approx(norm(psi), abs=1e-14)
    assert energy(HARMONIC, rotated) == pytest.approx(energy(HARMONIC, psi), abs=1e-13)
    f0 = probability_fields(HARMONIC, psi)
    f1 = probability_fields(HARMONIC, rotated)
    np.testing.assert_allclose(f1.rho, f0.rho, atol=1e-12)
    np.testing.assert_allclose(f1.current, f0.current, atol=1e-12)


def test_diagnostics_do_not_mutate_inputs():
    g = make_grid(-8, 8, 301)
    psi = gaussian_wavepacket(g, center=0.3, width=0.9)
    before = psi.amplitudes.copy()
    after_state = step_crank_nicolson(HARMONIC, psi, 0.0, 1e-3)
    probability_fields(HARMONIC, psi)
    continuity_residual(HARMONIC, psi, after_state)
    canonical_fields(HARMONIC, psi)
    hamilton_equations_residual(HARMONIC, psi, after_state)
    gauge_transform(psi, 1.23)
    np.testing.assert_array_equal(psi.amplitudes, before)
