"""Crank-Nicolson stepping, mean-field stepping, imaginary-time relaxation."""

import dataclasses
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import fft as sp_fft
from scipy.linalg import get_lapack_funcs

from waveaction import (
    HamiltonianConfig,
    ObserverError,
    PotentialField,
    PropagationPlan,
    Trajectory,
    TwoBodyInteraction,
    Wavefunction,
    apply_hamiltonian,
    chemical_potential,
    energy,
    gaussian_wavepacket,
    ground_state_imaginary_time,
    inner_product,
    make_grid,
    norm,
    normalize,
    propagate,
    quadrature,
    step_crank_nicolson,
    step_gp,
    step_split_operator,
)

from waveaction.grids import norms
from waveaction.hamiltonian import (
    TridiagonalHamiltonian,
    energies_of,
    hamiltonian_at,
    hamiltonian_matrix,
    mean_field_diagonal,
)
from waveaction.propagation import (
    _ATTRACTIVE_HANDOFF_ENERGY_CHANGE,
    _REDUCTION_ROWS,
    _CayleySolver,
    _changes_sign,
    _cn_stepper,
    _lowest_eigenvalue_is,
    _gp_stepper,
    _largest_prime_factor,
    _link_bands,
    _newton_finish,
    _newton_step,
    _odd_even_reduction,
    _reduced_solve,
    _shifted_bands,
    _solve_once,
    _split_stepper,
)

from helpers import (
    banded_shift_solve,
    dense_cayley_step,
    dense_ground_energy,
    dense_shifted_matrix,
    random_state,
    richardson_order,
)

HARMONIC = HamiltonianConfig(v1=PotentialField.harmonic())
_TRAPS = {"harmonic": PotentialField.harmonic, "quartic": PotentialField.quartic}


def grid_and_ground(n=2001):
    g = make_grid(-10, 10, n)
    psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
    return g, psi


def test_plan_validation():
    with pytest.raises(ValueError, match="dt"):
        PropagationPlan(dt=0.0, n_steps=10)
    with pytest.raises(ValueError, match="n_steps"):
        PropagationPlan(dt=0.1, n_steps=-1)
    with pytest.raises(ValueError, match="scheme"):
        PropagationPlan(dt=0.1, n_steps=1, scheme="euler")


def test_record_stride_must_divide_n_steps():
    # a non-dividing stride would silently drop the final state
    with pytest.raises(ValueError, match="must divide n_steps"):
        PropagationPlan(dt=1e-3, n_steps=25, record_stride=10)
    g = make_grid(-10, 10, 201)
    traj = propagate(HARMONIC, gaussian_wavepacket(g), PropagationPlan(dt=1e-3, n_steps=30, record_stride=10))
    np.testing.assert_allclose(traj.times, [0.0, 0.01, 0.02, 0.03], rtol=0, atol=1e-15)


def test_cn_single_step_stationary_phase():
    _, psi = grid_and_ground()
    dt = 0.01
    stepped = step_crank_nicolson(HARMONIC, psi, 0.0, dt)
    expected = np.exp(-1j * 0.5 * dt) * psi.amplitudes
    assert np.max(np.abs(stepped.amplitudes - expected)) < 1e-6


@st.composite
def _sampled_fields(draw):
    """(boundary, V, A): a boundary and potential samples for a grid of 8 to 300 points."""
    n = draw(st.integers(8, 300))
    boundary = draw(st.sampled_from(["dirichlet", "periodic"]))
    v = draw(arrays(float, n, elements=st.floats(-100.0, 100.0)))
    return boundary, v, draw(arrays(float, n, elements=st.floats(-3.0, 3.0)))


_X96 = make_grid(0, 6, 96, "periodic").x


@settings(max_examples=60, deadline=None)
@given(fields=_sampled_fields(), dt=st.floats(1e-4, 1.0), seed=st.integers(0, 2**32 - 1))
@example(fields=("periodic", np.sin(np.pi * _X96 / 3), 0.3 * np.cos(np.pi * _X96 / 3)), dt=0.02, seed=9)
def test_cn_unitary_per_step_any_potential(fields, dt, seed):
    # the Cayley step is unitary for any Hermitian H: sampled V and A, both boundaries
    boundary, v, a = fields
    g = make_grid(0, 6, len(v), boundary)
    cfg = HamiltonianConfig(v1=PotentialField.from_samples(v), a_vec=PotentialField.from_samples(a))
    psi = random_state(g, seed=seed)
    for _ in range(20):
        psi = step_crank_nicolson(cfg, psi, 0.0, dt)
    assert abs(norm(psi) - 1.0) < 1e-12


def _sampled_config(fields, driven, interaction=None):
    """(grid, config) of _sampled_fields' V and A; a driven V is scaled by 1 + sin(3 t) / 2."""
    boundary, v, a = fields
    if driven:
        v1 = PotentialField.from_callable(lambda x, t: v * (1.0 + 0.5 * np.sin(3.0 * t)))
    else:
        v1 = PotentialField.from_samples(v)
    cfg = HamiltonianConfig(v1=v1, a_vec=PotentialField.from_samples(a), interaction=interaction)
    return make_grid(0, 6, len(v), boundary), cfg


@settings(max_examples=60, deadline=None)
@given(
    fields=_sampled_fields(),
    driven=st.booleans(),
    t=st.floats(-1.0, 1.0),
    dt=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cn_step_matches_the_dense_cayley_step(fields, driven, t, dt, seed):
    # the step solves for the midpoint state and reflects through it; the
    # oracle solves the dense 1 + sH against psi - sH psi, H at the midpoint time
    g, cfg = _sampled_config(fields, driven)
    psi = random_state(g, seed=seed)
    expected = dense_cayley_step(hamiltonian_matrix(cfg, g, t + dt / 2.0), 1j * dt / 2.0, psi.amplitudes)
    stepped = step_crank_nicolson(cfg, psi, t, dt).amplitudes
    assert np.linalg.norm(stepped - expected) <= 1e-12 * np.linalg.norm(expected)


def dense_relaxation_steps(cfg, psi0, dt, n_steps):
    """States 1 to n_steps of Besse's relaxation scheme from psi0 at psi0.time, a contact interaction, by dense Cayley steps.

    phi_-1/2 = |psi_0|^2 and phi_n+1/2 = 2 |psi_n|^2 - phi_n-1/2; step n is
    one dense Cayley step with H(t_n + dt/2) plus c phi_n+1/2, c = (N-1) g.
    """
    c = (cfg.interaction.n_particles - 1) * cfg.interaction.g
    amp, phi, states = psi0.amplitudes, np.abs(psi0.amplitudes) ** 2, []
    for k in range(n_steps):
        phi = 2.0 * np.abs(amp) ** 2 - phi
        t_mid = psi0.time + k * dt + dt / 2.0
        amp = dense_cayley_step(hamiltonian_matrix(cfg, psi0.grid, t_mid).plus_diagonal(c * phi), 1j * dt / 2.0, amp)
        states.append(amp)
    return states


@settings(max_examples=60, deadline=None)
@given(
    fields=_sampled_fields(),
    driven=st.booleans(),
    coupling=st.floats(0.1, 50.0),
    n_particles=st.integers(2, 5),
    t=st.floats(-1.0, 1.0),
    dt=st.floats(1e-4, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_gp_run_matches_the_dense_relaxation_steps(fields, driven, coupling, n_particles, t, dt, seed):
    # three steps through propagate, each one dense Cayley step with the mean
    # field of the relaxed density phi_n+1/2 = 2 |psi_n|^2 - phi_n-1/2
    g, cfg = _sampled_config(fields, driven, TwoBodyInteraction.contact(coupling, n_particles))
    psi = dataclasses.replace(random_state(g, seed=seed), time=t)
    traj = propagate(cfg, psi, PropagationPlan(dt=dt, n_steps=3))
    for row, expected in zip(traj.amplitudes[1:], dense_relaxation_steps(cfg, psi, dt, 3), strict=True):
        assert np.linalg.norm(row - expected) <= 1e-12 * np.linalg.norm(expected)


def test_cn_free_packet_spreading():
    g = make_grid(-20, 20, 1601)
    psi = gaussian_wavepacket(g, width=1.0)
    free = HamiltonianConfig()
    dt = 1e-3
    for k in range(1000):
        psi = step_crank_nicolson(free, psi, k * dt, dt)
    x_sq = quadrature(g, g.x**2 * np.abs(psi.amplitudes) ** 2).real
    exact = 1.0 * (1.0 + (1.0 / (2.0 * 1.0)) ** 2)  # sigma(t)^2 law at t = 1
    assert abs(x_sq - exact) / exact < 1e-3


def test_cn_global_order_two_in_dt():
    g = make_grid(-10, 10, 401)
    psi0 = gaussian_wavepacket(g, center=1.0, width=0.8)
    final = {}
    for dt in (4e-3, 2e-3, 1e-3):
        psi = psi0
        steps = round(0.4 / dt)
        for k in range(steps):
            psi = step_crank_nicolson(HARMONIC, psi, k * dt, dt)
        final[dt] = psi.amplitudes
    e1 = np.max(np.abs(final[4e-3] - final[1e-3]))
    e2 = np.max(np.abs(final[2e-3] - final[1e-3]))
    # order-2 self-convergence: error(dt) - error(dt/2) ratios give (16-1)/(4-1)
    # against the dt/4 reference, i.e. ~5 for a clean second-order scheme
    assert 3.5 < e1 / e2 < 5.5


def test_cn_rejects_interaction():
    g = make_grid(-5, 5, 64)
    cfg = HamiltonianConfig(interaction=TwoBodyInteraction.contact(1.0, 2))
    with pytest.raises(ValueError, match="linear"):
        step_crank_nicolson(cfg, gaussian_wavepacket(g), 0.0, 1e-3)


def test_propagate_zero_steps_returns_initial_only():
    g = make_grid(-5, 5, 64)
    psi = gaussian_wavepacket(g)
    traj = propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=0))
    assert len(traj.snapshots) == 1
    t0, s0 = traj.snapshots[0]
    assert t0 == 0.0
    np.testing.assert_array_equal(s0.amplitudes, psi.amplitudes)


def test_trajectory_checks_copies_and_freezes_its_arrays():
    g = make_grid(-5, 5, 64)
    times = np.array([0.0, 0.1, 0.2])
    amps = np.ones((3, 64), dtype=complex)
    traj = Trajectory(g, times, amps)
    assert traj.times.shape == (3,) and traj.amplitudes.shape == (3, 64)
    # Dirichlet endpoints are clamped in every row, as Wavefunction clamps them
    np.testing.assert_array_equal(traj.amplitudes[:, [0, -1]], 0.0)
    np.testing.assert_array_equal(traj.amplitudes[:, 1:-1], 1.0)
    periodic = make_grid(-5, 5, 64, "periodic")
    np.testing.assert_array_equal(Trajectory(periodic, times, amps).amplitudes, 1.0)
    # the caller's arrays are copied, and the stored ones are read-only
    amps[1, 5] = 7.0
    times[0] = -1.0
    assert traj.amplitudes[1, 5] == 1.0 and traj.times[0] == 0.0
    with pytest.raises(ValueError, match="read-only"):
        traj.amplitudes[1, 5] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        traj.times[0] = -1.0
    assert [t for t, _ in traj.snapshots] == [0.0, 0.1, 0.2]
    for (t, psi), row in zip(traj.snapshots, traj.amplitudes):
        assert psi.grid is g and psi.time == t
        np.testing.assert_array_equal(psi.amplitudes, row)

    ok_times, ok_amps = [0.0, 0.1, 0.2], np.ones((3, 64))
    for bad_times, bad_amps in [
        (ok_times, np.ones((3, 63))),
        (ok_times, np.ones((2, 64))),
        (ok_times, np.ones(64)),
        ([], np.ones((0, 64))),
        ([[0.0, 0.1, 0.2]], ok_amps),
    ]:
        with pytest.raises(ValueError, match="shape|1-D"):
            Trajectory(g, bad_times, bad_amps)
    for bad_times in ([0.0, 0.1, 0.1], [0.0, 0.2, 0.1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(g, bad_times, ok_amps)
    with pytest.raises(ValueError, match="finite"):
        Trajectory(g, [0.0, 0.1, np.inf], ok_amps)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        bad_amps = ok_amps.astype(complex)
        bad_amps[1, 7] = bad
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            Trajectory(g, ok_times, bad_amps)


def test_propagate_norm_drift_over_thousand_steps():
    g, psi = grid_and_ground(n=801)
    drift = {"max": 0.0}

    def watch(step, t, state):
        drift["max"] = max(drift["max"], abs(norm(state) - 1.0))

    propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=1000, record_stride=100), [watch])
    assert drift["max"] < 1e-10


def test_energy_conserved_over_ten_thousand_steps():
    # Cayley stepping commutes with a static H: the energy drift is rounding only
    g = make_grid(-10, 10, 513)
    psi = gaussian_wavepacket(g, center=0.8, width=0.9)
    e0 = energy(HARMONIC, psi)
    dt = 1e-3
    for k in range(10_000):
        psi = step_crank_nicolson(HARMONIC, psi, k * dt, dt)
    drift = abs(energy(HARMONIC, psi) - e0) / abs(e0)
    assert drift < 1e-8


def test_propagate_requires_normalized_start():
    g = make_grid(-5, 5, 64)
    psi = gaussian_wavepacket(g)
    loud = Wavefunction(g, 2.0 * psi.amplitudes)
    with pytest.raises(ValueError, match="normalized"):
        propagate(HARMONIC, loud, PropagationPlan(dt=1e-3, n_steps=1))


def test_observer_failure_aborts_with_context():
    g = make_grid(-5, 5, 64)
    psi = gaussian_wavepacket(g)

    def bad(step, t, state):
        if step == 3:
            raise RuntimeError("boom")

    with pytest.raises(ObserverError, match="step 3"):
        propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=5), [bad])


def test_observer_sees_read_only_state():
    g = make_grid(-5, 5, 64)
    psi = gaussian_wavepacket(g)

    def tamper(step, t, state):
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0

    propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=2), [tamper])


def test_driven_energy_balance():
    # A0(x, t) = x sin t: dE/dt must match <dH/dt> = q <x cos t>
    g = make_grid(-10, 10, 1001)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(),
        a0=PotentialField.from_callable(lambda x, t: x * np.sin(t)),
    )
    psi = gaussian_wavepacket(g, width=2**-0.5)
    dt = 1e-3
    times, energies, states = [], [], []
    t = 0.0
    for k in range(2000):
        psi = step_crank_nicolson(cfg, psi, t, dt)
        t += dt
        if (k + 1) % 10 == 0:
            times.append(t)
            energies.append(energy(cfg, psi))
            states.append(psi)
    worst = 0.0
    for k in range(1, len(times) - 1):
        de_dt = (energies[k + 1] - energies[k - 1]) / (times[k + 1] - times[k - 1])
        rho = np.abs(states[k].amplitudes) ** 2
        drive = quadrature(g, rho * g.x * np.cos(times[k])).real
        worst = max(worst, abs(de_dt - drive))
    assert worst < 1e-4


def test_split_operator_norm_and_free_spreading():
    g = make_grid(-20, 20, 1024, "periodic")
    psi = gaussian_wavepacket(g, width=1.0)
    free = HamiltonianConfig()
    dt = 1e-3
    for k in range(1000):
        psi = step_split_operator(free, psi, k * dt, dt)
    assert abs(norm(psi) - 1.0) < 1e-12
    x_sq = quadrature(g, g.x**2 * np.abs(psi.amplitudes) ** 2).real
    exact = 1.25
    assert abs(x_sq - exact) / exact < 1e-5  # spectral kinetic: sharper than CN


def test_split_operator_requires_periodic():
    g = make_grid(-5, 5, 64)
    with pytest.raises(ValueError, match="periodic"):
        step_split_operator(HARMONIC, gaussian_wavepacket(g), 0.0, 1e-3)


def test_propagate_applies_the_split_operator_rule_to_interactions():
    g = make_grid(-5, 5, 64, "periodic")
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(1.0, 2))
    plan = PropagationPlan(dt=1e-3, n_steps=2, scheme="split-operator")
    with pytest.raises(ValueError, match="split-operator stepping supports linear Hamiltonians only"):
        propagate(cfg, gaussian_wavepacket(g), plan)


def _direct_split_step(cfg, psi, t, dt):
    """The Strang step by n-point FFTs: half_v * ifft(kinetic * fft(half_v * amp))."""
    g, c = psi.grid, cfg.constants
    k = 2.0 * np.pi * sp_fft.fftfreq(g.n_points, d=g.dx)
    kinetic = np.exp(-1j * c.hbar * k**2 * dt / (2.0 * c.mass))
    v = cfg.v1.evaluate(g, t + dt / 2.0) + c.charge * cfg.a0.evaluate(g, t + dt / 2.0)
    half_v = np.exp(-1j * v * dt / (2.0 * c.hbar))
    return half_v * sp_fft.ifft(kinetic * sp_fft.fft(half_v * psi.amplitudes))


_PRIMES_TO_600 = [p for p in range(8, 601) if all(p % q for q in range(2, p))]


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(st.integers(8, 600), st.sampled_from(_PRIMES_TO_600)),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(0.0, 100.0),
    driven=st.booleans(),
    t=st.floats(-1.0, 1.0),
    dt=st.floats(1e-4, 1.0),
)
def test_split_step_equals_the_direct_fft_step(n, seed, v_scale, driven, t, dt):
    # the padded convolution (n with a prime factor above sqrt(n)) and the
    # n-point path both give the direct formula, and both keep the norm
    g = make_grid(-5.0, 5.0, n, "periodic")
    v = v_scale * np.random.default_rng(seed).uniform(0.0, 1.0, n)
    field = PotentialField.from_callable(lambda x, t: v * np.cos(t)) if driven else PotentialField.from_samples(v)
    cfg = HamiltonianConfig(v1=field)
    psi = random_state(g, seed)
    stepped = step_split_operator(cfg, psi, t, dt).amplitudes
    direct = _direct_split_step(cfg, psi, t, dt)
    assert np.linalg.norm(stepped - direct) <= 1e-13 * np.linalg.norm(direct)
    assert abs(norm(Wavefunction(g, stepped)) - norm(psi)) <= 1e-14


@pytest.mark.parametrize("n", [256, 1000, 1001, 1024])
def test_split_step_keeps_the_n_point_fft_where_n_is_smooth(n):
    # no prime factor above sqrt(n): the step is the direct formula bit for bit
    g = make_grid(-8.0, 8.0, n, "periodic")
    cfg = HamiltonianConfig(v1=PotentialField.from_callable(_driven))
    psi = gaussian_wavepacket(g, center=0.5, width=0.8, wavenumber=1.0)
    np.testing.assert_array_equal(step_split_operator(cfg, psi, 0.3, 2e-3).amplitudes,
                                  _direct_split_step(cfg, psi, 0.3, 2e-3))


@pytest.mark.parametrize("n, padded", [(257, True), (899, True), (841, False), (1024, False)])
def test_split_operator_transform_lengths(n, padded, monkeypatch):
    # where n's largest prime factor p has p^2 > n (257 prime, 899 = 29 * 31) a
    # step is two transforms of length next_fast_len(2n - 1), after one n-point
    # inverse FFT and one padded FFT that build the spectrum; otherwise
    # (841 = 29^2, 1024) it is the two n-point transforms
    calls = []

    def recording(name):
        transform = getattr(sp_fft, name)

        def call(*args, **kwargs):
            out = transform(*args, **kwargs)
            calls.append((name, len(out)))
            return out

        return call

    g = make_grid(-8.0, 8.0, n, "periodic")
    psi0 = gaussian_wavepacket(g, center=0.5, width=0.8)
    plan = PropagationPlan(dt=2e-3, n_steps=5, scheme="split-operator")
    for name in ("fft", "ifft"):
        monkeypatch.setattr(sp_fft, name, recording(name))
    propagate(HARMONIC, psi0, plan)
    if padded:
        m = sp_fft.next_fast_len(2 * n - 1)
        assert calls == [("ifft", n), ("fft", m)] + [("fft", m), ("ifft", m)] * plan.n_steps
    else:
        assert calls == [("fft", n), ("ifft", n)] * plan.n_steps


def test_largest_prime_factor_against_brute_force():
    for n in range(2, 5001):
        brute = max(p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, int(p**0.5) + 1)))
        assert _largest_prime_factor(n) == brute, n


def test_gp_zero_coupling_bitwise_reduction():
    g = make_grid(-10, 10, 401)
    psi = gaussian_wavepacket(g, center=0.3)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(0.0, 7)
    )
    linear = step_crank_nicolson(HARMONIC, psi, 0.0, 1e-3)
    nonlinear = step_gp(cfg, psi, 0.0, 1e-3)
    assert np.array_equal(linear.amplitudes, nonlinear.amplitudes)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(0.0, 100.0),
    a_scale=st.floats(0.0, 3.0),
    n_particles=st.integers(1, 20),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    t=st.floats(-1.0, 1.0),
    dt=st.floats(1e-4, 1.0),
)
def test_zero_coupling_gp_step_equals_linear_step(n, seed, v_scale, a_scale, n_particles, boundary, t, dt):
    # criterion 7a on random states, sampled potentials and vector potentials
    g = make_grid(-5.0, 5.0, n, boundary)
    linear, _ = _random_config(g, seed, v_scale, a_scale)
    gp = HamiltonianConfig(v1=linear.v1, a_vec=linear.a_vec, interaction=TwoBodyInteraction.contact(0.0, n_particles))
    psi = random_state(g, seed)
    np.testing.assert_array_equal(
        step_gp(gp, psi, t, dt).amplitudes, step_crank_nicolson(linear, psi, t, dt).amplitudes
    )


def test_gp_norm_conserved_per_step():
    g = make_grid(-10, 10, 513)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(25.0, 3)
    )
    psi = gaussian_wavepacket(g, width=1.3)
    for k in range(50):
        before = norm(psi)
        psi = step_gp(cfg, psi, k * 1e-3, 1e-3)
        assert abs(norm(psi) - before) < 1e-10


def test_gp_quench_width_oscillation_with_tiny_norm_drift():
    g = make_grid(-10, 10, 513)
    trap = HamiltonianConfig(
        v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(50.0, 2)
    )
    gs = ground_state_imaginary_time(trap, gaussian_wavepacket(g), dtau=0.05, tol=1e-12)
    assert gs.converged
    quenched = HamiltonianConfig(
        v1=PotentialField.harmonic(omega=1.01),
        interaction=TwoBodyInteraction.contact(50.0, 2),
    )
    psi = gs.state
    widths = []
    dt = 1e-3
    for k in range(4000):
        psi = step_gp(quenched, psi, k * dt, dt)
        if (k + 1) % 100 == 0:
            widths.append(quadrature(g, g.x**2 * np.abs(psi.amplitudes) ** 2).real)
    widths = np.array(widths)
    assert widths.max() - widths.min() > 1e-2  # breathing mode clearly excited
    assert abs(norm(psi) - 1.0) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    kind=st.sampled_from(["contact", "kernel"]),
    coupling=st.floats(0.5, 30.0).flatmap(lambda g: st.sampled_from([g, -g])),
    n_particles=st.integers(2, 4),
    n_points=st.integers(64, 600),
    start=st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 1.2), st.floats(-3.0, 3.0)),
    dt=st.floats(1e-3, 2e-2),
)
def test_the_relaxation_scheme_conserves_its_relaxed_energy(
    boundary, kind, coupling, n_particles, n_points, start, dt
):
    # Besse's discrete energy <psi_n|H0|psi_n> + (1/2) int phi_n-1/2 U(phi_n+1/2)
    # is constant on a static H for any symmetric U linear in the density
    # (for a contact, (c/2) int phi_n-1/2 phi_n+1/2 with c = (N-1) g), its
    # phi rebuilt from every state of the run: phi_-1/2 = |psi_0|^2 and
    # phi_n+1/2 = 2 |psi_n|^2 - phi_n-1/2.  U is formed here, not by the library
    g = make_grid(-8.0, 8.0, n_points, boundary)
    if kind == "contact":
        interaction = TwoBodyInteraction.contact(coupling, n_particles)
        mean_field = lambda phi: (n_particles - 1) * coupling * phi
    else:
        kernel = coupling * np.exp(-((g.x[:, None] - g.x[None, :]) ** 2))
        interaction = TwoBodyInteraction.from_kernel(kernel, n_particles)
        mean_field = lambda phi: (n_particles - 1) * (kernel @ (g.weights * phi))
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=interaction)
    traj = propagate(cfg, gaussian_wavepacket(g, *start), PropagationPlan(dt=dt, n_steps=200))
    phi = [np.abs(traj.amplitudes[0]) ** 2]
    for rho in np.abs(traj.amplitudes) ** 2:
        phi.append(2.0 * rho - phi[-1])
    linear = hamiltonian_matrix(cfg, g).expectations(traj.amplitudes)
    relaxed = np.array([0.5 * quadrature(g, before * mean_field(after)) for before, after in zip(phi, phi[1:])])
    energies = linear + relaxed
    assert np.max(np.abs(energies - energies[0])) <= 1e-12 * (abs(linear[0]) + abs(relaxed[0]))
    assert traj.norm_drift <= 1e-13


@pytest.mark.parametrize("boundary", ["periodic", "dirichlet"])
def test_a_moving_bright_soliton_converges_at_second_order_in_dx(boundary):
    # the focusing GP equation's bright soliton (Zakharov & Shabat 1972) is
    # exact for c = (N-1) g < 0 with hbar = m = 1:
    # psi = (sqrt|c| / 2) sech(|c| (x - v t) / 2) exp(i (v x - v^2 t / 2 + c^2 t / 8)).
    # v = 2 pi 6 / 40 keeps exp(i v x) periodic on [-20, 20]; the Dirichlet box
    # is the same interval, whose walls hold about 1e-15 of the peak up to t = 2
    c, v, t_end, dt = -4.0, 2.0 * np.pi * 6 / 40, 2.0, 2e-3
    cfg = HamiltonianConfig(interaction=TwoBodyInteraction.contact(c, 2))

    def soliton(x, t):
        envelope = 0.5 * np.sqrt(-c) / np.cosh(-c * (x - v * t) / 2.0)
        return envelope * np.exp(1j * (v * x - v**2 * t / 2.0 + c**2 * t / 8.0))

    errors, spacings = [], []
    for n in (800, 1600):
        g = make_grid(-20.0, 20.0, n, boundary)
        psi0 = normalize(Wavefunction(g, soliton(g.x, 0.0)))
        traj = propagate(cfg, psi0, PropagationPlan(dt=dt, n_steps=1000, record_stride=1000))
        errors.append(float(norms(g, traj.amplitudes[-1] - soliton(g.x, t_end))))
        spacings.append(g.dx)
    order = math.log(errors[0] / errors[1]) / math.log(spacings[0] / spacings[1])
    assert 1.8 <= order <= 2.2, errors
    assert errors[1] <= 4e-3, errors


def test_imaginary_time_oscillator_energy():
    # random smooth start; fine grid so the discrete eigenvalue is within 1e-6
    g = make_grid(-10, 10, 6001)
    start = random_state(g, seed=42)
    result = ground_state_imaginary_time(HARMONIC, start, dtau=0.1, tol=1e-10)
    assert result.converged
    assert result.energy == pytest.approx(0.5, abs=1e-6)


def test_imaginary_time_particle_in_a_box():
    g = make_grid(0, 1, 2001)
    box = HamiltonianConfig()  # Dirichlet walls are the box
    start = Wavefunction(g, np.sin(np.pi * g.x) + 0.2 * np.sin(2 * np.pi * g.x))
    result = ground_state_imaginary_time(box, normalize(start), dtau=0.01, tol=1e-12)
    assert result.converged
    assert result.energy == pytest.approx(np.pi**2 / 2, abs=1e-3)


def test_imaginary_time_energy_history_monotone():
    g = make_grid(-10, 10, 801)
    start = random_state(g, seed=17)
    result = ground_state_imaginary_time(HARMONIC, start, dtau=0.2, tol=1e-11)
    assert np.all(np.diff(result.energy_history) < 1e-12)
    assert result.converged and result.residual <= 1e-9
    # a complex H keeps the loop alone, which stops on the energy change
    looped = ground_state_imaginary_time(_with_vector_potential(HARMONIC, g), start, dtau=0.2, tol=1e-11)
    assert looped.converged and looped.newton_steps == 0
    assert np.all(np.diff(looped.energy_history) < 1e-12)
    assert abs(looped.energy_history[-1] - looped.energy_history[-2]) < 1e-11


def test_mean_field_imaginary_time_energy_can_rise_at_large_dtau():
    # the filter lowers the energy of a fixed H; a mean field rebuilt from
    # each iterate changes H between steps, and a strong contact at a large
    # dtau overshoots, so the history rises although the relaxation converges
    g = make_grid(-8, 8, 401)
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(750.0, 3))
    result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g), dtau=0.5, tol=1e-10)
    assert result.converged
    assert np.diff(result.energy_history).max() > 1.0


def test_imaginary_time_max_iter_returns_partial():
    g = make_grid(-10, 10, 201)
    result = ground_state_imaginary_time(
        HARMONIC, gaussian_wavepacket(g, center=2.0), dtau=0.1, tol=1e-12, max_iter=1
    )
    assert not result.converged
    assert result.iterations == 1
    assert norm(result.state) == pytest.approx(1.0, abs=1e-12)


def test_imaginary_time_requires_static_potentials():
    g = make_grid(-5, 5, 64)
    cfg = HamiltonianConfig(a0=PotentialField.from_callable(lambda x, t: x * t))
    with pytest.raises(ValueError, match="static"):
        ground_state_imaginary_time(cfg, gaussian_wavepacket(g))


@pytest.mark.parametrize("tol", [-1e-10, float("nan")])
def test_imaginary_time_rejects_negative_or_nan_tol(tol):
    # a NaN tol would never be met, so the run would take all max_iter iterations
    g = make_grid(-5, 5, 64)
    with pytest.raises(ValueError, match="tol must be non-negative"):
        ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g), tol=tol, max_iter=3)


def test_imaginary_time_matches_dense_oracle_for_quartic():
    g = make_grid(-8, 8, 1201)
    quartic = HamiltonianConfig(v1=PotentialField.quartic())
    result = ground_state_imaginary_time(quartic, gaussian_wavepacket(g), dtau=0.1, tol=1e-12)
    oracle = dense_ground_energy(g, quartic.v1.evaluate(g))[0]
    assert result.energy == pytest.approx(oracle, abs=1e-9)


def test_eigenstate_residual_within_ten_tol():
    # the energy-difference stop alone leaves a residual of order sqrt(tol * gap);
    # the Newton finish takes the state it hands off to the eigenvector to rounding
    g = make_grid(-10, 10, 2001)
    result = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g, center=1.0),
                                         dtau=0.1, tol=1e-10)
    h_phi = apply_hamiltonian(HARMONIC, result.state).amplitudes
    res = np.sqrt(quadrature(g, np.abs(h_phi - result.energy * result.state.amplitudes) ** 2).real)
    assert result.newton_steps > 0
    assert res < 10 * 1e-10


def test_eigenstate_residual_verified_bounds():
    g = make_grid(-10, 10, 2001)
    start = gaussian_wavepacket(g, center=1.0)
    result = ground_state_imaginary_time(HARMONIC, start, dtau=0.1, tol=1e-10)
    e0 = dense_ground_energy(g, HARMONIC.v1.evaluate(g))[0]
    e_max = 2.0 / g.dx**2 + HARMONIC.v1.evaluate(g).max()

    def residual(r):
        h_phi = apply_hamiltonian(HARMONIC, r.state).amplitudes
        return np.sqrt(quadrature(g, np.abs(h_phi - r.energy * r.state.amplitudes) ** 2).real)

    # Bhatia-Davis: Var(H) <= (E - E0)(Emax - E); Emax via Gershgorin.  It is
    # checked on the state the energy-difference stop hands to Newton (the
    # same loop, cut at the hand-off), where E - E0 is resolved
    handed_off = ground_state_imaginary_time(HARMONIC, start, dtau=0.1, tol=1e-10,
                                             max_iter=result.iterations - result.newton_steps)
    assert handed_off.newton_steps == 0 and not handed_off.converged
    assert residual(handed_off) <= np.sqrt(max(handed_off.energy - e0, 0.0) * (e_max - handed_off.energy)) + 1e-12
    # the finished state's E - E0, about res^2 / gap, lies below the oracle's own
    # rounding eps * ||H||_1 (bisection to that width), where the bound cannot be
    # resolved: the finished energy meets the oracle to that rounding, and the
    # residual itself is at rounding, below any bound the slack allowed
    assert abs(result.energy - e0) <= np.finfo(float).eps * e_max
    assert residual(result) < 1e-11
    # at the fixed point (iterating past the energy plateau) the residual
    # does reach the stated scale
    polished = ground_state_imaginary_time(HARMONIC, result.state, dtau=0.1, tol=0.0,
                                           max_iter=3000)
    assert polished.iterations == 3000
    assert residual(polished) < 1e-9


def test_ground_state_result_carries_its_residual_and_chemical_potential():
    # the residual is ||H phi - E phi|| of the residual tests above; mu is the public
    # chemical potential, here evaluated in float64 on the held H
    g = make_grid(-10, 10, 2001)
    result = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g, center=1.0), dtau=0.1, tol=1e-10)
    h_phi = apply_hamiltonian(HARMONIC, result.state).amplitudes
    res = np.sqrt(quadrature(g, np.abs(h_phi - result.energy * result.state.amplitudes) ** 2).real)
    assert result.residual == pytest.approx(res, rel=1e-8)
    assert result.chemical_potential == pytest.approx(chemical_potential(HARMONIC, result.state), rel=1e-12)
    condensate = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(20.0, 3))
    gp = ground_state_imaginary_time(condensate, gaussian_wavepacket(g), dtau=0.05, tol=1e-11)
    assert gp.chemical_potential == pytest.approx(chemical_potential(condensate, gp.state), rel=1e-12)
    assert gp.chemical_potential > gp.energy + 1e-3  # the full-weight mean field, not the energy's half
    h_full = apply_hamiltonian(condensate, gp.state).amplitudes
    gp_res = np.sqrt(quadrature(g, np.abs(h_full - gp.chemical_potential * gp.state.amplitudes) ** 2).real)
    assert gp.residual == pytest.approx(gp_res, rel=1e-8)


_LINEAR_AND_CONDENSATE = pytest.mark.parametrize(
    "cfg",
    [HARMONIC, HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(20.0, 3))],
    ids=["linear", "contact"],
)


def _with_vector_potential(cfg, grid):
    """cfg with a static vector potential A = 0.3 sin(x), which makes H complex."""
    return dataclasses.replace(cfg, a_vec=PotentialField.from_samples(0.3 * np.sin(grid.x)))


@_LINEAR_AND_CONDENSATE
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_a_phased_start_relaxes_to_the_real_paths_ground_state(cfg, boundary):
    # a real H relaxes |e^{i theta} psi0| in float64: the result is real, and
    # it is the state and energy the relaxation from psi0 reaches
    g = make_grid(-8, 8, 401, boundary)
    start = gaussian_wavepacket(g, center=0.5)
    phased = Wavefunction(g, np.exp(0.7j) * start.amplitudes)
    tol = 1e-11
    real = ground_state_imaginary_time(cfg, start, dtau=0.05, tol=tol)
    rotated = ground_state_imaginary_time(cfg, phased, dtau=0.05, tol=tol)
    assert real.converged and rotated.converged
    assert not real.state.amplitudes.imag.any()
    assert not rotated.state.amplitudes.imag.any()
    assert abs(rotated.energy - real.energy) < tol
    assert 1.0 - abs(inner_product(real.state, rotated.state)) ** 2 < 1e-9


@_LINEAR_AND_CONDENSATE
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("kind", ["moving", "random"])
def test_moving_and_random_starts_on_a_real_h_finish_certified(cfg, boundary, kind):
    # a real H relaxes |psi0|, which overlaps its non-negative ground state and has
    # no higher energy than psi0, so a start with phases or sign changes is
    # finished by Newton and certified like a resting one
    g = make_grid(-8, 8, 401, boundary)
    start = gaussian_wavepacket(g, center=0.5, wavenumber=1.0) if kind == "moving" else random_state(g, seed=7)
    result = ground_state_imaginary_time(cfg, start, dtau=0.05, tol=1e-11)
    assert result.converged and result.newton_steps > 0
    assert result.residual <= 1e-9 and result.certified is True
    modulus = energy(cfg, normalize(Wavefunction(g, np.abs(start.amplitudes))))
    assert result.energy_history[0] == pytest.approx(modulus, rel=1e-12)
    assert modulus <= energy(cfg, normalize(start))
    assert not result.state.amplitudes.imag.any() and not _changes_sign(result.state.amplitudes.real)


@settings(max_examples=30, deadline=None)
@given(
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    trap=st.sampled_from(sorted(_TRAPS)),
    g_contact=st.one_of(st.none(), st.floats(0.0, 50.0)),
    center=st.floats(-1.0, 1.0),
    width=st.floats(0.6, 1.6),
    seed=st.integers(0, 2**32 - 1),
    theta=st.floats(0.0, 2.0 * np.pi),
)
def test_a_start_relaxes_as_its_modulus_does(boundary, trap, g_contact, center, width, seed, theta):
    # |s x| = |x| exactly for a unit s in {1, -1, i, -i}, so amplitudes multiplied
    # by such units give the same run bit for bit; a general phase e^{i theta}
    # moves |psi0| by rounding, and the result within tol
    g = make_grid(-8, 8, 401, boundary)
    interaction = None if g_contact is None else TwoBodyInteraction.contact(g_contact, 2)
    cfg = HamiltonianConfig(v1=_TRAPS[trap](), interaction=interaction)
    start = gaussian_wavepacket(g, center, width)
    units = np.array([1.0, -1.0, 1j, -1j])[np.random.default_rng(seed).integers(0, 4, g.n_points)]
    tol = 1e-11
    base = ground_state_imaginary_time(cfg, start, dtau=0.05, tol=tol)
    flipped = ground_state_imaginary_time(cfg, Wavefunction(g, units * start.amplitudes), dtau=0.05, tol=tol)
    assert base.converged and flipped.iterations == base.iterations
    assert np.array_equal(flipped.energy_history, base.energy_history)
    assert np.array_equal(flipped.state.amplitudes, base.state.amplitudes)
    phased = ground_state_imaginary_time(cfg, Wavefunction(g, np.exp(1j * theta) * start.amplitudes), dtau=0.05, tol=tol)
    assert phased.converged and abs(phased.energy - base.energy) < tol
    assert 1.0 - abs(inner_product(base.state, phased.state)) ** 2 < 1e-9


@_LINEAR_AND_CONDENSATE
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_imaginary_time_picks_the_lapack_routines_by_dtype(monkeypatch, cfg, boundary):
    import waveaction.propagation as propagation

    prefixes = []

    def spy(names, arrays=()):
        funcs = get_lapack_funcs(names, arrays)
        prefixes.extend(f.typecode for f in funcs)
        return funcs

    monkeypatch.setattr(propagation, "get_lapack_funcs", spy)
    g = make_grid(-8, 8, 201, boundary)
    start = gaussian_wavepacket(g, center=0.5)
    # a real H iterates on |psi0| whatever the start's phases
    moving = gaussian_wavepacket(g, center=0.5, wavenumber=1.0)
    for psi0 in (start, Wavefunction(g, 1j * start.amplitudes), moving):
        ground_state_imaginary_time(cfg, psi0, dtau=0.05, tol=1e-10)
        assert prefixes and set(prefixes) == {"d"}
        prefixes.clear()
    ground_state_imaginary_time(_with_vector_potential(cfg, g), start, dtau=0.05, tol=1e-10)
    assert prefixes and set(prefixes) == {"z"}


class _RecordedRoutine:
    """A LAPACK routine that appends its name, such as dpttrf, to calls whenever it runs."""

    def __init__(self, func, name, calls):
        self.func, self.calls, self.typecode = func, calls, func.typecode
        self.name = func.typecode + name

    def __call__(self, *args, **kwargs):
        self.calls.append(self.name)
        return self.func(*args, **kwargs)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "case",
    ["linear", "repulsive", "complex-linear", "complex-repulsive", "kernel", "attractive", "indefinite"],
)
def test_imaginary_time_solves_by_ldlt_only_where_the_run_stays_positive_definite(monkeypatch, case, boundary):
    # on a real H every matrix the loop solves is factored: a linear run once,
    # by pttrf where 1 + dtau H is positive definite and by gttrf where it is
    # not, and a mean field of any sign or kind once per iteration; the Newton
    # steps keep gtsv for their indefinite Jacobian.  A complex H factors a
    # linear run by gttrf and solves each mean-field iteration by one gtsv
    import waveaction.propagation as propagation

    calls = []

    def spy(names, arrays=()):
        return [_RecordedRoutine(f, name, calls) for f, name in zip(get_lapack_funcs(names, arrays), names)]

    monkeypatch.setattr(propagation, "get_lapack_funcs", spy)
    g = make_grid(-8, 8, 201, boundary)
    start, dtau, max_iter = gaussian_wavepacket(g, center=0.5), 0.05, 10**6
    interaction = {
        "repulsive": TwoBodyInteraction.contact(20.0, 3),
        "complex-repulsive": TwoBodyInteraction.contact(20.0, 3),
        "kernel": _kernel_interaction(g),
        "attractive": TwoBodyInteraction.contact(-5.0, 2),
    }.get(case)
    v1 = PotentialField.harmonic()
    if case == "indefinite":
        # 1 + dtau H has a negative eigenvalue, about 1 + 0.5 (0.5 - 10); a few iterations show the routines
        v1, dtau, max_iter = PotentialField.from_samples(0.5 * g.x**2 - 10.0), 0.5, 5
    cfg = HamiltonianConfig(v1=v1, interaction=interaction)
    if case.startswith("complex"):
        cfg = _with_vector_potential(cfg, g)
    result = ground_state_imaginary_time(cfg, start, dtau=dtau, tol=1e-10, max_iter=max_iter)
    expected = {
        "linear": {"dpttrf", "dpttrs", "dgtsv"},
        "repulsive": {"dpttrf", "dpttrs", "dgtsv"},
        "complex-linear": {"zgttrf", "zgttrs"},
        "complex-repulsive": {"zgtsv"},
        "kernel": {"dpttrf", "dpttrs"},
        "attractive": {"dpttrf", "dpttrs", "dgtsv"},
        "indefinite": {"dpttrf", "dgttrf", "dgttrs"},  # and dgtsv if a Newton step comes within 5 iterations
    }[case]
    assert set(calls) - {"dgtsv"} == expected - {"dgtsv"}
    if case != "indefinite":
        assert set(calls) == expected
    # a converged run with c >= 0 on a real H is certified by one more pttrf, of H + U - mu + delta
    certified = case in ("linear", "repulsive") or None
    assert result.certified is certified
    certificate = certified is not None
    loop_iterations = result.iterations - result.newton_steps
    periodic = boundary == "periodic"  # each factoring solves for the wrap-link response once
    if case in ("repulsive", "kernel", "attractive"):  # one factoring per iteration
        assert calls.count("dpttrf") == loop_iterations + certificate
        assert calls.count("dpttrs") == (loop_iterations + certificate) * periodic + loop_iterations
    elif case in ("linear", "indefinite"):  # one factoring per run
        assert calls.count("dpttrf") == 1 + certificate
    if case == "linear":
        assert calls.count("dpttrs") == loop_iterations + periodic * (1 + certificate)


def _real_hamiltonian(cfg, grid):
    h = hamiltonian_matrix(cfg, grid)
    return TridiagonalHamiltonian(grid, h.diag.real.copy(), h.upper.real.copy(), h.lower.real.copy())


def _loop_alone(cfg, psi0, dtau, tol):
    """(amplitudes, energy history) of the damped imaginary-time loop with no Newton finish.

    A real H iterates in float64 from |psi0| and factors each iteration's
    matrix by a _CayleySolver of its own, as the library's loop does; a
    complex H solves each by gtsv, with the bits of the library's solver.
    """
    grid = psi0.grid
    h = hamiltonian_matrix(cfg, grid)
    amp = normalize(psi0).amplitudes
    real = not any(a.imag.any() for a in (h.diag, h.upper, h.lower))
    if real:
        h = _real_hamiltonian(cfg, grid)
        amp = np.abs(amp)
    history = [float(energies_of(cfg, h, amp))]
    while len(history) == 1 or abs(history[-1] - history[-2]) >= tol:
        h_now = h.plus_diagonal(mean_field_diagonal(cfg, grid, amp, 1.0))
        amp = _CayleySolver(h_now, dtau).solve(amp) if real else _solve_once(h_now, dtau, amp)
        amp = amp / norms(grid, amp)
        history.append(float(energies_of(cfg, h, amp)))
    return amp, history


def _kernel_interaction(grid):
    dist = grid.x[:, None] - grid.x[None, :]
    return TwoBodyInteraction.from_kernel(5.0 * np.exp(-(dist**2)), n_particles=2)


@pytest.mark.parametrize(
    "case",
    ["moving-linear", "moving-contact", "vector-potential", "kernel"],
)
def test_complex_and_kernel_paths_keep_the_loop(case):
    # no Newton finish: the result is the damped loop's, bit for bit
    g = make_grid(-6, 6, 161)
    start = gaussian_wavepacket(g, center=0.5)
    cfg = HARMONIC
    if case == "moving-contact":
        cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(20.0, 3))
    if case.startswith("moving"):  # a complex H with a complex start
        cfg, start = _with_vector_potential(cfg, g), gaussian_wavepacket(g, center=0.5, wavenumber=1.0)
    if case == "vector-potential":
        cfg = _with_vector_potential(cfg, g)
    if case == "kernel":
        cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=_kernel_interaction(g))
    result = ground_state_imaginary_time(cfg, start, dtau=0.05, tol=1e-11)
    amp, history = _loop_alone(cfg, start, 0.05, 1e-11)
    assert result.converged and result.newton_steps == 0
    assert result.iterations == len(history) - 1
    assert np.array_equal(result.energy_history, history)
    assert np.array_equal(result.state.amplitudes, amp.astype(complex))
    assert result.state.amplitudes.imag.any() == (case != "kernel")


def _first_hand_off(cfg, start, dtau, threshold):
    """(energy, Newton step, step's energy) at the loop state whose energy change first falls below threshold."""
    amp, history = _loop_alone(cfg, start, dtau, threshold)
    h = _real_hamiltonian(cfg, start.grid)
    step = _newton_step(cfg, h, amp)
    return history[-1], step, float(energies_of(cfg, h, step))


def _assert_finished(result):
    assert result.converged and result.newton_steps > 0
    assert result.residual <= 1e-9
    assert np.all(np.diff(result.energy_history) <= 0.0)


def _double_well_one_well_start():
    """A deep double well, split 1.6e-5 between its two lowest levels, and a start in its left well."""
    g = make_grid(-6, 6, 401)
    cfg = HamiltonianConfig(v1=PotentialField.from_samples((g.x**2 - 4.0) ** 2))
    return cfg, gaussian_wavepacket(g, center=-2.0, width=0.4)


def _count_sign_changes(monkeypatch):
    """A list that gets one True per Newton step the library's sign test rejects."""
    import waveaction.propagation as propagation

    rejected = []

    def spy(amp):
        changes = _changes_sign(amp)
        if changes:
            rejected.append(changes)
        return changes

    monkeypatch.setattr(propagation, "_changes_sign", spy)
    return rejected


def test_a_newton_step_with_a_sign_change_is_retried_after_the_loop_resumes(monkeypatch):
    # a state in one well is nearly an even mixture of the two lowest levels,
    # so a Newton step from it can head for the antisymmetric one, whose sign
    # change rejects it; the loop resumes, and a re-armed hand-off finishes at
    # the ground state
    cfg, start = _double_well_one_well_start()
    e0, e1 = dense_ground_energy(start.grid, cfg.v1.evaluate(start.grid), n_states=2)
    rejected = _count_sign_changes(monkeypatch)
    result = ground_state_imaginary_time(cfg, start, dtau=1.0, tol=1e-10)
    assert rejected
    _assert_finished(result)
    assert abs(result.energy - e0) < 1e-10 < e1 - e0
    assert not _changes_sign(result.state.amplitudes.real)


def test_a_newton_step_that_raises_the_energy_is_retried_after_the_loop_resumes():
    # an attractive condensate in a weak trap relaxes slowly, so consecutive
    # energies fall below the hand-off change while the state is still about
    # 2e-3 above the ground energy; the Newton step from there overshoots and
    # raises the energy, and a re-armed hand-off, nearer the minimum, finishes
    g = make_grid(-8, 8, 401)
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(0.5), interaction=TwoBodyInteraction.contact(-5.0, 2))
    start = gaussian_wavepacket(g, center=-1.0, width=1.6)
    e_hand_off, step, e_step = _first_hand_off(cfg, start, 0.05, _ATTRACTIVE_HANDOFF_ENERGY_CHANGE)
    assert e_step > e_hand_off and not _changes_sign(step)
    result = ground_state_imaginary_time(cfg, start, dtau=0.05, tol=1e-11)
    _assert_finished(result)


def test_with_tol_zero_the_re_armed_hand_off_runs_max_iter_iterations(monkeypatch):
    # tol = 0 never converges: each finish ends on a rejected step (some on
    # the sign changes above) or on its budget, and the loop resumes and
    # hands off again at a tenth of the last threshold.  Cut one step into the
    # last finish of the tol = 1e-10 run, the finish's budget ends the run
    # before loop steps at the fixed point move the energy by rounding, so
    # the history is non-increasing
    cfg, start = _double_well_one_well_start()
    finished = ground_state_imaginary_time(cfg, start, dtau=1.0, tol=1e-10)
    assert finished.newton_steps > 1
    rejected = _count_sign_changes(monkeypatch)
    cut = ground_state_imaginary_time(cfg, start, dtau=1.0, tol=0.0, max_iter=finished.iterations - 1)
    assert rejected
    long = ground_state_imaginary_time(cfg, start, dtau=1.0, tol=0.0, max_iter=400)
    for result, max_iter in ((cut, finished.iterations - 1), (long, 400)):
        assert not result.converged and result.newton_steps > 0
        assert result.iterations == max_iter == len(result.energy_history) - 1
    assert np.all(np.diff(cut.energy_history) <= 0.0)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_a_linear_newton_step_is_one_shifted_inverse_iteration_step(boundary):
    g = make_grid(-8, 8, 401, boundary)
    h = hamiltonian_matrix(HARMONIC, g)
    h = TridiagonalHamiltonian(g, h.diag.real, h.upper.real, h.lower.real)
    amp = normalize(gaussian_wavepacket(g, center=0.5, width=1.2)).amplitudes.real
    mu = quadrature(g, amp * h.matvec(amp))
    x = _solve_once(h.plus_diagonal(-mu - 1.0), 1.0, amp)  # (H - mu)^-1 phi
    x = x / norms(g, x)
    step = _newton_step(HARMONIC, h, amp)
    # the Newton step keeps phi's orientation; inverse iteration's sign is mu's
    np.testing.assert_allclose(step, np.sign(quadrature(g, amp * x)) * x, rtol=0, atol=1e-12)


def _newton_step_by_two_solves(cfg, h, amp):
    """_newton_step with its Jacobian factored again for each right-hand side."""
    grid = h.grid
    u = mean_field_diagonal(cfg, grid, amp, 1.0)
    h_amp = h.plus_diagonal(u).matvec(amp)
    mu = quadrature(grid, amp * h_amp)
    jacobian = h.plus_diagonal(-mu - 1.0 if u is None else 3.0 * u - mu - 1.0)
    a = _solve_once(jacobian, 1.0, h_amp - mu * amp)
    b = _solve_once(jacobian, 1.0, amp)
    step = amp - a + (quadrature(grid, amp * a) / quadrature(grid, amp * b)) * b
    return step / norms(grid, step)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@_LINEAR_AND_CONDENSATE
def test_a_newton_step_factors_its_jacobian_once_and_keeps_every_bit(boundary, cfg):
    g = make_grid(-8, 8, 401, boundary)
    h = _real_hamiltonian(cfg, g)
    amp = normalize(gaussian_wavepacket(g, center=0.5, width=1.2)).amplitudes.real.copy()
    np.testing.assert_array_equal(_newton_step(cfg, h, amp), _newton_step_by_two_solves(cfg, h, amp))


def test_the_sign_rule_tolerates_rounding_tails():
    g = make_grid(-8, 8, 401)
    amp = normalize(gaussian_wavepacket(g, width=0.8)).amplitudes.real
    peak = amp.max()
    tails = amp.copy()
    tails[1], tails[-2] = -6e-48, -2e-63  # tails seen on finished condensates
    assert (tails < 0).any() and not _changes_sign(tails)
    assert not _changes_sign(-tails)  # the overall sign is free
    partly_converged = amp.copy()
    partly_converged[1] = -3e-11 * peak  # a Newton iterate on its way, in a box's tail
    assert not _changes_sign(partly_converged)
    above = amp.copy()
    above[1] = -1e-7 * peak
    assert _changes_sign(above)
    assert _changes_sign(amp * np.sign(g.x))  # the first excited state's shape


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    trap=st.sampled_from(sorted(_TRAPS)),
    strength=st.floats(0.5, 2.0),
    g_contact=st.one_of(st.none(), st.floats(-5.0, 1000.0)),
    center=st.floats(-1.0, 1.0),
    width=st.floats(0.6, 1.6),
)
@example(boundary="periodic", trap="quartic", strength=2.0, g_contact=1000.0, center=1.0, width=0.6)
@example(boundary="dirichlet", trap="harmonic", strength=1.0, g_contact=-5.0, center=-1.0, width=1.6)
@example(boundary="dirichlet", trap="harmonic", strength=0.5, g_contact=-5.0, center=-1.0, width=1.6)
# its first Newton step leaves a tail of -2.6e-11 of the peak near the wall
@example(boundary="dirichlet", trap="harmonic", strength=1.73, g_contact=150.38, center=-0.1, width=1.48)
def test_finished_ground_states_are_eigenstates(boundary, trap, strength, g_contact, center, width):
    g = make_grid(-8, 8, 401, boundary)
    v1 = _TRAPS[trap](strength)
    interaction = None if g_contact is None else TwoBodyInteraction.contact(g_contact, 2)
    cfg = HamiltonianConfig(v1=v1, interaction=interaction)
    result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g, center, width), dtau=0.05, tol=1e-11)
    assert result.converged and result.newton_steps > 0
    assert result.residual <= 1e-9
    assert np.all(np.diff(result.energy_history) <= 0.0)
    assert not result.state.amplitudes.imag.any() and not _changes_sign(result.state.amplitudes.real)
    if interaction is None:
        assert abs(result.energy - dense_ground_energy(g, v1.evaluate(g))[0]) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    depth=st.floats(0.3, 2.0),
    half_separation=st.floats(1.0, 2.0),
    dtau=st.sampled_from([0.05, 0.2]),
    g_contact=st.one_of(st.floats(-8.0, -0.5), st.floats(0.5, 200.0)),
    center=st.one_of(st.floats(-2.0, -0.02), st.floats(0.02, 2.0)),
    width=st.floats(0.4, 1.2),
)
# an attractive condensate started near the barrier: handed off at an energy
# change of 1e-2, Newton finishes at the symmetric stationary state, positive
# and 0.69 above the loop's minimum in one well
@example(boundary="periodic", depth=1.57, half_separation=1.02, dtau=0.05, g_contact=-4.7, center=-0.08, width=1.13)
# a repulsive condensate that the first finish leaves self-trapped in the left well, at residual 1.09e-5
# and 0.27 above the ground energy: the certificate fails and the restarted run finishes at the ground state
@example(boundary="dirichlet", depth=2.0, half_separation=2.0, dtau=0.05, g_contact=1.0, center=-1.0, width=0.5)
def test_double_well_condensates_finish_at_the_loops_minimum(
    boundary, depth, half_separation, dtau, g_contact, center, width
):
    # with c < 0 a positive stationary state need not be the ground state, so
    # an early hand-off could finish above the minimum the loop alone reaches
    g = make_grid(-6, 6, 401, boundary)
    v = PotentialField.from_samples(depth * (g.x**2 - half_separation**2) ** 2)
    cfg = HamiltonianConfig(v1=v, interaction=TwoBodyInteraction.contact(g_contact, 2))
    start = gaussian_wavepacket(g, center, width)
    result = ground_state_imaginary_time(cfg, start, dtau=dtau, tol=1e-11)
    assert result.converged and result.residual <= 1e-9
    _, history = _loop_alone(cfg, start, dtau, 1e-13)
    assert result.energy <= history[-1] + 1e-9


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_an_attractive_double_well_keeps_the_general_solves_bit_for_bit(boundary):
    # with c < 0, 1 + dtau (H + c phi^2) can be indefinite, and each iteration's
    # solver then falls back to LU: the result is the loop alone up to the
    # hand-off, then the Newton finish
    g = make_grid(-6, 6, 401, boundary)
    v = PotentialField.from_samples((g.x**2 - 1.5**2) ** 2)
    cfg = HamiltonianConfig(v1=v, interaction=TwoBodyInteraction.contact(-7.0, 2))
    start = gaussian_wavepacket(g, -0.5, 0.8)
    result = ground_state_imaginary_time(cfg, start, dtau=0.2, tol=1e-11)
    amp, history = _loop_alone(cfg, start, 0.2, _ATTRACTIVE_HANDOFF_ENERGY_CHANGE)
    amp, steps, converged = _newton_finish(cfg, _real_hamiltonian(cfg, g), amp, history, 1e-11, 10**6)
    assert converged and result.converged and result.newton_steps == steps > 0
    assert result.iterations == len(history) - 1
    assert np.array_equal(result.energy_history, history)
    assert np.array_equal(result.state.amplitudes, amp.astype(complex))


def test_repulsive_condensate_in_a_deep_double_well_finishes_at_its_ground_state():
    # a draw within the ranges of test_double_well_condensates_finish_at_the_loops_minimum: the
    # first finish stops self-trapped in the left well (mu is the second eigenvalue of its own
    # H + c phi^2), fails the certificate, and the run restarts once from the mixture with the lowest mode
    g = make_grid(-6, 6, 401)
    v = PotentialField.from_samples(2.0 * (g.x**2 - 4.0) ** 2)
    cfg = HamiltonianConfig(v1=v, interaction=TwoBodyInteraction.contact(1.0, 2))
    result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g, -1.0, 0.5), dtau=0.05, tol=1e-11)
    assert result.converged and result.certified and result.residual <= 1e-9
    amp = result.state.amplitudes.real
    assert not _changes_sign(amp)
    # c >= 0 and an even V: the ground density is unique, hence even, so each well holds half the norm
    assert abs(quadrature(g, np.where(g.x < 0.0, amp**2, 0.0)) - 0.5) <= 1e-3


@settings(max_examples=40, deadline=None)
@given(
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    depth=st.floats(1.0, 2.0),
    half_separation=st.floats(1.5, 2.0),
    g_contact=st.floats(0.2, 5.0),
    center=st.one_of(st.floats(-2.0, -0.3), st.floats(0.3, 2.0)),
    width=st.floats(0.3, 1.0),
)
def test_repulsive_double_well_ground_states_are_certified_and_split_evenly(
    boundary, depth, half_separation, g_contact, center, width
):
    # a start in one deep well can finish self-trapped there; a certified result cannot
    g = make_grid(-6, 6, 401, boundary)
    v = PotentialField.from_samples(depth * (g.x**2 - half_separation**2) ** 2)
    cfg = HamiltonianConfig(v1=v, interaction=TwoBodyInteraction.contact(g_contact, 2))
    result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g, center, width), dtau=0.05, tol=1e-11)
    assert result.converged and result.certified and result.residual <= 1e-9
    # c >= 0 and an even V on a grid mapped onto itself by x -> -x: the ground density is even
    amp = result.state.amplitudes.real
    assert abs(quadrature(g, np.sign(g.x) * amp**2)) <= 2e-3


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 120),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(-50.0, 50.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    offset=st.floats(-1.0, 1.0),
    residual=st.sampled_from([0.0, 1e-6, 0.5]),
)
def test_the_certificate_holds_exactly_where_mu_less_its_residual_is_below_the_spectrum(
    n, seed, v_scale, boundary, offset, residual
):
    g = make_grid(-5.0, 5.0, n, boundary)
    rng = np.random.default_rng(seed)
    h = _real_hamiltonian(HamiltonianConfig(v1=PotentialField.from_samples(v_scale * rng.uniform(0.0, 1.0, n))), g)
    m = dense_shifted_matrix(h, 1.0).real - np.eye(n)
    if boundary == "dirichlet":
        m = m[1:-1, 1:-1]
    lowest = np.linalg.eigvalsh(m)[0]
    mu = lowest + offset
    assume(abs(lowest - mu + residual) > 1e-9 * np.abs(m).max())  # rounding decides a nearly singular shift
    assert _lowest_eigenvalue_is(h, mu, residual) == (lowest > mu - residual)


def test_imaginary_time_agrees_with_variational_route():
    # the two ground-state routes must agree on shared cases
    from waveaction import gaussian_family, rayleigh_ritz_minimize

    g = make_grid(-10, 10, 1501)
    imag = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g), dtau=0.1, tol=1e-12)
    ritz = rayleigh_ritz_minimize(HARMONIC, gaussian_family(), [0.0, 1.0], grid=g)
    assert ritz.energy == pytest.approx(imag.energy, abs=1e-7)


# ---------------------------------------------------------------------------
# The factored solver: dense and banded oracles, and the factor-once paths
# ---------------------------------------------------------------------------


def _random_config(grid, seed, v_scale, a_scale):
    """Non-negative random potential and a smooth vector potential with a constant part."""
    rng = np.random.default_rng(seed)
    length = grid.x_max - grid.x_min
    mode = rng.integers(0, 4)
    a = a_scale * (rng.uniform(0.2, 1.0) + np.sin(2.0 * np.pi * mode * grid.x / length + rng.uniform(0, 6)))
    cfg = HamiltonianConfig(
        v1=PotentialField.from_samples(v_scale * rng.uniform(0.0, 1.0, grid.n_points)),
        a_vec=PotentialField.from_samples(a),
    )
    rhs = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
    return cfg, rhs


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(0.0, 100.0),
    a_scale=st.floats(0.1, 3.0),
    dt=st.floats(1e-4, 1.0),
)
def test_periodic_factored_solve_matches_dense(n, seed, v_scale, a_scale, dt):
    # Sherman-Morrison over the wrap link against the full cyclic matrix, for a
    # Cayley (imaginary) scale and an imaginary-time (real) scale
    g = make_grid(-5.0, 5.0, n, "periodic")
    cfg, rhs = _random_config(g, seed, v_scale, a_scale)
    h = hamiltonian_matrix(cfg, g)
    assert h.lower[-1] != np.conj(h.lower[-1])  # complex, non-symmetric wrap link
    for scale in (1j * dt / 2.0, dt):
        x = _CayleySolver(h, scale).solve(rhs)
        ref = np.linalg.solve(dense_shifted_matrix(h, scale), rhs)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(-50.0, 100.0),
    a_scale=st.floats(0.0, 3.0),
    dt=st.floats(1e-4, 1.0),
)
def test_dirichlet_factored_solve_equals_solve_banded(n, seed, v_scale, a_scale, dt):
    g = make_grid(-5.0, 5.0, n)
    cfg, rhs = _random_config(g, seed, v_scale, a_scale)
    h = hamiltonian_matrix(cfg, g)
    for scale in (1j * dt / 2.0, dt):
        x = _CayleySolver(h, scale).solve(rhs)
        np.testing.assert_array_equal(x, banded_shift_solve(h, scale, rhs))


def test_periodic_solve_with_zero_leading_diagonal():
    # dx = 1, s = 1 and V[0] = -2 make (1 + s H)[0, 0] exactly zero, the case
    # where the usual Sherman-Morrison shift -d[0] cannot be used
    g = make_grid(0.0, 8.0, 8, "periodic")
    v = np.zeros(8)
    v[0] = -2.0
    h = hamiltonian_matrix(HamiltonianConfig(v1=PotentialField.from_samples(v)), g)
    dense = dense_shifted_matrix(h, 1.0)
    assert dense[0, 0] == 0
    rhs = np.arange(1.0, 9.0) + 0.5j
    ref = np.linalg.solve(dense, rhs)
    x = _CayleySolver(h, 1.0).solve(rhs)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(0.0, 100.0),
    a_scale=st.floats(0.1, 3.0),
    g_scale=st.floats(0.0, 50.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dt=st.floats(1e-4, 1.0),
)
def test_single_use_solve_equals_the_factored_solve(n, seed, v_scale, a_scale, g_scale, boundary, dt):
    # zgtsv against zgttrf + zgttrs (u as a second right-hand side on periodic
    # grids), with A != 0 and a mean-field diagonal, for a Cayley (imaginary)
    # and an imaginary-time (real) scale; also with the link bands formed
    # beforehand, from H without its mean field, as a static run forms them
    # once, and left as they were by the solve
    g = make_grid(-5.0, 5.0, n, boundary)
    cfg, rhs = _random_config(g, seed, v_scale, a_scale)
    mean_field = g_scale * np.abs(random_state(g, seed).amplitudes) ** 2
    h = hamiltonian_matrix(cfg, g).plus_diagonal(mean_field)
    block = np.stack((rhs, rhs[::-1].conj()), axis=1)
    for scale in (1j * dt / 2.0, dt):
        links = _link_bands(hamiltonian_matrix(cfg, g), scale)
        kept = [band.copy() for band in links[:2]]
        for formed in (None, links):
            np.testing.assert_array_equal(_solve_once(h, scale, rhs, formed), _CayleySolver(h, scale).solve(rhs))
            # a block of right-hand sides, solved by the one call, column by column
            solved = _solve_once(h, scale, block, formed)
            for j in range(block.shape[1]):
                np.testing.assert_array_equal(solved[:, j], _CayleySolver(h, scale).solve(block[:, j]))
        for band, copy in zip(links[:2], kept):
            np.testing.assert_array_equal(band, copy)


def _hermitian_stand_in(rows, boundary, seed, kinetic, v_scale):
    """A random Hermitian H whose system 1 + s H has `rows` rows: a sampled V and complex links.

    Its grid is a stand-in with only n_points and is_periodic, so that
    systems smaller than the smallest grid can be drawn too.
    """
    rng = np.random.default_rng(seed)
    periodic = boundary == "periodic"
    n = rows if periodic else rows + 2
    n_links = n if periodic else n - 1
    lower = -kinetic * rng.uniform(0.5, 1.5, n_links) * np.exp(1j * rng.uniform(-np.pi, np.pi, n_links))
    diag = 2.0 * kinetic + v_scale * rng.uniform(0.0, 1.0, n)
    return TridiagonalHamiltonian(SimpleNamespace(n_points=n, is_periodic=periodic), diag, np.conj(lower), lower)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.one_of(st.integers(2, 64), st.just(_REDUCTION_ROWS + 1)),
    threshold=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
    kinetic=st.floats(0.1, 500.0),
    v_scale=st.floats(0.0, 100.0),
    tau=st.floats(1e-4, 1.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
)
def test_odd_even_reduction_matches_the_pivoted_solve_of_the_same_bands(
    rows, threshold, seed, kinetic, v_scale, tau, boundary
):
    # the bands of 1 + i tau H (B on periodic grids), reduced level by level
    # while more than `threshold` rows are left (the module's own threshold
    # for the size above it), against one pivoted gtsv of the full bands;
    # the right-hand side is one vector, or the periodic block [rhs, u]
    h = _hermitian_stand_in(rows, boundary, seed, kinetic, v_scale)
    scale = 1j * tau
    dl, d, du, u, _ = _shifted_bands(h, scale)
    assert len(d) == rows
    rng = np.random.default_rng(seed + 1)
    rhs = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    b = rhs if u is None else np.stack((rhs, u))
    (gtsv,) = get_lapack_funcs(("gtsv",), (d,))
    reference = gtsv(dl.copy(), d.copy(), du.copy(), b.T.copy())[3].T
    if rows > _REDUCTION_ROWS:
        threshold = _REDUCTION_ROWS
    with mock.patch("waveaction.propagation._REDUCTION_ROWS", threshold):
        r_dl, r_d, r_du, levels = _odd_even_reduction(dl, d, du, scale)
        assert not _odd_even_reduction(dl, d, du, tau)[3]  # a real scale is never reduced
    assert len(levels) == max(0, math.ceil(math.log2(rows / threshold)))
    assert len(r_d) <= max(threshold, rows) and len(r_dl) == len(r_du) == len(r_d) - 1

    def solve(c):
        return gtsv(r_dl.copy(), r_d.copy(), r_du.copy(), c.T)[3].T

    x = _reduced_solve(levels, b.copy(), solve)
    assert np.linalg.norm(x - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_reduced_real_time_steps_match_the_unreduced_solve(boundary, driven):
    # n = 4001 is above the threshold: the factored (static) and single-use
    # (driven) Cayley steps with A != 0 run through one level of odd-even
    # reduction, against the same step by one gtsv call on the full bands
    g = make_grid(-5.0, 5.0, 4001, boundary)
    cfg, _ = _random_config(g, 7, 20.0, 1.0)
    if driven:
        cfg = HamiltonianConfig(v1=PotentialField.from_callable(_driven), a_vec=cfg.a_vec)
    psi, t, dt = random_state(g, 7), 0.3, 1e-3
    scale = 1j * dt / 2.0
    h = hamiltonian_at(cfg, g)(t + dt / 2.0)
    assert len(_odd_even_reduction(*_shifted_bands(h, scale)[:3], scale)[3]) == 1
    stepped = step_crank_nicolson(cfg, psi, t, dt).amplitudes
    with mock.patch("waveaction.propagation._REDUCTION_ROWS", g.n_points):
        reference = 2.0 * _solve_once(h, scale, psi.amplitudes) - psi.amplitudes
    assert not np.array_equal(stepped, reference)  # the reduction rounds apart
    assert np.linalg.norm(stepped - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_zero_coupling_gp_step_equals_linear_step_through_the_reduction(boundary, driven):
    # criterion 7a above the threshold: both steppers reduce the same bands,
    # and gtsv equals gttrf + gttrs on the reduced system too
    g = make_grid(-5.0, 5.0, 4001, boundary)
    linear, _ = _random_config(g, 11, 20.0, 1.0)
    if driven:
        linear = HamiltonianConfig(v1=PotentialField.from_callable(_driven), a_vec=linear.a_vec)
    gp = HamiltonianConfig(v1=linear.v1, a_vec=linear.a_vec, interaction=TwoBodyInteraction.contact(0.0, 3))
    psi = random_state(g, 11)
    np.testing.assert_array_equal(
        step_gp(gp, psi, 0.2, 1e-3).amplitudes, step_crank_nicolson(linear, psi, 0.2, 1e-3).amplitudes
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(-50.0, 100.0),
    g_scale=st.floats(0.0, 50.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dtau=st.floats(1e-4, 1.0),
)
# a nearly singular periodic system (condition number 3.4e5): the two paths differ by 1.7e-13
@example(n=159, seed=19564, v_scale=-6.03125, g_scale=1.84375, boundary="periodic", dtau=0.599609375)
def test_real_solves_run_in_float64_and_match_the_complex_solve(n, seed, v_scale, g_scale, boundary, dtau):
    # a real H (no vector potential) with a mean-field diagonal, a real scale
    # and a real right-hand side: dgtsv and dgttrf + dgttrs against the same
    # system held in complex128
    g = make_grid(-5.0, 5.0, n, boundary)
    rng = np.random.default_rng(seed)
    cfg = HamiltonianConfig(v1=PotentialField.from_samples(v_scale * rng.uniform(0.0, 1.0, n)))
    mean_field = g_scale * rng.uniform(0.0, 1.0, n)
    h = hamiltonian_matrix(cfg, g).plus_diagonal(mean_field)
    real_h = TridiagonalHamiltonian(g, h.diag.real.copy(), h.upper.real.copy(), h.lower.real.copy())
    rhs = rng.standard_normal(n)
    reference = _solve_once(h, dtau, rhs.astype(complex))
    assert not reference.imag.any()
    solver = _CayleySolver(real_h, dtau)
    once, factored = _solve_once(real_h, dtau, rhs), solver.solve(rhs)
    assert once.dtype == factored.dtype == np.float64
    m = dense_shifted_matrix(real_h, dtau)
    if boundary == "dirichlet":
        m = m[1:-1, 1:-1]
    # the complex Sherman-Morrison division multiplies by the reciprocal, and
    # LDL^T factors round apart from the pivoted LU, so such pairs differ
    # like a forward error, by a gap that grows with the condition number:
    # the bound is 1e-13 up to a condition number of 1e3 (the worst of 6000
    # random periodic solves reached 0.19 of it)
    bound = max(1e-13, 1e-16 * np.linalg.cond(m))
    if solver.definite:  # pttrf + pttrs against the pivoted dgtsv
        assert np.linalg.norm(factored - once) / np.linalg.norm(once) <= bound
    else:  # dgttrf + dgttrs, the same elimination as dgtsv
        np.testing.assert_array_equal(once, factored)
    if boundary == "dirichlet":
        np.testing.assert_array_equal(once, reference.real)
    else:
        assert np.linalg.norm(once - reference.real) / np.linalg.norm(reference) <= bound


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(0.0, 100.0),
    g_scale=st.floats(0.0, 50.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dtau=st.floats(1e-4, 1.0),
)
def test_ldlt_solves_match_the_general_solve(n, seed, v_scale, g_scale, boundary, dtau):
    # V >= 0 and a mean-field diagonal >= 0 keep 1 + dtau H positive definite:
    # the LDL^T solve (pttrf + pttrs) leaves rhs and the formed links alone
    # and matches the pivoted gtsv solve within the rounding bound of the test above
    g = make_grid(-5.0, 5.0, n, boundary)
    rng = np.random.default_rng(seed)
    cfg = HamiltonianConfig(v1=PotentialField.from_samples(v_scale * rng.uniform(0.0, 1.0, n)))
    h = _real_hamiltonian(cfg, g).plus_diagonal(g_scale * rng.uniform(0.0, 1.0, n))
    rhs = rng.standard_normal(n)
    links = _link_bands(h, dtau)
    kept = rhs.copy(), links[0].copy(), links[1].copy()
    solver = _CayleySolver(h, dtau, links)
    assert solver.definite
    factored = solver.solve(rhs)
    for array, copy in zip((rhs, *links[:2]), kept):
        np.testing.assert_array_equal(array, copy)
    assert factored.dtype == np.float64 and not np.shares_memory(factored, rhs)
    reference = _solve_once(h, dtau, rhs)
    m = dense_shifted_matrix(h, dtau)
    if boundary == "dirichlet":
        assert factored[0] == factored[-1] == 0.0
        m = m[1:-1, 1:-1]
    gap = np.linalg.norm(factored - reference) / np.linalg.norm(reference)
    assert gap <= max(1e-13, 1e-16 * np.linalg.cond(m))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 120),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(-50.0, 50.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dtau=st.floats(1e-3, 1.0),
)
# B = A + u u^T / |gamma| is positive definite, A is not: the Sherman-Morrison denominator decides
@example(n=21, seed=2715849496, v_scale=-11.886246759595643, boundary="periodic", dtau=0.10642269776980816)
def test_ldlt_factors_exactly_where_the_matrix_is_positive_definite(n, seed, v_scale, boundary, dtau):
    g = make_grid(-5.0, 5.0, n, boundary)
    rng = np.random.default_rng(seed)
    h = _real_hamiltonian(HamiltonianConfig(v1=PotentialField.from_samples(v_scale * rng.uniform(0.0, 1.0, n))), g)
    m = dense_shifted_matrix(h, dtau).real
    if boundary == "dirichlet":
        m = m[1:-1, 1:-1]
    lowest = np.linalg.eigvalsh(m)[0]
    assume(abs(lowest) > 1e-9 * np.abs(m).max())  # rounding decides a nearly singular matrix
    solver = _CayleySolver(h, dtau)
    assert solver.definite == (lowest > 0)
    # either branch solves the system, the pivoted LU one on bands formed again
    rhs = rng.standard_normal(n)
    x = solver.solve(rhs)
    if boundary == "dirichlet":
        assert x[0] == x[-1] == 0.0
        x, rhs = x[1:-1], rhs[1:-1]
    reference = np.linalg.solve(m, rhs)
    gap = np.linalg.norm(x - reference) / np.linalg.norm(reference)
    assert gap <= max(1e-13, 1e-16 * np.linalg.cond(m))


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("rhs_dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("real_system", [False, True], ids=["cayley", "imaginary-time"])
@pytest.mark.parametrize("solver", ["factored", "once"])
def test_solves_leave_their_right_hand_side_alone(boundary, rhs_dtype, real_system, solver):
    # each solve runs in place in its own copy of rhs; on a Dirichlet grid the
    # copy's endpoints are zeroed, whatever rhs holds there
    g = make_grid(-5.0, 5.0, 41, boundary)
    rng = np.random.default_rng(3)
    if real_system:
        cfg = HamiltonianConfig(v1=PotentialField.harmonic())
        h = hamiltonian_matrix(cfg, g)
        h, scale = TridiagonalHamiltonian(g, h.diag.real.copy(), h.upper.real.copy(), h.lower.real.copy()), 0.05
    else:
        cfg, _ = _random_config(g, 3, 10.0, 1.0)
        h, scale = hamiltonian_matrix(cfg, g), 0.05j
    rhs = rng.standard_normal(g.n_points).astype(rhs_dtype)
    if rhs_dtype is np.complex128:
        rhs += 1j * rng.standard_normal(g.n_points)
    assert rhs[0] != 0 and rhs[-1] != 0 and rhs.flags.writeable
    kept = rhs.copy()
    out = _CayleySolver(h, scale).solve(rhs) if solver == "factored" else _solve_once(h, scale, rhs)
    np.testing.assert_array_equal(rhs, kept)
    assert not np.shares_memory(out, rhs)
    assert out.dtype == np.result_type(h.diag, rhs)
    m = dense_shifted_matrix(h, scale)
    if boundary == "dirichlet":
        assert out[0] == 0 and out[-1] == 0
        ref = np.zeros(g.n_points, dtype=complex)
        ref[1:-1] = np.linalg.solve(m[1:-1, 1:-1], rhs[1:-1])
    else:
        ref = np.linalg.solve(m, rhs)
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def _driven(x, t):
    return 0.5 * x**2 + 0.4 * x * np.sin(3.0 * t)


_CONTACT = TwoBodyInteraction.contact(30.0, 3)
# (boundary, config, plan, time of the initial state)
_STEPPING_CASES = {
    "cn-dirichlet-static": ("dirichlet", HARMONIC, PropagationPlan(dt=2e-3, n_steps=12, record_stride=3), 0.0),
    "cn-dirichlet-driven": (
        "dirichlet",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        PropagationPlan(dt=2e-3, n_steps=12, record_stride=3),
        0.3,
    ),
    "cn-periodic-static": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.harmonic(), a_vec=PotentialField.from_samples(np.full(257, 0.4))),
        PropagationPlan(dt=2e-3, n_steps=12, record_stride=3),
        0.0,
    ),
    "cn-periodic-driven": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        PropagationPlan(dt=2e-3, n_steps=12, record_stride=3),
        0.3,
    ),
    "split-static": ("periodic", HARMONIC, PropagationPlan(dt=2e-3, n_steps=12, scheme="split-operator"), 0.0),
    "split-driven": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        PropagationPlan(dt=2e-3, n_steps=12, scheme="split-operator"),
        0.3,
    ),
    "gp-dirichlet-static": (
        "dirichlet",
        HamiltonianConfig(v1=PotentialField.harmonic(), interaction=_CONTACT),
        PropagationPlan(dt=2e-3, n_steps=12, record_stride=4),
        0.0,
    ),
    "gp-periodic-driven": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven), interaction=_CONTACT),
        PropagationPlan(dt=2e-3, n_steps=12),
        0.3,
    ),
}


@pytest.mark.parametrize("case", sorted(_STEPPING_CASES))
def test_propagate_equals_a_loop_of_single_steps(case):
    # propagate factors (or builds phases) once for a static H and reassembles
    # at every midpoint for a driven one; either way it must reproduce the
    # public one-step functions bit for bit, starting at the initial state's
    # time t0 and recording the state after step k at t0 + k dt.  A mean-field
    # run carries its relaxed density from step to step, which no single step
    # can, so it is compared with the dense relaxation steps instead
    boundary, cfg, plan, t0 = _STEPPING_CASES[case]
    g = make_grid(-8.0, 8.0, 257, boundary)
    psi0 = dataclasses.replace(gaussian_wavepacket(g, center=0.5, width=0.8, wavenumber=1.0), time=t0)
    traj = propagate(cfg, psi0, plan)
    if cfg.interaction is not None:
        states = dense_relaxation_steps(cfg, psi0, plan.dt, plan.n_steps)
    else:
        step = step_split_operator if plan.scheme == "split-operator" else step_crank_nicolson
        states, psi = [], psi0
        for k in range(plan.n_steps):
            psi = step(cfg, psi, t0 + k * plan.dt, plan.dt)
            states.append(psi.amplitudes)
    expected = [psi0.amplitudes] + states[plan.record_stride - 1 :: plan.record_stride]
    assert traj.times.tolist() == [t0 + k * plan.dt for k in range(0, plan.n_steps + 1, plan.record_stride)]
    assert len(traj.amplitudes) == len(expected)
    for row, amp in zip(traj.amplitudes, expected):
        if cfg.interaction is None:
            np.testing.assert_array_equal(row, amp)
        else:
            assert np.linalg.norm(row - amp) <= 1e-12 * np.linalg.norm(amp)


@pytest.mark.parametrize(
    "boundary, scheme, interaction, per_step",
    [
        ("dirichlet", "crank-nicolson", None, 1),
        ("periodic", "split-operator", None, 1),
        ("dirichlet", "crank-nicolson", _CONTACT, 1),  # one relaxation step
    ],
)
def test_driven_propagation_reassembles_at_every_midpoint(boundary, scheme, interaction, per_step):
    g = make_grid(-8.0, 8.0, 129, boundary)
    seen = []

    def potential(x, t):
        seen.append(t)
        return _driven(x, t)

    cfg = HamiltonianConfig(v1=PotentialField.from_callable(potential), interaction=interaction)
    plan = PropagationPlan(dt=1e-2, n_steps=5, scheme=scheme)
    propagate(cfg, dataclasses.replace(gaussian_wavepacket(g), time=0.25), plan)
    starts = [0.25] + [0.25 + k * plan.dt for k in range(1, plan.n_steps)]
    assert seen == [t + plan.dt / 2.0 for t in starts for _ in range(per_step)]


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize(
    "cfg",
    [
        HARMONIC,
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        HamiltonianConfig(v1=PotentialField.harmonic(), interaction=_CONTACT),
    ],
    ids=["cn-static", "cn-driven", "gp"],
)
def test_implicit_steps_make_no_matvec(monkeypatch, boundary, cfg):
    # every implicit step is a solve for the midpoint state and a reflection through it
    calls = []
    matvec = TridiagonalHamiltonian.matvec

    def counted(self, amp):
        calls.append(amp.shape)
        return matvec(self, amp)

    monkeypatch.setattr(TridiagonalHamiltonian, "matvec", counted)
    g = make_grid(-8.0, 8.0, 129, boundary)
    traj = propagate(cfg, gaussian_wavepacket(g, center=0.5, wavenumber=1.0), PropagationPlan(dt=1e-2, n_steps=5))
    assert len(traj.times) == 6
    assert calls == []


def test_singular_pivot_raises_linalg_error():
    # dx = 1, dtau = 1 and V = -1.5 make 1 + dtau H = tridiag(-1/2, 1/2, -1/2)
    # on the 8 interior points, whose determinant vanishes exactly
    g = make_grid(0.0, 9.0, 10)
    cfg = HamiltonianConfig(v1=PotentialField.from_samples(np.full(10, -1.5)))
    psi = Wavefunction(g, np.sin(np.pi * g.x / 9.0))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        banded_shift_solve(hamiltonian_matrix(cfg, g), 1.0, psi.amplitudes)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        ground_state_imaginary_time(cfg, psi, dtau=1.0)


def test_single_use_solve_names_the_zero_pivot_row():
    # the system above: zgtsv reports the zero pivot in the row zgttrf names,
    # also on the mean-field imaginary-time path, which solves each H once
    g = make_grid(0.0, 9.0, 10)
    cfg = HamiltonianConfig(v1=PotentialField.from_samples(np.full(10, -1.5)))
    h = hamiltonian_matrix(cfg, g)
    psi = Wavefunction(g, np.sin(np.pi * g.x / 9.0))
    with pytest.raises(np.linalg.LinAlgError) as factored:
        _CayleySolver(h, 1.0)
    message = str(factored.value)
    assert "zero pivot in row 8 of 1 + s H" in message
    with pytest.raises(np.linalg.LinAlgError) as once:
        _solve_once(h, 1.0, psi.amplitudes)
    assert str(once.value) == message
    mean_field = HamiltonianConfig(v1=cfg.v1, interaction=TwoBodyInteraction.contact(0.0, 2))
    with pytest.raises(np.linalg.LinAlgError, match="zero pivot in row 8 "):
        ground_state_imaginary_time(mean_field, psi, dtau=1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda psi: PropagationPlan(dt=1e-3, n_steps=10, record_stride=0), "record_stride must be at least 1"),
        (lambda psi: step_gp(HARMONIC, psi, 0.0, 1e-3), "step_gp requires a configured interaction"),
        (lambda psi: ground_state_imaginary_time(HARMONIC, psi, dtau=0.0), "dtau must be positive and finite"),
        (lambda psi: ground_state_imaginary_time(HARMONIC, psi, dtau=-0.1), "dtau must be positive and finite"),
        (lambda psi: ground_state_imaginary_time(HARMONIC, psi, dtau=np.nan), "dtau must be positive and finite"),
        # zero iterations would return the start state as an unconverged result
        (lambda psi: ground_state_imaginary_time(HARMONIC, psi, max_iter=0), "max_iter must be at least 1"),
        (lambda psi: ground_state_imaginary_time(HARMONIC, psi, max_iter=-3), "max_iter must be at least 1"),
    ],
    ids=[
        "zero-record-stride",
        "gp-without-interaction",
        "zero-dtau",
        "negative-dtau",
        "nan-dtau",
        "max-iter-0",
        "max-iter-negative",
    ],
)
def test_steppers_and_plans_reject_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(gaussian_wavepacket(make_grid(-5, 5, 64)))


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("cfg", [HARMONIC, HamiltonianConfig(interaction=TwoBodyInteraction.contact(2.0, 3))])
def test_recorded_rows_are_the_states_the_observers_received(stride, cfg):
    psi0 = gaussian_wavepacket(make_grid(-6, 6, 97), center=0.5, width=0.7, wavenumber=1.0)
    seen = {}

    def keep(step, t, psi):
        seen[step] = psi

    traj = propagate(cfg, psi0, PropagationPlan(dt=2e-3, n_steps=12, record_stride=stride), [keep])
    states = [psi0] + [seen[k] for k in range(stride, 13, stride)]
    assert traj.times.tolist() == [psi.time for psi in states]
    assert traj.amplitudes.tobytes() == b"".join(psi.amplitudes.tobytes() for psi in states)


_RECORDING_SCHEMES = {
    "cn-static": (HARMONIC, "crank-nicolson"),
    "cn-driven": (HamiltonianConfig(v1=PotentialField.from_callable(_driven)), "crank-nicolson"),
    "gp": (HamiltonianConfig(v1=PotentialField.harmonic(), interaction=_CONTACT), "crank-nicolson"),
    "split-operator": (HARMONIC, "split-operator"),
}


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(sorted(_RECORDING_SCHEMES)),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    stride=st.integers(1, 4),
    n_records=st.integers(1, 6),
    n_points=st.integers(16, 90),
    start=st.tuples(st.floats(-1.0, 1.0), st.floats(0.4, 1.2), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
)
def test_record_array_is_the_stack_of_the_observed_states(scheme, boundary, stride, n_records, n_points, start):
    # propagate writes each recorded state once into its row of one array;
    # that array, taken as it is, must equal bit for bit copies of the states
    # the observers received, taken when they received them, and each
    # recorded state an observer saw is a read-only view of its row
    cfg, method = _RECORDING_SCHEMES[scheme]
    if method == "split-operator" and boundary == "dirichlet":
        boundary = "periodic"  # the scheme's own rule
    center, width, wavenumber, t0 = start
    psi0 = dataclasses.replace(
        gaussian_wavepacket(make_grid(-6, 6, n_points, boundary), center, width, wavenumber), time=t0
    )
    plan = PropagationPlan(dt=2e-3, n_steps=stride * (n_records - 1), scheme=method, record_stride=stride)
    seen, copies = {}, {}

    def keep(step, t, psi):
        assert not psi.amplitudes.flags.writeable
        seen[step], copies[step] = psi, (t, psi.amplitudes.copy())

    traj = propagate(cfg, psi0, plan, [keep])
    recorded = range(stride, plan.n_steps + 1, stride)
    assert traj.times.tolist() == [t0] + [copies[k][0] for k in recorded]
    expected = np.stack([psi0.amplitudes] + [copies[k][1] for k in recorded])
    assert traj.amplitudes.tobytes() == expected.tobytes()
    assert not traj.amplitudes.flags.writeable and not traj.times.flags.writeable
    for row, k in enumerate(recorded, start=1):
        assert np.shares_memory(seen[k].amplitudes, traj.amplitudes[row])
    for k in set(seen) - set(recorded):
        assert not np.shares_memory(seen[k].amplitudes, traj.amplitudes)


def _loop_with_a_wavefunction_per_step(cfg, psi0, plan):
    """(times, amplitudes, stepped arrays) of propagate's loop when it wrapped every state in a Wavefunction."""
    if plan.scheme == "split-operator":
        advance = _split_stepper(cfg, psi0.grid, plan.dt)
    elif cfg.interaction is not None:
        advance = _gp_stepper(cfg, psi0.grid, plan.dt)
    else:
        advance = _cn_stepper(cfg, psi0.grid, plan.dt)
    psi, times, rows, stepped = psi0, [psi0.time], [psi0.amplitudes], []
    for k in range(1, plan.n_steps + 1):
        amp = advance(psi.amplitudes, psi.time)
        stepped.append(amp.copy())
        psi = Wavefunction(psi0.grid, amp, psi0.time + k * plan.dt)
        if k % plan.record_stride == 0:
            times.append(psi.time)
            rows.append(psi.amplitudes)
    return times, np.stack(rows), stepped


def _einsum_drift(psi):
    parts = psi.amplitudes.view(np.float64)
    return abs(np.sqrt(psi.grid.dx * np.einsum("i,i", parts, parts)) - 1.0)


@settings(max_examples=40, deadline=None)
@given(
    scheme=st.sampled_from(sorted(_RECORDING_SCHEMES)),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    stride=st.integers(1, 4),
    n_records=st.integers(1, 6),
    n_points=st.integers(16, 90),
    start=st.tuples(st.floats(-1.0, 1.0), st.floats(0.4, 1.2), st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
)
def test_the_loop_keeps_every_bit_and_measures_the_drift_of_every_step(
    scheme, boundary, stride, n_records, n_points, start
):
    # observers or none, propagate returns the states of the loop that built a
    # Wavefunction per step, bit for bit; every stepper leaves Dirichlet
    # endpoints at +0.0, which the norm sqrt(dx s) relies on; and norm_drift
    # is the largest einsum-based drift of every step, recorded or not
    cfg, method = _RECORDING_SCHEMES[scheme]
    if method == "split-operator" and boundary == "dirichlet":
        boundary = "periodic"  # the scheme's own rule
    center, width, wavenumber, t0 = start
    psi0 = dataclasses.replace(
        gaussian_wavepacket(make_grid(-6, 6, n_points, boundary), center, width, wavenumber), time=t0
    )
    plan = PropagationPlan(dt=2e-3, n_steps=stride * (n_records - 1), scheme=method, record_stride=stride)
    einsum_drifts, quadrature_drifts = [], []

    def measure(step, t, psi):
        einsum_drifts.append(_einsum_drift(psi))
        quadrature_drifts.append(abs(float(norms(psi.grid, psi.amplitudes)) - 1.0))

    plain = propagate(cfg, psi0, plan)
    observed = propagate(cfg, psi0, plan, [measure])
    times, amplitudes, stepped = _loop_with_a_wavefunction_per_step(cfg, psi0, plan)
    assert plain.times.tolist() == observed.times.tolist() == times
    assert plain.amplitudes.tobytes() == observed.amplitudes.tobytes() == amplitudes.tobytes()
    if boundary == "dirichlet":
        for amp in stepped:
            assert not amp.view(np.uint64)[[0, 1, -2, -1]].any()
    assert len(einsum_drifts) == plan.n_steps
    drift = max(einsum_drifts, default=0.0)
    assert np.float64(plain.norm_drift).tobytes() == np.float64(observed.norm_drift).tobytes()
    assert np.float64(plain.norm_drift).tobytes() == np.float64(drift).tobytes()
    assert abs(plain.norm_drift - max(quadrature_drifts, default=0.0)) <= 1e-14


def test_a_trajectory_built_from_given_states_has_no_norm_drift():
    psi = gaussian_wavepacket(make_grid(-5, 5, 64))
    assert Trajectory(psi.grid, [0.0], psi.amplitudes[None]).norm_drift is None
    assert propagate(HARMONIC, psi, PropagationPlan(dt=1e-3, n_steps=0)).norm_drift == 0.0


def _put_into_step(monkeypatch, bad_step, value):
    """Make the bad_step-th Cayley step put value into amplitude 7 of its new state."""
    import waveaction.propagation as propagation

    through_midpoint, calls = propagation._through_midpoint, []

    def failing(x, amp):
        calls.append(None)
        out = through_midpoint(x, amp)
        if len(calls) == bad_step:
            out[7] = value
        return out

    monkeypatch.setattr(propagation, "_through_midpoint", failing)


@pytest.mark.parametrize("bad_step", [2, 3], ids=["recorded", "unrecorded"])
@pytest.mark.parametrize(
    "value", [np.nan, complex(np.inf, 0.0), complex(0.0, -np.inf)], ids=["nan", "real-inf", "imaginary-inf"]
)
def test_a_non_finite_step_is_named_before_the_observers_see_it(monkeypatch, bad_step, value):
    _put_into_step(monkeypatch, bad_step, value)
    seen = []
    psi0 = gaussian_wavepacket(make_grid(-5, 5, 64))
    plan = PropagationPlan(dt=1e-3, n_steps=4, record_stride=2)
    with pytest.raises(RuntimeError, match=f"^step {bad_step} .*amplitudes must be finite"):
        propagate(HARMONIC, psi0, plan, [lambda k, t, psi: seen.append(k)])
    assert seen == list(range(1, bad_step))


def test_a_finite_state_whose_squares_overflow_is_kept_and_its_drift_reads_inf(monkeypatch):
    # the one reduction overflows, the exact scan finds every amplitude finite
    _put_into_step(monkeypatch, 2, 1e300)
    psi0 = gaussian_wavepacket(make_grid(-5, 5, 64))
    traj = propagate(HARMONIC, psi0, PropagationPlan(dt=1e-3, n_steps=4, record_stride=2))
    assert np.isfinite(traj.amplitudes.view(np.float64)).all()
    assert traj.norm_drift == np.inf


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("driven", [False, True], ids=["static", "driven"])
def test_a_static_mean_field_run_forms_its_link_bands_once(monkeypatch, boundary, driven):
    # the one solve of every step changes only the diagonal of a static H,
    # so its scaled links are formed once per run; a driven H forms them at
    # every solve.  Counted, not timed.
    import waveaction.propagation as propagation

    calls = []

    def counted(h, scale):
        calls.append(scale)
        return _link_bands(h, scale)

    monkeypatch.setattr(propagation, "_link_bands", counted)
    v1 = PotentialField.from_callable(_driven) if driven else PotentialField.harmonic()
    cfg = HamiltonianConfig(v1=v1, interaction=_CONTACT)
    psi0 = gaussian_wavepacket(make_grid(-6, 6, 97, boundary), center=0.5, wavenumber=1.0)
    propagate(cfg, psi0, PropagationPlan(dt=2e-3, n_steps=6, record_stride=3))
    assert calls == [1j * 2e-3 / 2.0] * (6 if driven else 1)


def test_a_mean_field_relaxation_forms_its_link_bands_once(monkeypatch):
    # every iteration solves the static H plus a new mean field; a kernel
    # interaction keeps the loop alone, so no Newton solve forms bands of its own
    import waveaction.propagation as propagation

    calls = []

    def counted(h, scale):
        calls.append(scale)
        return _link_bands(h, scale)

    monkeypatch.setattr(propagation, "_link_bands", counted)
    g = make_grid(-6, 6, 161)
    cfg = HamiltonianConfig(v1=PotentialField.harmonic(), interaction=_kernel_interaction(g))
    result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g, center=0.5), dtau=0.05, tol=1e-11)
    assert result.iterations > 1
    assert calls == [0.05]


@pytest.mark.parametrize("bad_step", [2, 3], ids=["recorded", "unrecorded"])
def test_a_non_finite_step_names_its_step_whether_recorded_or_not(monkeypatch, bad_step):
    # a recorded state is checked in its row of the record array, an
    # unrecorded one in its own copy; either way step k is named
    solve, calls = _CayleySolver.solve, []

    def failing(self, rhs):
        calls.append(None)
        out = solve(self, rhs)
        if len(calls) == bad_step:
            out[7] = np.nan
        return out

    monkeypatch.setattr(_CayleySolver, "solve", failing)
    psi0 = gaussian_wavepacket(make_grid(-5, 5, 64))
    with pytest.raises(RuntimeError, match=f"^step {bad_step} .*amplitudes must be finite"):
        propagate(HARMONIC, psi0, PropagationPlan(dt=1e-3, n_steps=4, record_stride=2))


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
@pytest.mark.parametrize("bad_step", [2, 3], ids=["recorded", "unrecorded"])
def test_a_nan_through_the_reduced_solve_names_its_step(monkeypatch, boundary, bad_step):
    # n = 4001 solves through one level of odd-even reduction; a NaN put
    # into the right-hand side of step k reaches the state through it
    solve, calls = _CayleySolver.solve, []

    def failing(self, rhs):
        calls.append(None)
        if len(calls) == bad_step:
            rhs = rhs.copy()
            rhs[7] = np.nan
        return solve(self, rhs)

    monkeypatch.setattr(_CayleySolver, "solve", failing)
    psi0 = gaussian_wavepacket(make_grid(-5, 5, 4001, boundary))
    with pytest.raises(RuntimeError, match=f"^step {bad_step} .*amplitudes must be finite"):
        propagate(HARMONIC, psi0, PropagationPlan(dt=1e-3, n_steps=4, record_stride=2))


def test_propagate_at_stride_1_holds_about_one_trajectory_of_memory():
    # the setting of scenarios/verify_harmonic.json: each recorded state is
    # written once into the record array, which becomes the trajectory's
    # amplitudes, so no second (T, N) array doubles the peak.  numpy reports
    # its buffers to tracemalloc, so the measure does not depend on the machine.
    import tracemalloc

    psi0 = gaussian_wavepacket(make_grid(-10.0, 10.0, 1001), width=0.7071067811865476)
    plan = PropagationPlan(dt=1e-3, n_steps=400)
    tracemalloc.start()
    try:
        traj = propagate(HARMONIC, psi0, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.amplitudes.shape == (401, 1001)
    assert peak <= 1.10 * traj.amplitudes.nbytes, peak / traj.amplitudes.nbytes
