"""Crank-Nicolson stepping, mean-field stepping, imaginary-time relaxation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
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

from waveaction.hamiltonian import TridiagonalHamiltonian, hamiltonian_matrix
from waveaction.propagation import _CayleySolver, _largest_prime_factor, _solve_once

from helpers import (
    banded_shift_solve,
    dense_ground_energy,
    dense_shifted_matrix,
    random_state,
    richardson_order,
)

HARMONIC = HamiltonianConfig(v1=PotentialField.harmonic())


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
    drift = abs(energy(HARMONIC, psi, 10_000 * dt) - e0) / abs(e0)
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
            energies.append(energy(cfg, psi, t))
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
    increases = np.diff(result.energy_history)
    assert np.all(increases < 1e-12)
    assert abs(result.energy_history[-1] - result.energy_history[-2]) < 1e-11


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


@pytest.mark.xfail(
    strict=True,
    reason="the energy-difference stopping rule leaves an eigenvector error of order "
    "sqrt(tol/gap), so the equation residual is ~sqrt(tol*gap) >> 10*tol for any "
    "tol << gap; the companion test pins the attainable bounds",
)
def test_eigenstate_residual_within_ten_tol():
    g = make_grid(-10, 10, 2001)
    result = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g, center=1.0),
                                         dtau=0.1, tol=1e-10)
    h_phi = apply_hamiltonian(HARMONIC, result.state).amplitudes
    res = np.sqrt(quadrature(g, np.abs(h_phi - result.energy * result.state.amplitudes) ** 2).real)
    assert res < 10 * 1e-10


def test_eigenstate_residual_verified_bounds():
    g = make_grid(-10, 10, 2001)
    result = ground_state_imaginary_time(HARMONIC, gaussian_wavepacket(g, center=1.0),
                                         dtau=0.1, tol=1e-10)
    h_phi = apply_hamiltonian(HARMONIC, result.state).amplitudes
    res = np.sqrt(quadrature(g, np.abs(h_phi - result.energy * result.state.amplitudes) ** 2).real)
    # Bhatia-Davis: Var(H) <= (E - E0)(Emax - E); Emax via Gershgorin
    e0 = dense_ground_energy(g, HARMONIC.v1.evaluate(g))[0]
    e_max = 2.0 / g.dx**2 + HARMONIC.v1.evaluate(g).max()
    assert res <= np.sqrt(max(result.energy - e0, 0.0) * (e_max - result.energy)) + 1e-12
    # at the fixed point (iterating past the energy plateau) the residual
    # does reach the stated scale
    polished = ground_state_imaginary_time(HARMONIC, result.state, dtau=0.1, tol=0.0,
                                           max_iter=3000)
    h_phi = apply_hamiltonian(HARMONIC, polished.state).amplitudes
    res_floor = np.sqrt(
        quadrature(g, np.abs(h_phi - polished.energy * polished.state.amplitudes) ** 2).real
    )
    assert res_floor < 1e-9


def test_ground_state_result_carries_its_residual_and_chemical_potential():
    # the residual is the strict xfail's ||H phi - E phi||; mu is the public
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
    h_full = apply_hamiltonian(condensate, gp.state, mean_field_source=gp.state).amplitudes
    gp_res = np.sqrt(quadrature(g, np.abs(h_full - gp.chemical_potential * gp.state.amplitudes) ** 2).real)
    assert gp.residual == pytest.approx(gp_res, rel=1e-8)


_LINEAR_AND_CONDENSATE = pytest.mark.parametrize(
    "cfg",
    [HARMONIC, HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(20.0, 3))],
    ids=["linear", "contact"],
)


@_LINEAR_AND_CONDENSATE
@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_a_phased_start_relaxes_to_the_real_paths_ground_state(cfg, boundary):
    # e^{i theta} psi0 keeps the iteration complex; it must reach the state
    # and energy the float64 iteration reaches from psi0
    g = make_grid(-8, 8, 401, boundary)
    start = gaussian_wavepacket(g, center=0.5)
    phased = Wavefunction(g, np.exp(0.7j) * start.amplitudes)
    tol = 1e-11
    real = ground_state_imaginary_time(cfg, start, dtau=0.05, tol=tol)
    rotated = ground_state_imaginary_time(cfg, phased, dtau=0.05, tol=tol)
    assert real.converged and rotated.converged
    assert not real.state.amplitudes.imag.any()
    assert rotated.state.amplitudes.imag.any()
    assert abs(rotated.energy - real.energy) < tol
    assert 1.0 - abs(inner_product(real.state, rotated.state)) ** 2 < 1e-9


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
    ground_state_imaginary_time(cfg, start, dtau=0.05, tol=1e-10)
    assert prefixes and set(prefixes) == {"d"}
    prefixes.clear()
    ground_state_imaginary_time(cfg, Wavefunction(g, 1j * start.amplitudes), dtau=0.05, tol=1e-10)
    assert prefixes and set(prefixes) == {"z"}


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
    # and an imaginary-time (real) scale
    g = make_grid(-5.0, 5.0, n, boundary)
    cfg, rhs = _random_config(g, seed, v_scale, a_scale)
    mean_field = g_scale * np.abs(random_state(g, seed).amplitudes) ** 2
    h = hamiltonian_matrix(cfg, g).plus_diagonal(mean_field)
    for scale in (1j * dt / 2.0, dt):
        np.testing.assert_array_equal(_solve_once(h, scale, rhs), _CayleySolver(h, scale).solve(rhs))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(8, 300),
    seed=st.integers(0, 2**32 - 1),
    v_scale=st.floats(-50.0, 100.0),
    g_scale=st.floats(0.0, 50.0),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dtau=st.floats(1e-4, 1.0),
)
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
    once, factored = _solve_once(real_h, dtau, rhs), _CayleySolver(real_h, dtau).solve(rhs)
    np.testing.assert_array_equal(once, factored)
    for x in (once, factored):
        assert x.dtype == np.float64
        if boundary == "dirichlet":
            np.testing.assert_array_equal(x, reference.real)
        else:
            # the complex Sherman-Morrison division multiplies by the reciprocal
            assert np.linalg.norm(x - reference.real) <= 1e-13 * np.linalg.norm(reference)


def _driven(x, t):
    return 0.5 * x**2 + 0.4 * x * np.sin(3.0 * t)


_CONTACT = TwoBodyInteraction.contact(30.0, 3)
_STEPPING_CASES = {
    "cn-dirichlet-static": ("dirichlet", HARMONIC, PropagationPlan(dt=2e-3, n_steps=12, record_stride=3)),
    "cn-dirichlet-driven": (
        "dirichlet",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        PropagationPlan(dt=2e-3, n_steps=12, t_start=0.3, record_stride=3),
    ),
    "cn-periodic-static": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.harmonic(), a_vec=PotentialField.from_samples(np.full(257, 0.4))),
        PropagationPlan(dt=2e-3, n_steps=12, record_stride=3),
    ),
    "cn-periodic-driven": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        PropagationPlan(dt=2e-3, n_steps=12, t_start=0.3, record_stride=3),
    ),
    "split-static": ("periodic", HARMONIC, PropagationPlan(dt=2e-3, n_steps=12, scheme="split-operator")),
    "split-driven": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven)),
        PropagationPlan(dt=2e-3, n_steps=12, t_start=0.3, scheme="split-operator"),
    ),
    "gp-predictor-corrector": (
        "dirichlet",
        HamiltonianConfig(v1=PotentialField.harmonic(), interaction=_CONTACT),
        PropagationPlan(dt=2e-3, n_steps=12, record_stride=4),
    ),
    "gp-periodic-driven": (
        "periodic",
        HamiltonianConfig(v1=PotentialField.from_callable(_driven), interaction=_CONTACT),
        PropagationPlan(dt=2e-3, n_steps=12, t_start=0.3),
    ),
}


@pytest.mark.parametrize("case", sorted(_STEPPING_CASES))
def test_propagate_equals_a_loop_of_single_steps(case):
    # propagate factors (or builds phases) once for a static H and reassembles
    # at every midpoint for a driven one; either way it must reproduce the
    # public one-step functions bit for bit
    boundary, cfg, plan = _STEPPING_CASES[case]
    g = make_grid(-8.0, 8.0, 257, boundary)
    psi0 = gaussian_wavepacket(g, center=0.5, width=0.8, wavenumber=1.0)
    if cfg.interaction is not None:
        step = lambda psi, t: step_gp(cfg, psi, t, plan.dt)
    elif plan.scheme == "split-operator":
        step = lambda psi, t: step_split_operator(cfg, psi, t, plan.dt)
    else:
        step = lambda psi, t: step_crank_nicolson(cfg, psi, t, plan.dt)
    traj = propagate(cfg, psi0, plan)
    psi, t = psi0, plan.t_start
    expected = [psi0.amplitudes]
    for k in range(1, plan.n_steps + 1):
        psi = step(psi, t)
        t = plan.t_start + k * plan.dt
        if k % plan.record_stride == 0:
            expected.append(psi.amplitudes)
    assert len(traj.amplitudes) == len(expected)
    for row, amp in zip(traj.amplitudes, expected):
        np.testing.assert_array_equal(row, amp)


@pytest.mark.parametrize(
    "boundary, scheme, interaction, per_step",
    [
        ("dirichlet", "crank-nicolson", None, 1),
        ("periodic", "split-operator", None, 1),
        ("dirichlet", "crank-nicolson", _CONTACT, 2),  # predictor and corrector
    ],
)
def test_driven_propagation_reassembles_at_every_midpoint(boundary, scheme, interaction, per_step):
    g = make_grid(-8.0, 8.0, 129, boundary)
    seen = []

    def potential(x, t):
        seen.append(t)
        return _driven(x, t)

    cfg = HamiltonianConfig(v1=PotentialField.from_callable(potential), interaction=interaction)
    plan = PropagationPlan(dt=1e-2, n_steps=5, t_start=0.25, scheme=scheme)
    propagate(cfg, gaussian_wavepacket(g), plan)
    starts = [plan.t_start] + [plan.t_start + k * plan.dt for k in range(1, plan.n_steps)]
    assert seen == [t + plan.dt / 2.0 for t in starts for _ in range(per_step)]


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
