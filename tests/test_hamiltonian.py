"""Hamiltonian assembly: mechanical momentum, mean field, energies."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveaction import (
    HamiltonianConfig,
    PhysicalConstants,
    PotentialField,
    TwoBodyInteraction,
    Wavefunction,
    apply_hamiltonian,
    apply_mechanical_momentum,
    chemical_potential,
    energy,
    gaussian_wavepacket,
    ground_state_imaginary_time,
    inner_product,
    make_grid,
    normalize,
    plane_wave,
    quadrature,
)
from waveaction.grids import commensurate_wavenumber
from waveaction.hamiltonian import energies_of, hamiltonian_matrix

from helpers import dense_momentum_matrix, random_state

HARMONIC = HamiltonianConfig(v1=PotentialField.harmonic())
FREE = HamiltonianConfig()


def test_constants_validation():
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalConstants(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(charge=np.inf)


def test_potential_kinds_evaluate():
    g = make_grid(-2, 2, 33)
    assert np.all(PotentialField.free().evaluate(g) == 0)
    np.testing.assert_allclose(
        PotentialField.harmonic(omega=2.0).evaluate(g), 2.0 * g.x**2
    )
    np.testing.assert_allclose(PotentialField.quartic().evaluate(g), g.x**4)
    box = PotentialField.box(height=5.0, half_width=1.0).evaluate(g)
    assert box[0] == 5.0 and box[len(box) // 2] == 0.0
    with pytest.raises(ValueError, match="grid has"):
        PotentialField.from_samples(np.zeros(10)).evaluate(g)


def test_harmonic_rejects_an_omega_whose_square_overflows():
    # omega**2 on a Python float raises OverflowError, so reject at construction
    with pytest.raises(ValueError, match="overflows"):
        PotentialField.harmonic(1e200)
    with pytest.raises(ValueError, match="overflows"):
        PotentialField.harmonic(-1e155)
    g = make_grid(-2, 2, 33)
    assert np.all(np.isfinite(PotentialField.harmonic(1e150).evaluate(g)))


def test_kernel_symmetry_required():
    with pytest.raises(ValueError, match="symmetric"):
        TwoBodyInteraction.from_kernel([[0.0, 1.0], [2.0, 0.0]], n_particles=3)
    with pytest.raises(ValueError, match="at least 1"):
        TwoBodyInteraction.contact(1.0, 0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_kernel_must_be_finite(bad):
    kernel = np.zeros((64, 64))
    kernel[3, 5] = kernel[5, 3] = bad
    with pytest.raises(ValueError, match="must be finite"):
        TwoBodyInteraction.from_kernel(kernel, 2)
    with pytest.raises(ValueError, match="must be finite"):
        TwoBodyInteraction.from_kernel(np.full((64, 64), bad), 2)


def test_callable_potential_must_be_real():
    g = make_grid(-2, 2, 33)
    complex_field = PotentialField.from_callable(lambda x, t: x**2 + 0.1j * x)
    with pytest.raises(ValueError, match="complex values"):
        complex_field.evaluate(g)
    real_field = PotentialField.from_callable(lambda x, t: (x**2).astype(complex).real)
    np.testing.assert_array_equal(real_field.evaluate(g), g.x**2)


def test_mechanical_momentum_plane_wave_no_field():
    g = make_grid(0, 2 * np.pi, 64, "periodic")
    k = commensurate_wavenumber(g, 4)
    psi = plane_wave(g, 4)
    expected = (np.sin(k * g.dx) / g.dx) * psi.amplitudes  # hbar = 1
    got = apply_mechanical_momentum(FREE, psi).amplitudes
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_mechanical_momentum_constant_field_shift():
    g = make_grid(0, 2 * np.pi, 64, "periodic")
    a0 = 0.37
    cfg = HamiltonianConfig(a_vec=PotentialField.from_samples(np.full(64, a0)))
    k = commensurate_wavenumber(g, 4)
    psi = plane_wave(g, 4)
    expected = (np.sin(k * g.dx) / g.dx - a0) * psi.amplitudes  # q = hbar = 1
    np.testing.assert_allclose(apply_mechanical_momentum(cfg, psi).amplitudes, expected, atol=1e-13)


@pytest.mark.parametrize("boundary", ["dirichlet", "periodic"])
def test_mechanical_momentum_matches_dense_oracle(boundary):
    g = make_grid(0, 1, 16, boundary)
    a = np.cos(3.0 * g.x) + 0.5
    cfg = HamiltonianConfig(a_vec=PotentialField.from_samples(a))
    psi = random_state(g, seed=7, smooth=False)
    oracle = dense_momentum_matrix(g, a) @ psi.amplitudes
    got = apply_mechanical_momentum(cfg, psi).amplitudes
    np.testing.assert_allclose(got, oracle, atol=1e-13)


def test_apply_hamiltonian_free_particle_stencil_eigenvalue():
    g = make_grid(0, 2 * np.pi, 64, "periodic")
    k = commensurate_wavenumber(g, 3)
    psi = plane_wave(g, 3)
    k_eff_sq = (2 - 2 * np.cos(k * g.dx)) / g.dx**2
    expected = 0.5 * k_eff_sq * psi.amplitudes  # hbar = m = 1
    np.testing.assert_allclose(apply_hamiltonian(FREE, psi).amplitudes, expected, atol=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="stated pointwise tolerance 1e-4 is below the order-2 stencil floor: "
    "the sup error of H psi0 - E0 psi0 at dx=0.05 is (dx^2/8) psi0(0) = 2.35e-4; "
    "see the companion test for the verified bound and convergence order",
)
def test_apply_hamiltonian_oscillator_ground_state_1e4():
    g = make_grid(-10, 10, 401)  # dx = 0.05
    psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
    got = apply_hamiltonian(HARMONIC, psi).amplitudes
    assert np.max(np.abs(got - 0.5 * psi.amplitudes)[1:-1]) < 1e-4


def test_apply_hamiltonian_oscillator_ground_state_verified_bound():
    # sup error is (dx^2/8) psi(0) + O(dx^4), attained at the origin
    sups = []
    for n in (401, 801):
        g = make_grid(-10, 10, n)
        psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
        got = apply_hamiltonian(HARMONIC, psi).amplitudes
        sups.append(np.max(np.abs(got - 0.5 * psi.amplitudes)[1:-1]))
    predicted = (0.05**2 / 8.0) * np.pi**-0.25
    assert sups[0] == pytest.approx(predicted, rel=0.02)
    assert sups[0] / sups[1] == pytest.approx(4.0, abs=0.2)


def test_apply_hamiltonian_contact_mean_field_elementwise_oracle():
    g = make_grid(-10, 10, 257)
    psi = gaussian_wavepacket(g, width=1.0)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(),
        interaction=TwoBodyInteraction.contact(1.0, 100),
    )
    linear = apply_hamiltonian(HARMONIC, psi).amplitudes
    got = apply_hamiltonian(cfg, psi, mean_field_source=psi).amplitudes
    oracle = linear + 99.0 * 1.0 * np.abs(psi.amplitudes) ** 2 * psi.amplitudes
    np.testing.assert_allclose(got, oracle, atol=1e-13)


def test_apply_hamiltonian_requires_mean_field_source():
    g = make_grid(-5, 5, 64)
    cfg = HamiltonianConfig(interaction=TwoBodyInteraction.contact(1.0, 3))
    with pytest.raises(ValueError, match="mean-field source"):
        apply_hamiltonian(cfg, gaussian_wavepacket(g))


def test_mean_field_single_particle_vanishes():
    g = make_grid(-5, 5, 64)
    phi = gaussian_wavepacket(g)
    from waveaction import mean_field_potential

    u = mean_field_potential(TwoBodyInteraction.contact(7.0, 1), phi)
    assert np.all(u.evaluate(g) == 0.0)


def test_mean_field_contact_arithmetic():
    from waveaction import mean_field_potential

    g = make_grid(-5, 5, 64)
    phi = gaussian_wavepacket(g, width=1.0)
    u = mean_field_potential(TwoBodyInteraction.contact(2.0, 3), phi)
    rho = np.abs(phi.amplitudes) ** 2
    np.testing.assert_allclose(u.evaluate(g), 2.0 * 2.0 * rho, atol=1e-15)


def test_mean_field_kernel_matches_double_loop_oracle():
    from waveaction import mean_field_potential

    g = make_grid(-4, 4, 65)
    phi = gaussian_wavepacket(g, width=0.8)
    kernel = np.exp(-((g.x[:, None] - g.x[None, :]) ** 2))
    inter = TwoBodyInteraction.from_kernel(kernel, n_particles=4)
    got = mean_field_potential(inter, phi).evaluate(g)
    rho = np.abs(phi.amplitudes) ** 2
    oracle = np.zeros(g.n_points)
    for i in range(g.n_points):
        acc = 0.0
        for j in range(g.n_points):
            acc += kernel[i, j] * rho[j] * g.weights[j]
        oracle[i] = 3.0 * acc
    np.testing.assert_allclose(got, oracle, atol=1e-12)


def test_mean_field_warns_on_unnormalized_source():
    from waveaction import mean_field_potential

    g = make_grid(-5, 5, 64)
    phi = gaussian_wavepacket(g)
    loud = Wavefunction(g, 1.5 * phi.amplitudes)
    with pytest.warns(RuntimeWarning, match="norm"):
        mean_field_potential(TwoBodyInteraction.contact(1.0, 2), loud)


@pytest.mark.xfail(
    strict=True,
    reason="stated 1e-6 is below the order-2 energy floor at n=2001: the discrete "
    "ground energy is 0.5 - dx^2/32 = 0.5 - 3.125e-6; companion test passes at n=6001",
)
def test_energy_oscillator_ground_state_n2001():
    g = make_grid(-10, 10, 2001)
    psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
    assert energy(HARMONIC, psi) == pytest.approx(0.5, abs=1e-6)


def test_energy_oscillator_ground_state_fine_grid():
    g = make_grid(-10, 10, 6001)
    psi = normalize(Wavefunction(g, np.exp(-g.x**2 / 2)))
    assert energy(HARMONIC, psi) == pytest.approx(0.5, abs=1e-6)
    # and the n=2001 deviation is exactly the stencil constant -dx^2/32
    g2 = make_grid(-10, 10, 2001)
    psi2 = normalize(Wavefunction(g2, np.exp(-g2.x**2 / 2)))
    assert energy(HARMONIC, psi2) - 0.5 == pytest.approx(-g2.dx**2 / 32.0, rel=0.01)


def test_energy_gaussian_width_formula():
    # E(sigma) = 1/(8 sigma^2) + sigma^2/2 at sigma = 1
    g = make_grid(-10, 10, 2001)
    psi = gaussian_wavepacket(g, width=1.0)
    assert energy(HARMONIC, psi) == pytest.approx(0.625, abs=1e-6)


def test_gp_energy_reduces_to_linear_at_zero_coupling():
    g = make_grid(-10, 10, 501)
    psi = gaussian_wavepacket(g, width=0.9)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(0.0, 50)
    )
    assert energy(cfg, psi) == energy(HARMONIC, psi)


def test_hamiltonian_hermitian_under_inner_product():
    g = make_grid(0, 4, 48, "periodic")
    cfg = HamiltonianConfig(
        v1=PotentialField.from_samples(np.sin(np.pi * g.x / 2)),
        a0=PotentialField.from_samples(0.2 * np.cos(np.pi * g.x)),
        a_vec=PotentialField.from_samples(0.4 + 0.1 * np.sin(np.pi * g.x / 2)),
    )
    for seed in range(4):
        a = random_state(g, seed=300 + seed, smooth=False)
        b = random_state(g, seed=400 + seed, smooth=False)
        lhs = inner_product(a, apply_hamiltonian(cfg, b))
        rhs = np.conj(inner_product(b, apply_hamiltonian(cfg, a)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_hamiltonian_linear_when_no_interaction():
    g = make_grid(-6, 6, 101)
    a, b = 1.2 - 0.3j, -0.4 + 2.0j
    x = random_state(g, seed=31)
    y = random_state(g, seed=32)
    combo = Wavefunction(g, a * x.amplitudes + b * y.amplitudes)
    lhs = apply_hamiltonian(HARMONIC, combo).amplitudes
    rhs = a * apply_hamiltonian(HARMONIC, x).amplitudes + b * apply_hamiltonian(HARMONIC, y).amplitudes
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))


def test_constant_scalar_potential_shifts_energy_by_charge_times_value():
    g = make_grid(-8, 8, 401)
    q = 1.7
    base = HamiltonianConfig(
        constants=PhysicalConstants(charge=q), v1=PotentialField.harmonic()
    )
    shift = 0.83
    shifted = HamiltonianConfig(
        constants=PhysicalConstants(charge=q),
        v1=PotentialField.harmonic(),
        a0=PotentialField.from_samples(np.full(g.n_points, shift)),
    )
    psi = gaussian_wavepacket(g, center=0.4, width=0.7)
    assert energy(shifted, psi) - energy(base, psi) == pytest.approx(q * shift, abs=1e-10)


def test_gp_chemical_potential_exceeds_energy_per_particle():
    g = make_grid(-10, 10, 513)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(10.0, 6)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ground-state path must keep states normalized
        result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g), dtau=0.05, tol=1e-11)
    assert result.converged
    mu = chemical_potential(cfg, result.state)
    assert mu > result.energy + 1e-3


def test_energy_real_part_guard():
    # quadrature of psi* H psi is real for Hermitian H; the guard is exercised
    g = make_grid(-5, 5, 128)
    psi = random_state(g, seed=5)
    value = energy(HARMONIC, psi)
    direct = inner_product(psi, apply_hamiltonian(HARMONIC, psi))
    assert value == pytest.approx(direct.real, abs=1e-13)
    assert abs(direct.imag) < 1e-10



def _count_assemblies(monkeypatch) -> list:
    """One entry per hamiltonian_matrix call, through every module that holds a reference to it."""
    import sys

    import waveaction.hamiltonian as hamiltonian

    calls = []
    original = hamiltonian.hamiltonian_matrix

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "waveaction" or name.startswith("waveaction."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


_BOTH = pytest.mark.parametrize(
    "cfg",
    [HARMONIC, HamiltonianConfig(v1=PotentialField.harmonic(), interaction=TwoBodyInteraction.contact(20.0, 3))],
    ids=["linear", "contact"],
)


@_BOTH
def test_imaginary_time_assembles_a_static_hamiltonian_once(monkeypatch, cfg):
    calls = _count_assemblies(monkeypatch)
    g = make_grid(-8, 8, 401)
    result = ground_state_imaginary_time(cfg, gaussian_wavepacket(g, center=0.5), dtau=0.1, tol=1e-10)
    assert result.iterations > 5
    assert len(calls) == 1


@_BOTH
def test_rayleigh_ritz_assembles_a_static_hamiltonian_once(monkeypatch, cfg):
    from waveaction import gaussian_family, rayleigh_ritz_minimize

    calls = _count_assemblies(monkeypatch)
    result = rayleigh_ritz_minimize(cfg, gaussian_family(), [0.3, 1.2], grid=make_grid(-8, 8, 401), max_iter=60)
    assert len(result.history) > 5
    assert len(calls) == 1


@_BOTH
def test_action_pass_assembles_a_static_hamiltonian_once(monkeypatch, cfg):
    from waveaction import PropagationPlan, action_integrals, propagate

    g = make_grid(-8, 8, 201)
    traj = propagate(cfg, gaussian_wavepacket(g, center=0.5), PropagationPlan(dt=1e-2, n_steps=10))
    calls = _count_assemblies(monkeypatch)
    assert len(action_integrals(cfg, traj).simple) == 11
    assert len(calls) == 1


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    n_points=st.integers(8, 300),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    contact=st.one_of(st.none(), st.floats(0.0, 100.0)),
)
def test_block_of_states_gives_each_state_its_own_h_and_energy(seed, n_rows, n_points, boundary, contact):
    # matvec and the energy of a (B, N) block of states, with a per-row mean
    # field on the diagonal, equal the one-state results bit for bit
    g = make_grid(-3.0, 3.0, n_points, boundary)
    interaction = None if contact is None else TwoBodyInteraction.contact(contact, 3)
    cfg = HamiltonianConfig(
        v1=PotentialField.harmonic(), a_vec=PotentialField.from_samples(0.3 * np.cos(g.x)), interaction=interaction
    )
    h = hamiltonian_matrix(cfg, g)
    block = np.array([random_state(g, seed + k, smooth=False).amplitudes for k in range(n_rows)])
    np.testing.assert_array_equal(h.matvec(block), [h.matvec(amp) for amp in block])
    energies = energies_of(cfg, h, block)
    assert energies.shape == (n_rows,)
    np.testing.assert_array_equal(energies, [energy(cfg, Wavefunction(g, amp)) for amp in block])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_points=st.integers(8, 120),
    n_rows=st.integers(1, 5),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    a_scale=st.floats(0.1, 3.0),
)
def test_matvec_matches_dense_h_built_link_by_link(seed, n_points, n_rows, boundary, a_scale):
    # an independent dense H from the assembly formulas: link j joins node j
    # to node j+1, which is node 0 for the wrap link of a periodic grid
    rng = np.random.default_rng(seed)
    n = n_points
    g = make_grid(-4.0, 4.0, n, boundary)
    hbar, mass, charge = rng.uniform(0.5, 2.0, 3)
    v, a0 = rng.uniform(-10.0, 10.0, n), rng.uniform(-2.0, 2.0, n)
    a = a_scale * rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
    cfg = HamiltonianConfig(
        constants=PhysicalConstants(hbar, mass, charge),
        v1=PotentialField.from_samples(v),
        a0=PotentialField.from_samples(a0),
        a_vec=PotentialField.from_samples(a),
    )
    kin = hbar**2 / (2.0 * mass * g.dx**2)
    coup = 1j * hbar * charge / (4.0 * mass * g.dx)
    dense = np.diag(2.0 * kin + charge**2 * a**2 / (2.0 * mass) + v + charge * a0).astype(complex)
    for j in range(n if g.is_periodic else n - 1):
        k = (j + 1) % n
        dense[j, k] += -kin + coup * (a[j] + a[k])
        dense[k, j] += -kin - coup * (a[j] + a[k])
    block = rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))
    expected = block @ dense.T
    if not g.is_periodic:
        expected[:, 0] = expected[:, -1] = 0.0
    h = hamiltonian_matrix(cfg, g)
    got = h.matvec(block)
    scale = np.abs(dense).max() * np.abs(block).max()
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)
    for row, amp in zip(got, block):
        assert (row == h.matvec(amp)).all()
