"""Grid construction, quadrature, and the discrete calculus stencils."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waveaction import (
    Wavefunction,
    first_derivative,
    gaussian_wavepacket,
    inner_product,
    laplacian,
    make_grid,
    norm,
    normalize,
    plane_wave,
    quadrature,
)
from waveaction.grids import central_difference, commensurate_wavenumber, norms, second_difference

from helpers import loop_inner_product, random_state, richardson_order


def test_make_grid_dirichlet_spacing():
    g = make_grid(-10, 10, 201, "dirichlet")
    assert g.dx == pytest.approx(0.1, abs=0)
    assert g.x[0] == -10 and g.x[-1] == 10


def test_make_grid_periodic_spacing():
    g = make_grid(0, 1, 8, "periodic")
    assert g.dx == pytest.approx(0.125, abs=0)
    assert len(g.x) == 8 and g.x[-1] == pytest.approx(1 - 0.125)


def test_make_grid_rejects_empty_interval():
    with pytest.raises(ValueError, match="x_max must exceed x_min"):
        make_grid(5, 5, 100, "dirichlet")


def test_make_grid_rejects_small_and_nonfinite():
    with pytest.raises(ValueError, match="at least 8"):
        make_grid(0, 1, 4)
    with pytest.raises(ValueError, match="finite"):
        make_grid(0, np.inf, 100)
    with pytest.raises(ValueError, match="boundary"):
        make_grid(0, 1, 100, "reflecting")


def test_wavefunction_validates_length_and_clamps_endpoints():
    g = make_grid(-1, 1, 16)
    with pytest.raises(ValueError, match="shape"):
        Wavefunction(g, np.ones(15))
    psi = Wavefunction(g, np.ones(16))
    assert psi.amplitudes[0] == 0 and psi.amplitudes[-1] == 0
    assert not psi.amplitudes.flags.writeable


def test_wavefunction_rejects_nonfinite():
    g = make_grid(-1, 1, 16)
    bad = np.ones(16, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Wavefunction(g, bad)


def test_inner_product_normalized_gaussian():
    g = make_grid(-10, 10, 401)
    psi = gaussian_wavepacket(g, width=1.0)
    assert inner_product(psi, psi).real == pytest.approx(1.0, abs=1e-10)


def test_inner_product_oscillator_orthogonality():
    # n=0 and n=1 oscillator eigenstates are even/odd: quadrature kills the product
    g = make_grid(-10, 10, 501)
    psi0 = np.exp(-g.x**2 / 2)
    psi1 = g.x * np.exp(-g.x**2 / 2)
    a = normalize(Wavefunction(g, psi0))
    b = normalize(Wavefunction(g, psi1))
    assert abs(inner_product(a, b)) < 1e-8


def test_inner_product_matches_loop_oracle():
    g = make_grid(0, 1, 16)
    a = random_state(g, seed=11, smooth=False)
    b = random_state(g, seed=12, smooth=False)
    assert inner_product(a, b) == pytest.approx(loop_inner_product(a, b), abs=1e-14)


def test_inner_product_conjugate_symmetry():
    g = make_grid(0, 2, 32, "periodic")
    a = random_state(g, seed=3, smooth=False)
    b = random_state(g, seed=4, smooth=False)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)), abs=1e-15)


def test_inner_product_rejects_grid_mismatch():
    a = gaussian_wavepacket(make_grid(-5, 5, 64))
    b = gaussian_wavepacket(make_grid(-5, 5, 128))
    with pytest.raises(ValueError, match="different grids"):
        inner_product(a, b)


def test_quadrature_gaussian_integral():
    g = make_grid(-10, 10, 201)
    value = quadrature(g, np.exp(-g.x**2))
    assert value == pytest.approx(np.sqrt(np.pi), abs=1e-8)


def test_laplacian_plane_wave_eigenvalue():
    g = make_grid(0, 2 * np.pi, 64, "periodic")
    k = commensurate_wavenumber(g, 3)
    psi = plane_wave(g, 3)
    k_eff_sq = (2 - 2 * np.cos(k * g.dx)) / g.dx**2
    np.testing.assert_allclose(
        laplacian(psi).amplitudes, -k_eff_sq * psi.amplitudes, atol=1e-12
    )


def test_laplacian_annihilates_constants():
    g = make_grid(0, 1, 32, "periodic")
    psi = Wavefunction(g, np.full(32, 0.7 + 0.1j))
    np.testing.assert_allclose(laplacian(psi).amplitudes, 0.0, atol=1e-12)


def test_laplacian_convergence_order():
    errs = []
    for n in (201, 401, 801):
        g = make_grid(-8, 8, n)
        f = np.exp(-g.x**2)
        exact = (4 * g.x**2 - 2) * np.exp(-g.x**2)
        got = laplacian(Wavefunction(g, f)).amplitudes.real
        errs.append(np.max(np.abs(got - exact)[1:-1]))
    orders = richardson_order(errs)
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_laplacian_linearity():
    g = make_grid(0, 3, 48, "periodic")
    a, b = 0.7 - 0.2j, 1.3 + 0.4j
    x = random_state(g, seed=21, smooth=False)
    y = random_state(g, seed=22, smooth=False)
    combo = Wavefunction(g, a * x.amplitudes + b * y.amplitudes)
    lhs = laplacian(combo).amplitudes
    rhs = a * laplacian(x).amplitudes + b * laplacian(y).amplitudes
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.max(np.abs(rhs)))


def test_negative_laplacian_hermitian_on_periodic():
    g = make_grid(0, 5, 40, "periodic")
    for seed in range(5):
        a = random_state(g, seed=100 + seed, smooth=False)
        b = random_state(g, seed=200 + seed, smooth=False)
        lhs = inner_product(a, laplacian(b))
        rhs = np.conj(inner_product(b, laplacian(a)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_first_derivative_plane_wave_eigenvalue():
    g = make_grid(0, 2 * np.pi, 64, "periodic")
    k = commensurate_wavenumber(g, 5)
    psi = plane_wave(g, 5)
    expected = 1j * (np.sin(k * g.dx) / g.dx) * psi.amplitudes
    np.testing.assert_allclose(first_derivative(psi).amplitudes, expected, atol=1e-12)


def test_first_derivative_even_function_center():
    g = make_grid(-10, 10, 201)  # odd point count puts a node exactly at x=0
    psi = gaussian_wavepacket(g, width=1.0)
    center = g.n_points // 2
    assert abs(first_derivative(psi).amplitudes[center]) < 1e-14


def test_first_derivative_quadratic_exact_in_bulk():
    # x^2 has no third derivative: the central stencil is exact away from
    # the clamped endpoints (which zero a non-vanishing sample)
    errs = []
    for n in (201, 401, 801):
        g = make_grid(-4, 4, n)
        got = first_derivative(Wavefunction(g, g.x**2)).amplitudes.real
        errs.append(np.max(np.abs(got - 2 * g.x)[2:-2]))
    assert max(errs) < 1e-10


def test_first_derivative_order_on_smooth_function():
    errs = []
    for n in (201, 401, 801):
        g = make_grid(-8, 8, n)
        f = np.exp(-g.x**2)
        got = first_derivative(Wavefunction(g, f)).amplitudes.real
        errs.append(np.max(np.abs(got + 2 * g.x * f)[1:-1]))
    orders = richardson_order(errs)
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_normalize_scaling_and_idempotence():
    g = make_grid(-10, 10, 301)
    base = gaussian_wavepacket(g, width=0.8)
    doubled = Wavefunction(g, 2.0 * base.amplitudes)
    renorm = normalize(doubled)
    np.testing.assert_allclose(renorm.amplitudes, base.amplitudes, atol=1e-14)
    again = normalize(renorm)
    np.testing.assert_allclose(again.amplitudes, renorm.amplitudes, atol=1e-14)
    assert norm(renorm) == pytest.approx(1.0, abs=1e-12)


def test_normalize_rejects_zero():
    g = make_grid(-1, 1, 16)
    with pytest.raises(ValueError, match="zero"):
        normalize(Wavefunction(g, np.zeros(16)))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 6),
    n_points=st.integers(8, 300),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    complex_values=st.booleans(),
)
def test_block_of_rows_gives_each_row_its_own_result(seed, n_rows, n_points, boundary, complex_values):
    # a (B, N) block is B sampled functions: the stencils and the quadrature
    # act along the last axis, so each row gets its 1-D result bit for bit
    g = make_grid(-3.0, 3.0, n_points, boundary)
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((n_rows, n_points))
    if complex_values:
        block = block + 1j * rng.standard_normal((n_rows, n_points))
    for stencil in (central_difference, second_difference):
        out = stencil(g, block)
        assert out.shape == block.shape
        for row, values in zip(out, block):
            np.testing.assert_array_equal(row, stencil(g, values))
    sums = quadrature(g, block)
    assert sums.shape == (n_rows,)
    np.testing.assert_array_equal(sums, [quadrature(g, values) for values in block])
    np.testing.assert_array_equal(norms(g, block), [norms(g, values) for values in block])
