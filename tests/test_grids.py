"""Grid construction, quadrature, and the discrete calculus stencils."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from waveaction import (
    Trajectory,
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
from waveaction.grids import (
    central_difference,
    check_finite,
    commensurate_wavenumber,
    norms,
    require_same_grid,
    second_difference,
)

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


def test_same_grid_rule_compares_bounds_size_and_boundary():
    # equal lattices built apart pass; a change in any one of the four fields fails
    require_same_grid(make_grid(-5, 5, 101), make_grid(-5, 5, 101))
    for other in (
        make_grid(-4, 5, 101),
        make_grid(-5, 6, 101),
        make_grid(-5, 5, 102),
        make_grid(-5, 5, 101, "periodic"),
        make_grid(0, 1, 101, "periodic"),
    ):
        with pytest.raises(ValueError, match="different grids"):
            require_same_grid(make_grid(-5, 5, 101), other)


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


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n_rows=st.sampled_from([None, 1, 3]),
    n_points=st.integers(8, 40),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    complex_values=st.booleans(),
)
def test_central_difference_matches_the_elementwise_stencil(data, n_rows, n_points, boundary, complex_values):
    # bit for bit what (f[j+1] - f[j-1]) / (2 dx) gives one entry at a time, for a
    # state (N,) and a block (B, N); the Dirichlet endpoints are exactly 0
    g = make_grid(-3.0, 2.5, n_points, boundary)
    shape = (n_points,) if n_rows is None else (n_rows, n_points)
    if complex_values:
        elements = st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False)
    else:
        elements = st.floats(-1e150, 1e150, allow_nan=False)
    values = data.draw(arrays(np.complex128 if complex_values else np.float64, shape, elements=elements))
    out = central_difference(g, values)
    assert out.dtype == values.dtype and out.shape == shape
    expected = np.zeros_like(values)
    for row in np.ndindex(*shape[:-1]):
        f = values[row]
        for j in range(n_points):
            if g.is_periodic:
                expected[row + (j,)] = (f[(j + 1) % n_points] - f[j - 1]) / (2.0 * g.dx)
            elif 0 < j < n_points - 1:
                expected[row + (j,)] = (f[j + 1] - f[j - 1]) / (2.0 * g.dx)
    assert out.tobytes() == expected.tobytes()
    if boundary == "dirichlet":
        assert not any(out[..., [0, -1]].tobytes())  # +0.0, real and imaginary parts


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda g: Wavefunction(g, np.ones(g.n_points), np.nan), "time must be finite"),
        (lambda g: Wavefunction(g, np.ones(g.n_points), -np.inf), "time must be finite"),
        (lambda g: gaussian_wavepacket(g, width=0.0), "width must be positive"),
        (lambda g: gaussian_wavepacket(g, width=-1.0), "width must be positive"),
        (lambda g: plane_wave(g, 1), "plane waves require a periodic grid"),
    ],
    ids=["nan-time", "infinite-time", "zero-width", "negative-width", "dirichlet-plane-wave"],
)
def test_state_builders_reject_invalid_input(build, message):
    with pytest.raises(ValueError, match=message):
        build(make_grid(-5, 5, 64))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 5),
    n_points=st.integers(8, 80),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(np.inf, 1.0)]),
    where=st.tuples(st.integers(0, 4), st.integers(0, 79)),
)
def test_trajectory_rows_obey_the_wavefunction_rule(seed, n_rows, n_points, boundary, bad, where):
    # one rule stores both: the same clamp and copy, bit for bit, and the same rejection
    g = make_grid(-3.0, 3.0, n_points, boundary)
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n_rows, n_points)) + 1j * rng.standard_normal((n_rows, n_points))
    traj = Trajectory(g, np.arange(n_rows) * 0.1, rows)
    for k, (t, psi) in enumerate(traj.snapshots):
        expected = Wavefunction(g, rows[k]).amplitudes
        assert expected.tobytes() == psi.amplitudes.tobytes() == traj.amplitudes[k].tobytes()
        if boundary == "dirichlet":
            assert (expected[[0, -1]] == 0.0).all()
        else:
            np.testing.assert_array_equal(expected, rows[k])
    row, col = where[0] % n_rows, where[1] % n_points
    rows[row, col] = bad
    with pytest.raises(ValueError) as from_wavefunction:
        Wavefunction(g, rows[row])
    with pytest.raises(ValueError) as from_trajectory:
        Trajectory(g, np.arange(n_rows) * 0.1, rows)
    assert str(from_trajectory.value) == str(from_wavefunction.value) == "amplitudes must be finite"


def _copied_and_clamped(g, values):
    """The state rule's result by its definition: a complex128 copy with zero Dirichlet endpoints."""
    out = np.array(values, dtype=np.complex128)
    if not g.is_periodic:
        out[..., 0] = out[..., -1] = 0.0
    return out


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(0, 4),
    n_points=st.integers(8, 60),
    boundary=st.sampled_from(["dirichlet", "periodic"]),
    dtype=st.sampled_from([np.complex128, np.complex64, np.float64]),
    read_only=st.booleans(),
    strided=st.booleans(),
    ends=st.sampled_from(["zero", "negative-zero", "nonzero"]),
)
def test_state_rule_keeps_a_finished_array_and_copies_anything_else(
    seed, n_rows, n_points, boundary, dtype, read_only, strided, ends
):
    # a read-only, C-contiguous complex128 array of the right shape whose
    # Dirichlet endpoints are +0.0 is stored as it is; any other input is
    # copied and clamped, and the caller's array is never written
    g = make_grid(-3.0, 3.0, n_points, boundary)
    rng = np.random.default_rng(seed)
    shape = (n_points,) if n_rows == 0 else (n_rows, n_points)
    values = rng.standard_normal(shape).astype(dtype)
    if dtype is not np.float64:
        values += 1j * rng.standard_normal(shape)
    values[..., 0], values[..., -1] = {"zero": (0.0, 0.0), "negative-zero": (-0.0, 0.0), "nonzero": (0.5, 0.0)}[ends]
    if strided:  # every other point of a twice-as-long array: not contiguous
        wide = np.zeros(shape[:-1] + (2 * n_points,), dtype=dtype)
        wide[..., ::2] = values
        values = wide[..., ::2]
    values.setflags(write=not read_only)
    kept = values.copy()
    if n_rows == 0:
        stored = Wavefunction(g, values).amplitudes
    else:
        stored = Trajectory(g, np.arange(n_rows) * 0.1, values).amplitudes
    assert stored.tobytes() == _copied_and_clamped(g, kept).tobytes()
    assert not stored.flags.writeable and stored.dtype == np.complex128
    taken = (
        dtype is np.complex128
        and read_only
        and not strided
        and (boundary == "periodic" or ends == "zero")
    )
    assert np.shares_memory(stored, values) == taken
    assert values.tobytes() == kept.tobytes()


def test_state_rule_still_scans_a_kept_array_and_checks_the_times_first():
    g = make_grid(-3.0, 3.0, 16)
    rows = np.zeros((3, 16), dtype=complex)
    rows[1, 5] = np.nan
    rows.setflags(write=False)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        Trajectory(g, [0.0, 0.1, 0.2], rows)
    with pytest.raises(ValueError, match="amplitudes must be finite"):
        Wavefunction(g, rows[1])
    for bad_times in ([0.0, 0.1, 0.1], [0.0, 0.2, 0.1]):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(g, bad_times, rows)
    with pytest.raises(ValueError, match="shape"):
        Trajectory(g, [0.0, 0.1], rows)


_NON_FINITE = (np.inf, -np.inf, np.nan)


@settings(max_examples=80, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 6), st.integers(1, 40))),
    scale=st.sampled_from([1.0, 1e150, 1e300]),
    seed=st.integers(0, 2**32 - 1),
    bad=st.lists(
        st.tuples(st.integers(0, 10**6), st.sampled_from(["real", "imag"]), st.sampled_from(_NON_FINITE)),
        max_size=3,
    ),
)
def test_check_finite_raises_exactly_when_an_entry_is_not_finite(shape, scale, seed, bad):
    # the one reduction overflows for finite entries of 1e150 and more, so
    # only the exact scan may decide there; a non-finite real or imaginary
    # part anywhere in a state or a block of states must be found
    rng = np.random.default_rng(seed)
    amp = scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    flat = amp.reshape(-1)
    for index, part, value in bad:
        if part == "real":
            flat[index % flat.size] = complex(value, flat[index % flat.size].imag)
        else:
            flat[index % flat.size] = complex(flat[index % flat.size].real, value)
    if np.isfinite(amp.view(np.float64)).all():
        check_finite(amp)
    else:
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            check_finite(amp)


def test_check_finite_makes_no_temporary_of_the_array():
    # the finiteness scan of a trajectory-sized block allocates nothing of its
    # size (an elementwise isfinite would make a bool array of 1/8 its bytes)
    import tracemalloc

    rng = np.random.default_rng(5)
    amp = rng.standard_normal((401, 1001)) + 1j * rng.standard_normal((401, 1001))
    tracemalloc.start()
    try:
        check_finite(amp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * amp.nbytes, peak / amp.nbytes
