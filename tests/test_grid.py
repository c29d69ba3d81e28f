import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestrip.grid import (
    Field,
    InvalidGridError,
    PeriodicGrid,
    bessel_potential,
    dealiased_product,
    field_from_function,
    heat_propagator,
    inner_l2,
    irfft_x,
    make_grid,
    norm_l2,
    rfft_x,
    spectral_gradient,
)

from grid_reference import MultiplierDomainError, divergence, fourier_multiplier, sobolev_norm


def random_field(grid, seed=0, kmax=None, complex_=False):
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.shape, dtype=complex)
    kabs = grid.abs_wavenumber()
    band = kabs <= (kmax if kmax is not None else grid.resolved_kmax() / 3)
    spec[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    vals = np.fft.ifftn(spec)
    return Field(grid, vals if complex_ else vals.real)


def test_make_grid_integer_lattice():
    g = make_grid([2 * np.pi], [16])
    assert sorted(np.rint(g.wavenumbers[0]).astype(int)) == list(range(-8, 8))


def test_make_grid_step_pi():
    g = make_grid([2.0], [8])
    ks = sorted(g.wavenumbers[0])
    assert np.allclose(ks, np.pi * np.arange(-4, 4))


def test_make_grid_rejects_odd_count():
    with pytest.raises(InvalidGridError):
        make_grid([2 * np.pi, 2 * np.pi], [16, 7])


def test_make_grid_rejects_small_count():
    with pytest.raises(InvalidGridError):
        make_grid([1.0], [6])


@pytest.mark.parametrize("n", [16.7, 16.0])
def test_make_grid_rejects_a_count_that_is_not_an_integer(n):
    # int() would truncate 16.7 to a 16-point grid without a word
    with pytest.raises(InvalidGridError, match="integer"):
        make_grid([2 * np.pi], [n])
    with pytest.raises(InvalidGridError, match="integer"):
        PeriodicGrid((2 * np.pi,), (n,))


@pytest.mark.parametrize("lengths, points", [([2 * np.pi], [64]), ([2 * np.pi], (64,)),
                                             ((2 * np.pi,), [64])],
                         ids=["both-lists", "lengths-list", "points-list"])
def test_grid_rejects_lengths_or_points_that_are_not_tuples(lengths, points):
    # a list would become the grid's shape, which no Field matches, and make
    # the grid unhashable; make_grid converts
    with pytest.raises(InvalidGridError, match="tuples"):
        PeriodicGrid(lengths, points)
    grid = make_grid(lengths, points)
    assert Field(grid, np.zeros(64)).grid is grid
    assert hash(grid) == hash(make_grid([2 * np.pi], [64]))


def test_make_grid_takes_a_numpy_integer_count():
    assert make_grid([2 * np.pi], [np.int64(16)]) == make_grid([2 * np.pi], [16])


def test_make_grid_rejects_nonpositive_or_nonfinite_period():
    # a NaN period gives NaN wavenumbers, an infinite one all-zero wavenumbers
    for L in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidGridError, match="period"):
            make_grid([2 * np.pi, L], [16, 16])


def test_multiplier_single_mode_bracket():
    g = make_grid([2 * np.pi], [32])
    u = field_from_function(g, np.cos)
    out = fourier_multiplier(u, lambda k: np.sqrt(1.0 + k ** 2))
    assert np.allclose(out.values, np.sqrt(2.0) * u.values, atol=1e-12)


def test_multiplier_identity_roundtrip():
    g = make_grid([2 * np.pi], [64])
    u = random_field(g, seed=3)
    out = fourier_multiplier(u, lambda k: np.ones_like(k))
    assert np.max(np.abs(out.values - u.values)) < 1e-12


def test_multiplier_exponential_decay_mode():
    g = make_grid([2 * np.pi], [64])
    u = field_from_function(g, lambda x: np.sin(3 * x))
    out = fourier_multiplier(u, lambda k: np.exp(-0.1 * np.sqrt(1.0 + k ** 2)))
    assert np.allclose(out.values, np.exp(-0.1 * np.sqrt(10.0)) * u.values, atol=1e-12)


def test_multiplier_nonfinite_rejected():
    g = make_grid([2 * np.pi], [16])
    u = random_field(g, seed=1)
    with pytest.raises(MultiplierDomainError):
        fourier_multiplier(u, lambda k: 1.0 / k)


def test_multiplier_not_hermitian_rejected():
    # m(-k) != conj m(k): no real operator, so the half spectrum cannot carry it
    g = make_grid([2 * np.pi], [16])
    u = random_field(g, seed=1)
    with pytest.raises(MultiplierDomainError):
        fourier_multiplier(u, lambda k: (k > 0).astype(float))


def lattice_oracle(u, mult):
    """The multiplier array ``mult`` applied on the full np.fft lattice."""
    out = np.fft.ifftn(mult * np.fft.fftn(u.values))
    return out.real if u.is_real else out


def white_noise(grid, seed, complex_):
    """Samples that carry every lattice mode, Nyquist modes included."""
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape)
    return Field(grid, vals + 1j * rng.normal(size=grid.shape) if complex_ else vals)


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("lengths, points", [([2 * np.pi], [64]), ([2 * np.pi, 3.0], [16, 24])],
                         ids=["1d64", "2d16x24"])
def test_half_spectrum_multipliers_match_full_lattice_oracles(lengths, points, complex_):
    g = make_grid(lengths, points)
    u, v = white_noise(g, 1, complex_), white_noise(g, 2, complex_)
    km = g.wavenumber_meshes()
    k2 = sum(k ** 2 for k in km)
    spacing = [L / n for L, n in zip(g.lengths, g.points)]

    def m(*k):  # Hermitian; its odd part sin(k dx) vanishes at the Nyquist modes
        odd = sum(np.sin(kc * dx) for kc, dx in zip(k, spacing))
        return np.exp(-0.01 * sum(kc ** 2 for kc in k)) * (1.0 + 0.5j * odd)

    keep = np.ones(g.shape, dtype=bool)
    for ax, n in enumerate(g.points):
        shape = [1] * g.dim
        shape[ax] = n
        keep &= (np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= n / 3.0).reshape(shape)
    derivs = []
    for ax, n in enumerate(g.points):
        k = km[ax].copy()
        k[(slice(None),) * ax + (n // 2,)] = 0.0  # as in spectral_gradient
        derivs.append(1j * k)

    cases = [
        (fourier_multiplier(u, m), lattice_oracle(u, m(*km))),
        (bessel_potential(u, -0.5), lattice_oracle(u, (1.0 + k2) ** -0.25)),
        (bessel_potential(u, 1.5), lattice_oracle(u, (1.0 + k2) ** 0.75)),
        (heat_propagator(u, 0.005), lattice_oracle(u, np.exp(-0.005 * k2))),
        (dealiased_product(u, v), lattice_oracle(Field(g, u.values * v.values), keep)),
        (divergence((u, v)[: g.dim]),
         sum(lattice_oracle(w, ik) for w, ik in zip((u, v), derivs))),
    ]
    for out, ref in cases:
        assert out.is_real != complex_
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(np.abs(ref))
    for s in (-0.5, 1.5):
        weight = (1.0 + k2) ** (s / 2.0)
        ref = np.sqrt(np.sum((weight * np.abs(np.fft.fftn(u.values))) ** 2)
                      * g.cell_volume / g.size)
        assert abs(sobolev_norm(u, s) - ref) <= 1e-13 * ref


def test_gradient_single_mode():
    g = make_grid([2 * np.pi], [32])
    u = field_from_function(g, lambda x: np.sin(2 * x))
    (du,) = spectral_gradient(u)
    x = g.axes()[0]
    assert np.allclose(du.values, 2 * np.cos(2 * x), atol=1e-12)


def test_gradient_constant_is_zero():
    g = make_grid([2 * np.pi], [16])
    u = Field(g, np.full(g.shape, 4.2))
    (du,) = spectral_gradient(u)
    assert np.max(np.abs(du.values)) < 1e-13


def test_gradient_2d_product_mode():
    g = make_grid([2 * np.pi, 2 * np.pi], [24, 24])
    u = field_from_function(g, lambda x, y: np.cos(x) * np.sin(y))
    dx, dy = spectral_gradient(u)
    xm, ym = g.meshes()
    assert np.allclose(dx.values, -np.sin(xm) * np.sin(ym), atol=1e-12)
    assert np.allclose(dy.values, np.cos(xm) * np.cos(ym), atol=1e-12)


def test_roundtrip_tolerance():
    g = make_grid([2 * np.pi, 3.0], [16, 16])
    u = random_field(g, seed=7)
    v = fourier_multiplier(u, lambda kx, ky: np.ones_like(kx))
    rel = np.max(np.abs(v.values - u.values)) / np.max(np.abs(u.values))
    assert rel < 1e-12


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
@settings(max_examples=20, deadline=None)
def test_multipliers_commute(p, q):
    g = make_grid([2 * np.pi], [32])
    u = random_field(g, seed=11)
    m1 = lambda k: np.exp(-0.01 * p * np.abs(k))
    m2 = lambda k: (1.0 + k ** 2) ** (-q / 20.0)
    a = fourier_multiplier(fourier_multiplier(u, m1), m2)
    b = fourier_multiplier(u, lambda k: m1(k) * m2(k))
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * max(1.0, np.max(np.abs(b.values)))


def test_parseval():
    g = make_grid([2 * np.pi], [64])
    u = random_field(g, seed=5)
    uh = sfft.fftn(u.values)
    spectral = np.sqrt(np.sum(np.abs(uh) ** 2) * g.cell_volume / g.size)
    assert abs(norm_l2(u) - spectral) < 1e-12 * spectral


def test_inner_product_symmetry():
    g = make_grid([2 * np.pi], [32])
    u, v = random_field(g, 1), random_field(g, 2)
    assert abs(inner_l2(u, v) - inner_l2(v, u)) < 1e-12


def test_inner_product_is_complex_when_an_array_factor_is():
    g = make_grid([2 * np.pi], [16])
    ones = Field(g, np.ones(g.shape))
    for v in (1j * np.ones(g.shape), Field(g, 1j * np.ones(g.shape))):
        out = inner_l2(ones, v)
        assert isinstance(out, complex)
        assert out == pytest.approx(2j * np.pi, rel=1e-14)
    assert isinstance(inner_l2(ones, np.ones(g.shape)), float)


@pytest.mark.parametrize("batch", [(), (31,)])
def test_one_axis_transforms_match_rfftn_bitwise_on_1d_grids(batch):
    g = make_grid([2 * np.pi], [256])
    values = np.random.default_rng(5).normal(size=batch + g.shape)
    spec = rfft_x(values, g)
    assert np.array_equal(spec, sfft.rfftn(values, axes=(-1,)))
    assert np.array_equal(irfft_x(spec, g), sfft.irfftn(spec, s=g.shape, axes=(-1,)))


def test_dealiased_product_of_low_modes_exact():
    g = make_grid([2 * np.pi], [48])
    a = field_from_function(g, lambda x: np.cos(2 * x))
    b = field_from_function(g, lambda x: np.sin(3 * x))
    p = dealiased_product(a, b)
    x = g.axes()[0]
    assert np.allclose(p.values, np.cos(2 * x) * np.sin(3 * x), atol=1e-12)


def test_bessel_potential_monotone_on_modes():
    g = make_grid([2 * np.pi], [32])
    u = field_from_function(g, lambda x: np.cos(4 * x))
    low = norm_l2(bessel_potential(u, 0.5))
    high = norm_l2(bessel_potential(u, 1.5))
    assert high > low
