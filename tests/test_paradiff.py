import gc

import numpy as np
import pytest
import scipy.fft as sfft

from wavestrip.grid import Field, field_from_function, make_grid, norm_l2
from wavestrip.paradiff import (
    EPS2,
    SymbolDomainError,
    _CHUNK_PAIRS,
    _PAIR_TABLES,
    _pair_table,
    cutoff_psi,
    cutoff_theta,
    paradiff_apply,
    paraproduct,
)
from wavestrip.ulspaces import DyadicDecomposition

from paradiff_reference import (
    bony_remainder,
    homogeneity_defect,
    paraproduct_blockwise,
    separable_apply,
    separable_symbol,
    symbol_seminorm,
    x_independent_symbol,
)

GRID = make_grid([2 * np.pi], [128])
DD = DyadicDecomposition(GRID)


def reference_apply(column_hat, u):
    """The per-mode loop the lattice kernel replaced, kept as its reference.

    For every lattice eta with psi(eta) u^(eta) != 0 it rolls the symbol
    spectrum c^_eta = column_hat(k_eta) onto xi = eta + zeta, weights it by
    theta on the symmetric band and accumulates; no vectorization.  The band
    keeps, along every axis, |eta| < Nyquist, |xi| < Nyquist and
    |xi - eta| < Nyquist.
    """
    grid = u.grid
    u_hat = np.fft.fftn(u.values)
    km = grid.wavenumber_meshes()
    nyq = [np.pi * n / L for n, L in zip(grid.points, grid.lengths)]
    out = np.zeros(grid.shape, dtype=complex)
    for multi in np.ndindex(*grid.shape):
        k_eta = np.array([grid.wavenumbers[ax][i] for ax, i in enumerate(multi)])
        weight = float(cutoff_psi(np.linalg.norm(k_eta))) * u_hat[multi]
        if weight == 0.0 or np.any(np.abs(k_eta) > np.array(nyq) - 1e-12):
            continue
        mask = np.ones(grid.shape, dtype=bool)
        z2 = np.zeros(grid.shape)
        for ax in range(grid.dim):
            delta = km[ax] - k_eta[ax]
            mask &= (np.abs(km[ax]) < nyq[ax] - 1e-12) & (np.abs(delta) < nyq[ax] - 1e-12)
            z2 = z2 + delta ** 2
        th = np.where(mask, cutoff_theta(np.sqrt(z2), np.linalg.norm(k_eta)), 0.0)
        out += th * np.roll(column_hat(k_eta), multi, axis=tuple(range(grid.dim))) * weight
    return np.fft.ifftn(out / grid.size)


def symbol_column_hat(sym, grid):
    return lambda k_eta: np.fft.fftn(
        np.broadcast_to(sym.eval(k_eta[None]), (1,) + grid.shape)[0])


def rel_err(out, ref):
    return np.max(np.abs(out - ref)) / np.max(np.abs(ref))


def kernel_cases():
    rng = np.random.default_rng(5)
    cases = []
    for lengths, points in [([2 * np.pi], [64]), ([2 * np.pi], [128]),
                            ([2 * np.pi, 3 * np.pi], [16, 24])]:
        grid = make_grid(lengths, points)
        x = grid.meshes()
        eta = Field(grid, 0.1 * np.cos(x[0]) + 0.05 * np.sin(sum(x)))
        a = Field(grid, rng.normal(size=grid.shape))
        u = Field(grid, rng.normal(size=grid.shape))
        uc = Field(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        cases.append((grid, eta, a, u, uc))
    return cases


@pytest.mark.parametrize("case", kernel_cases(), ids=["1d64", "1d128", "2d16x24"])
def test_paraproduct_matches_per_mode_reference(case):
    grid, _, a, u, uc = case
    for sym_field, arg in [(a, u), (a, uc), (uc, u)]:
        a_hat = np.fft.fftn(sym_field.values)
        ref = reference_apply(lambda k_eta: a_hat, arg)
        if sym_field.is_real and arg.is_real:
            ref = ref.real
        assert rel_err(paraproduct(sym_field, arg).values, ref) < 1e-13


@pytest.mark.parametrize("case", kernel_cases(), ids=["1d64", "1d128", "2d16x24"])
def test_paradiff_apply_matches_per_mode_reference(case):
    from wavestrip.symmetrizer import dno_principal_symbol, symmetrizer_symbol

    grid, eta, _, u, uc = case
    taylor = Field(grid, 1.0 + 0.2 * np.cos(grid.meshes()[0]))
    q = symmetrizer_symbol(taylor, eta)
    for sym in (dno_principal_symbol(eta), q):
        for arg in (u, uc):
            ref = reference_apply(symbol_column_hat(sym, grid), arg)
            assert rel_err(paradiff_apply(sym, arg).values, ref) < 1e-13


def hermitian_defect(spec):
    """max |s^(xi) - conj s^(-xi)| / max |s^|; 0 for the spectrum of real data."""
    mirror = np.roll(np.flip(spec), 1, axis=tuple(range(spec.ndim)))
    return np.max(np.abs(spec - np.conj(mirror))) / np.max(np.abs(spec))


@pytest.mark.parametrize("lengths, points", [
    ([2 * np.pi], [64]), ([2 * np.pi] * 2, [32, 32]), ([2 * np.pi] * 2, [8, 64]),
    ([2 * np.pi, 3 * np.pi], [16, 24])], ids=["1d64", "2d32", "2d8x64", "2d16x24"])
def test_kernel_spectrum_is_hermitian_on_white_noise(lengths, points, monkeypatch):
    # the spectrum handed to the kernel's ifftn, before any projection to
    # real values
    from wavestrip import paradiff
    from wavestrip.symmetrizer import dno_principal_symbol, symmetrizer_symbol

    spectra = []

    def keep_spectrum(spec):
        spectra.append(spec)
        return np.fft.ifftn(spec)

    monkeypatch.setattr(paradiff.sfft, "ifftn", keep_spectrum)
    grid = make_grid(lengths, points)
    x = grid.meshes()
    rng = np.random.default_rng(11)
    a, u = (Field(grid, rng.normal(size=grid.shape)) for _ in range(2))
    eta = Field(grid, 0.1 * np.cos(x[0]) + 0.05 * np.sin(sum(x)))
    q = symmetrizer_symbol(Field(grid, 1.0 + 0.2 * np.cos(x[-1])), eta)
    paraproduct(a, u)
    paradiff_apply(dno_principal_symbol(eta), u)
    paradiff_apply(q, u)
    assert len(spectra) == 3
    for spec in spectra:
        assert hermitian_defect(spec) <= 1e-14


@pytest.mark.parametrize("lengths, points, mode", [
    ([2 * np.pi], [64], (32,)), ([2 * np.pi, 3 * np.pi], [16, 24], (8, 2 / 3)),
    ([2 * np.pi, 3 * np.pi], [16, 24], (1, 8))], ids=["1d64", "2d16x24-x", "2d16x24-y"])
def test_nyquist_mode_has_no_paradifferential_image(lengths, points, mode):
    from wavestrip.symmetrizer import dno_principal_symbol

    grid = make_grid(lengths, points)
    x = grid.meshes()
    u = Field(grid, np.cos(sum(k * xi for k, xi in zip(mode, x))))
    a = Field(grid, 1.0 + 0.5 * np.cos(x[0]) + 0.3 * np.sin(x[-1]))
    eta = Field(grid, 0.1 * np.cos(x[0]))
    for out in (paraproduct(a, u), paradiff_apply(dno_principal_symbol(eta), u)):
        assert out.is_real
        assert np.max(np.abs(out.values)) < 1e-13


def test_paraproduct_memory_bound_2d():
    import tracemalloc

    grid = make_grid([2 * np.pi, 2 * np.pi], [64, 64])
    rng = np.random.default_rng(0)
    a = Field(grid, rng.normal(size=grid.shape))
    u = Field(grid, rng.normal(size=grid.shape))
    tracemalloc.start()
    try:
        paraproduct(a, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_paradiff_apply_memory_bound_2d():
    # the symbol is tabulated one chunk of columns at a time; the peak
    # includes the screening of the grid's pair table
    import tracemalloc

    from wavestrip.symmetrizer import dno_principal_symbol

    grid = make_grid([2 * np.pi, 2 * np.pi], [64, 64])
    gc.collect()
    assert grid not in _PAIR_TABLES
    x = grid.meshes()
    lam = dno_principal_symbol(Field(grid, 0.1 * np.cos(x[0]) + 0.05 * np.sin(x[1])))
    u = Field(grid, np.random.default_rng(0).normal(size=grid.shape))
    tracemalloc.start()
    try:
        paradiff_apply(lam, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid in _PAIR_TABLES
    assert peak < 32 * 2 ** 20


# lengths no other test uses, so no equal grid outlives this one
@pytest.mark.parametrize("lengths, points", [([5.0], [64]), ([5.0, 7.0], [16, 24])],
                         ids=["1d64", "2d16x24"])
def test_pair_table_is_built_once_per_grid(lengths, points):
    from wavestrip.symmetrizer import symmetrizer_symbol

    grid = make_grid(lengths, points)
    gc.collect()
    assert grid not in _PAIR_TABLES
    x = grid.meshes()
    rng = np.random.default_rng(4)
    a = Field(grid, 1.0 + 0.2 * np.cos(x[-1]) + 0.1 * rng.normal(size=grid.shape))
    eta = Field(grid, 0.1 * np.cos(x[0]))
    u = Field(grid, rng.normal(size=grid.shape))

    def outputs(g):
        a_g, u_g = Field(g, a.values), Field(g, u.values)
        sym = symmetrizer_symbol(a_g, Field(g, eta.values))
        return [paraproduct(a_g, u_g).values, paradiff_apply(sym, u_g).values]

    first = outputs(grid)
    table = _PAIR_TABLES[grid]
    cached = outputs(grid)
    twin = make_grid(lengths, points)
    assert twin is not grid
    separate = outputs(twin)
    assert _PAIR_TABLES[twin] is table
    for f, c, s in zip(first, cached, separate):
        np.testing.assert_array_equal(c, f)
        np.testing.assert_array_equal(s, f)

    # the symbol is tabulated once per table column, in ascending order,
    # even for a u whose spectrum is exactly sparse: samples in {-1, 0, 1}
    # of period 4
    stacks = []

    def recorded(xis):
        stacks.append(xis.copy())
        return np.linalg.norm(xis, axis=-1)

    quarter = [n / 4 * 2 * np.pi / L for n, L in zip(grid.points, grid.lengths)]
    band = Field(grid, np.round(np.cos(quarter[0] * x[0])) + np.round(np.sin(quarter[-1] * x[-1])))
    paradiff_apply(separable_symbol(a, 1.0, recorded), band)
    psi = cutoff_psi(grid.abs_wavenumber())
    assert np.count_nonzero(psi * sfft.fftn(band.values)) == 2 * grid.dim
    cols = np.flatnonzero(psi)
    k = np.stack([km.ravel()[cols] for km in grid.wavenumber_meshes()], axis=-1)
    np.testing.assert_array_equal(np.concatenate(stacks), k)

    # the entry goes with the last equal grid
    del grid, twin, a, eta, u, band
    gc.collect()
    assert make_grid(lengths, points) not in _PAIR_TABLES


def test_grid_without_columns_gives_zero():
    # every |k| < 1/2, so psi vanishes on the whole lattice
    from wavestrip.symmetrizer import dno_principal_symbol

    grid = make_grid([200 * np.pi], [8])
    u = Field(grid, np.cos(grid.meshes()[0] / 100))
    for out in (paraproduct(u, u), paradiff_apply(dno_principal_symbol(u), u)):
        np.testing.assert_array_equal(out.values, 0.0)
    assert _PAIR_TABLES[grid] == ()


# lengths no other test uses, as above
@pytest.mark.parametrize("lengths, points", [([3.0], [64]), ([3.0, 4.0], [16, 24])],
                         ids=["1d64", "2d16x24"])
def test_pair_table_chunks_the_columns_with_psi(lengths, points):
    grid = make_grid(lengths, points)
    chunks = _pair_table(grid)
    psi = cutoff_psi(grid.abs_wavenumber()).ravel()
    np.testing.assert_array_equal(np.concatenate([c[0] for c in chunks]), np.flatnonzero(psi))
    if grid.dim == 2:
        assert len(chunks) > 1
    meshes = [km.ravel() for km in grid.wavenumber_meshes()]
    for cols, psi_c, k, col, xi, zeta, theta in chunks:
        assert 1 <= cols.size <= _CHUNK_PAIRS // grid.size
        np.testing.assert_array_equal(psi_c, psi[cols])
        np.testing.assert_array_equal(k, np.stack([km[cols] for km in meshes], axis=-1))
        assert np.all(np.diff(col) >= 0) and 0 <= col.min() and col.max() < cols.size
        assert col.shape == xi.shape == zeta.shape == theta.shape
        assert np.all(theta != 0.0)
        for arr in (cols, psi_c, k, col, xi, zeta, theta):
            assert not arr.flags.writeable


def cexp(grid, k):
    x = grid.meshes()
    phase = sum(ki * xi for ki, xi in zip(np.atleast_1d(k), x))
    return Field(grid, np.exp(1j * phase))


def exponential_pair_oracle(ell, k):
    """Closed-form T_{e^{i ell x}} e^{i k x} = theta*psi * e^{i(k+ell)x}."""
    w = float(cutoff_theta(abs(ell), abs(k))) * float(cutoff_psi(abs(k)))
    return w


def test_paraproduct_keeps_low_high_pair():
    k, ell = 32, 3  # |ell| <= eps1 |k| with eps1 = 0.1
    a, u = cexp(GRID, ell), cexp(GRID, k)
    out = paraproduct(a, u)
    expected = exponential_pair_oracle(ell, k)
    assert expected == 1.0
    assert np.allclose(out.values, cexp(GRID, k + ell).values, atol=1e-12)


def test_paraproduct_kills_high_low_pair():
    k, ell = 4, 8  # |ell| >= eps2 |k|
    out = paraproduct(cexp(GRID, ell), cexp(GRID, k))
    assert exponential_pair_oracle(ell, k) == 0.0
    assert np.max(np.abs(out.values)) < 1e-13


def test_paraproduct_transition_weight_matches_oracle():
    k, ell = 40, 6  # eps1|k| < |ell| < eps2|k|: smooth transition region
    out = paraproduct(cexp(GRID, ell), cexp(GRID, k))
    w = exponential_pair_oracle(ell, k)
    assert 0.0 < w < 1.0
    assert np.allclose(out.values, w * cexp(GRID, k + ell).values, atol=1e-12)


def test_paraproduct_annihilates_constants():
    a = field_from_function(GRID, lambda x: 1.0 + 0.5 * np.cos(2 * x))
    u = Field(GRID, np.full(GRID.shape, 3.0))
    out = paraproduct(a, u)
    assert np.max(np.abs(out.values)) < 1e-13


def test_paraproduct_linearity():
    rng = np.random.default_rng(0)

    def rand_field(seed):
        spec = np.zeros(GRID.shape, dtype=complex)
        band = GRID.abs_wavenumber() <= 20
        r = np.random.default_rng(seed)
        spec[band] = r.normal(size=band.sum()) + 1j * r.normal(size=band.sum())
        return Field(GRID, np.fft.ifftn(spec).real)

    a, b, u = rand_field(1), rand_field(2), rand_field(3)
    lhs = paraproduct(a + 2.0 * b, u)
    rhs = paraproduct(a, u) + 2.0 * paraproduct(b, u)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11


def test_frequency_localization_single_mode():
    k = 30
    a = field_from_function(GRID, lambda x: np.cos(2 * x) + np.sin(9 * x))
    u = cexp(GRID, k)
    out_hat = np.fft.fftn(paraproduct(a, u).values)
    ks = GRID.wavenumbers[0]
    active = np.abs(out_hat) > 1e-10 * np.max(np.abs(out_hat))
    assert np.all(np.abs(ks[active] - k) <= EPS2 * k + 1e-9)


def test_blockwise_agrees_where_both_exact():
    # ratios <= 1/16 make theta = 1 in both realizations; k + ell stays
    # below the Nyquist mode 64, which the lattice kernel leaves out
    k, ell = 60, 3
    a, u = cexp(GRID, ell), cexp(GRID, k)
    direct = paraproduct(a, u)
    block = paraproduct_blockwise(a, u, DD)
    assert np.max(np.abs(direct.values - block.values)) < 1e-8


def test_blockwise_close_on_smooth_data():
    a = field_from_function(GRID, lambda x: 1.0 + 0.3 * np.cos(x))
    u = field_from_function(GRID, lambda x: np.sin(25 * x))
    direct = paraproduct(a, u)
    block = paraproduct_blockwise(a, u, DD)
    # same operator up to block-boundary discretization; high-band content agrees
    assert norm_l2(direct - block) < 0.15 * norm_l2(direct)


@pytest.mark.parametrize("lengths, points", [([2 * np.pi], [32]),
                                             ([2 * np.pi, 3 * np.pi], [12, 16])],
                         ids=["1d32", "2d12x16"])
def test_symbol_table_rows_are_one_row_values(lengths, points):
    import warnings

    from wavestrip.symmetrizer import dno_principal_symbol, symmetrizer_symbol

    grid = make_grid(lengths, points)
    x = grid.meshes()
    eta = Field(grid, 0.1 * np.cos(x[0]) + 0.05 * np.sin(sum(x)))
    b = Field(grid, 1.0 + 0.2 * np.cos(x[-1]))
    syms = [dno_principal_symbol(eta), symmetrizer_symbol(b, eta),
            x_independent_symbol(1.0, lambda xi: np.sqrt(1.0 + np.sum(xi ** 2, axis=-1))),
            separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1))]
    xis = np.stack([k.ravel() for k in grid.wavenumber_meshes()], axis=-1)
    assert not xis[0].any()
    xis = xis[1:]  # the kernel never tabulates xi = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no symbol is evaluated where it is undefined
        for sym in syms:
            table = sym._rows(grid, xis)
            for row, xi in zip(table, xis):
                np.testing.assert_array_equal(row, sym.values(grid, xi))
        assert np.isfinite(symbol_seminorm(syms[1], grid))
        u = Field(grid, np.cos(5 * x[0]) + np.sin(3 * x[-1]))
        assert np.all(np.isfinite(paradiff_apply(syms[1], u).values))


@pytest.mark.parametrize("lengths, points", [([2 * np.pi], [64]),
                                             ([2 * np.pi, 3 * np.pi], [16, 24])],
                         ids=["1d64", "2d16x24"])
def test_kernel_never_tabulates_the_origin(lengths, points):
    # psi(0) = 0 drops the column eta = 0 even when u has a mean, so a
    # symbol that is NaN at xi = 0 gives the same T_a u as |xi|
    grid = make_grid(lengths, points)
    x = grid.meshes()
    b = Field(grid, 1.0 + 0.2 * np.cos(x[-1]))
    u = Field(grid, 0.7 + np.cos(3 * x[0]) + np.random.default_rng(2).normal(size=grid.shape))
    assert abs(np.mean(u.values)) > 0.5
    stacks = []

    def nan_at_origin(xis):
        stacks.append(xis.copy())
        r = np.linalg.norm(xis, axis=-1)
        return np.where(r > 0, r, np.nan)

    out = paradiff_apply(separable_symbol(b, 1.0, nan_at_origin), u)
    assert stacks
    assert all(np.any(xis != 0.0, axis=1).all() for xis in stacks)
    assert np.all(np.isfinite(out.values))
    abs_xi = separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1))
    np.testing.assert_array_equal(out.values, paradiff_apply(abs_xi, u).values)
    # one NaN sample makes every u^(eta) NaN, and psi(0) NaN is not zero;
    # the column eta = 0 still does not enter
    spoiled = np.cos(3 * x[0])
    spoiled.flat[5] = np.nan
    stacks.clear()
    paradiff_apply(separable_symbol(b, 1.0, nan_at_origin), Field(grid, spoiled))
    assert stacks
    assert all(np.any(xis != 0.0, axis=1).all() for xis in stacks)


def test_paradiff_multiplier_reduction():
    u = cexp(GRID, 4)
    sym = x_independent_symbol(1.0, lambda xi: np.linalg.norm(xi, axis=-1))
    out = paradiff_apply(sym, u)
    assert np.allclose(out.values, 4.0 * u.values, atol=1e-11)


def test_paradiff_factorization_route():
    b = field_from_function(GRID, lambda x: 1.0 + 0.4 * np.cos(x))
    k = 24
    u = cexp(GRID, k)
    sym = separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1))
    general = paradiff_apply(sym, u)
    factored = separable_apply(b, lambda km: np.sqrt(np.sum(km ** 2, axis=0)), u)
    assert np.max(np.abs(general.values - factored.values)) < 1e-10


def test_paradiff_dno_symbol_is_multiplier_in_1d():
    # (1 + eta'^2) xi^2 - (eta' xi)^2 = xi^2, so lambda = |xi| identically
    from wavestrip.symmetrizer import dno_principal_symbol

    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    lam = dno_principal_symbol(eta)
    u = cexp(GRID, 9)
    out = paradiff_apply(lam, u)
    ref_vals = 9.0 * u.values  # psi(9) = 1
    assert np.max(np.abs(out.values - ref_vals)) < 1e-10


def test_bony_remainder_theta_one_pair_vanishes():
    k, ell = 32, 3  # k + ell stays inside the 2/3 dealias band
    a, u = cexp(GRID, ell), cexp(GRID, k)
    r = bony_remainder(a, u)
    assert np.max(np.abs(r.values)) < 1e-12


def test_bony_remainder_comparable_pair_is_product():
    a = cexp(GRID, 1)
    r = bony_remainder(a, a)
    assert np.allclose(r.values, cexp(GRID, 2).values, atol=1e-12)


def test_bony_remainder_constant_symbol_is_lowpass():
    c = 2.5
    u = field_from_function(GRID, lambda x: np.cos(12 * x) + 0.5)
    a = Field(GRID, np.full(GRID.shape, c))
    r = bony_remainder(a, u)
    # c*(1 - psi(D)) u : the high mode (psi = 1) is annihilated, the mean kept
    expected = c * 0.5 * np.ones(GRID.shape)
    assert np.allclose(r.values, expected, atol=1e-12)


def test_remainder_smoothing_on_rough_data():
    grid = make_grid([2 * np.pi], [256])
    dd = DyadicDecomposition(grid)
    kabs = grid.abs_wavenumber()
    band = grid.points[0] / 3.0
    decay = np.where((kabs > 0) & (kabs <= band), (1.0 + kabs) ** -2.0, 0.0)

    def rough(seed):
        r = np.random.default_rng(seed)
        phase = np.exp(2j * np.pi * r.uniform(size=grid.shape))
        spec = decay * phase
        spec[0] = 0.0
        spec = spec + np.conj(spec[(-np.arange(grid.points[0])) % grid.points[0]])
        return Field(grid, np.fft.ifftn(spec).real * grid.size ** 0.5)

    a, u = rough(1), rough(2)
    from wavestrip.grid import dealiased_product

    from ulspaces_reference import dyadic_block

    prod = dealiased_product(a, u)
    rem = bony_remainder(a, u)
    js = np.arange(3, 7)  # high blocks inside the dealias band
    slope = lambda f: np.polyfit(
        js, [np.log2(max(norm_l2(dyadic_block(f, int(j), dd)), 1e-300)) for j in js], 1
    )[0]
    assert slope(rem) <= slope(prod) - 0.8


def test_composition_order_gain():
    b = field_from_function(GRID, lambda x: 1.0 + 0.3 * np.cos(x))
    sym_a = separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1), regularity=1.0)
    b2 = Field(GRID, b.values ** 2)
    sym_a2 = separable_symbol(b2, 2.0, lambda xi: np.sum(xi ** 2, axis=-1))
    ratios, ks = [], [8, 16, 32]
    for k in ks:
        u = cexp(GRID, k)
        taa = paradiff_apply(sym_a, paradiff_apply(sym_a, u))
        ta2 = paradiff_apply(sym_a2, u)
        ratios.append(norm_l2(taa - ta2) / norm_l2(ta2))
    slope = np.polyfit(np.log(ks), np.log(ratios), 1)[0]
    assert slope <= -1.0 + 0.2


def test_seminorm_x_independent_bracket_symbol():
    sym = x_independent_symbol(1.0, lambda xi: np.sqrt(1.0 + np.sum(xi ** 2, axis=-1)))
    g = make_grid([2 * np.pi], [64])
    val = symbol_seminorm(sym, g)
    assert np.isfinite(val)
    assert 0.5 < val < 10.0


def test_seminorm_scales_linearly_in_coefficient():
    g = make_grid([2 * np.pi], [64])
    v = field_from_function(g, lambda x: 0.5 + 0.25 * np.sin(x))

    def make(scale):
        vf = Field(g, scale * v.values)
        return separable_symbol(vf, 1.0, lambda xi: 1j * xi[:, 0], regularity=0.5)

    s1 = symbol_seminorm(make(1.0), g)
    s3 = symbol_seminorm(make(3.0), g)
    assert s3 == pytest.approx(3.0 * s1, rel=1e-8)


def test_seminorm_zero_symbol():
    g = make_grid([2 * np.pi], [64])
    sym = x_independent_symbol(1.0, lambda xi: 0.0)
    assert symbol_seminorm(sym, g) == 0.0


def test_symbol_pole_raises_in_every_tabulation():
    # a pole at |xi| = 5 on the 1-D lattice: the paradifferential apply and
    # the seminorm tabulate the symbol and must name the two bad wavenumbers
    grid = make_grid([2 * np.pi], [64])

    def pole(xis):
        with np.errstate(divide="ignore"):
            return 1.0 / (np.sum(xis ** 2, axis=-1) - 25.0)

    sym = x_independent_symbol(-2.0, pole)
    u = Field(grid, np.random.default_rng(3).normal(size=grid.shape))
    bad = r"wavenumbers \[\[-?5\.0\], \[-?5\.0\]\]$"
    with pytest.raises(SymbolDomainError, match=bad):
        paradiff_apply(sym, u)
    with pytest.raises(SymbolDomainError, match=bad):
        symbol_seminorm(sym, grid)


def test_symbol_homogeneity_defect_small():
    from wavestrip.symmetrizer import dno_principal_symbol

    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    lam = dno_principal_symbol(eta)
    assert homogeneity_defect(lam, GRID) < 1e-8


def test_cutoff_pair_support_conditions():
    assert cutoff_psi(1.0) == 1.0 and cutoff_psi(2.0) == 1.0
    assert cutoff_psi(0.5) == 0.0 and cutoff_psi(0.0) == 0.0
    assert float(cutoff_theta(0.05 * 10, 10.0)) == 1.0
    assert float(cutoff_theta(0.25 * 10, 10.0)) == 0.0
    grid_t = np.linspace(0, 3, 50)
    vals = cutoff_theta(grid_t, np.ones_like(grid_t))
    assert np.all((0.0 <= vals) & (vals <= 1.0))
