import numpy as np
import pytest

from wavestrip.grid import Field, field_from_function, make_grid, norm_l2
from wavestrip.paradiff import (
    CutoffPair,
    ParaSymbol,
    SymbolDomainError,
    bony_remainder,
    paradiff_apply,
    paraproduct,
    separable_symbol,
    symbol_seminorm,
    x_independent_symbol,
)
from wavestrip.ulspaces import DyadicDecomposition

from paradiff_reference import paraproduct_blockwise, separable_apply

GRID = make_grid([2 * np.pi], [128])
CUT = CutoffPair()
DD = DyadicDecomposition(GRID)


def reference_apply(column_hat, u, cut):
    """The per-mode loop the lattice kernel replaced, kept as its reference.

    For every lattice eta with psi(eta) u^(eta) != 0 it rolls the symbol
    spectrum c^_eta = column_hat(k_eta) onto xi = eta + zeta, weights it by
    theta on the resolved differences and accumulates; no vectorization.
    """
    grid = u.grid
    u_hat = np.fft.fftn(u.values)
    km = grid.wavenumber_meshes()
    out = np.zeros(grid.shape, dtype=complex)
    for multi in np.ndindex(*grid.shape):
        k_eta = np.array([grid.wavenumbers[ax][i] for ax, i in enumerate(multi)])
        weight = float(cut.psi(np.linalg.norm(k_eta))) * u_hat[multi]
        if weight == 0.0:
            continue
        mask = np.ones(grid.shape, dtype=bool)
        z2 = np.zeros(grid.shape)
        for ax in range(grid.dim):
            nyq = np.pi * grid.points[ax] / grid.lengths[ax]
            delta = km[ax] - k_eta[ax]
            mask &= (delta >= -nyq - 1e-12) & (delta < nyq - 1e-12)
            z2 = z2 + delta ** 2
        th = np.where(mask, cut.theta(np.sqrt(z2), np.linalg.norm(k_eta)), 0.0)
        out += th * np.roll(column_hat(k_eta), multi, axis=tuple(range(grid.dim))) * weight
    return np.fft.ifftn(out / grid.size)


def symbol_column_hat(sym, grid):
    xm = grid.meshes()
    return lambda k_eta: np.fft.fftn(
        np.broadcast_to(sym.eval(xm, k_eta[None]), (1,) + grid.shape)[0])


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
        ref = reference_apply(lambda k_eta: a_hat, arg, CUT)
        if sym_field.is_real and arg.is_real:
            ref = ref.real
        assert rel_err(paraproduct(sym_field, arg, CUT).values, ref) < 1e-13


@pytest.mark.parametrize("case", kernel_cases(), ids=["1d64", "1d128", "2d16x24"])
def test_paradiff_apply_matches_per_mode_reference(case):
    from wavestrip.dno import dno_principal_symbol
    from wavestrip.symmetrizer import symmetrizer_symbols

    grid, eta, _, u, uc = case
    taylor = Field(grid, 1.0 + 0.2 * np.cos(grid.meshes()[0]))
    _, q = symmetrizer_symbols(taylor, eta)
    for sym in (dno_principal_symbol(eta), q):
        for arg in (u, uc):
            ref = reference_apply(symbol_column_hat(sym, grid), arg, CUT)
            assert rel_err(paradiff_apply(sym, arg, CUT).values, ref) < 1e-13


def test_paraproduct_memory_bound_2d():
    import tracemalloc

    grid = make_grid([2 * np.pi, 2 * np.pi], [64, 64])
    rng = np.random.default_rng(0)
    a = Field(grid, rng.normal(size=grid.shape))
    u = Field(grid, rng.normal(size=grid.shape))
    tracemalloc.start()
    try:
        paraproduct(a, u, CUT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def cexp(grid, k):
    x = grid.meshes()
    phase = sum(ki * xi for ki, xi in zip(np.atleast_1d(k), x))
    return Field(grid, np.exp(1j * phase))


def exponential_pair_oracle(ell, k, cut):
    """Closed-form T_{e^{i ell x}} e^{i k x} = theta*psi * e^{i(k+ell)x}."""
    w = float(cut.theta(abs(ell), abs(k))) * float(cut.psi(abs(k)))
    return w


def test_paraproduct_keeps_low_high_pair():
    k, ell = 32, 3  # |ell| <= eps1 |k| with eps1 = 0.1
    a, u = cexp(GRID, ell), cexp(GRID, k)
    out = paraproduct(a, u, CUT)
    expected = exponential_pair_oracle(ell, k, CUT)
    assert expected == 1.0
    assert np.allclose(out.values, cexp(GRID, k + ell).values, atol=1e-12)


def test_paraproduct_kills_high_low_pair():
    k, ell = 4, 8  # |ell| >= eps2 |k|
    out = paraproduct(cexp(GRID, ell), cexp(GRID, k), CUT)
    assert exponential_pair_oracle(ell, k, CUT) == 0.0
    assert np.max(np.abs(out.values)) < 1e-13


def test_paraproduct_transition_weight_matches_oracle():
    k, ell = 40, 6  # eps1|k| < |ell| < eps2|k|: smooth transition region
    out = paraproduct(cexp(GRID, ell), cexp(GRID, k), CUT)
    w = exponential_pair_oracle(ell, k, CUT)
    assert 0.0 < w < 1.0
    assert np.allclose(out.values, w * cexp(GRID, k + ell).values, atol=1e-12)


def test_paraproduct_annihilates_constants():
    a = field_from_function(GRID, lambda x: 1.0 + 0.5 * np.cos(2 * x))
    u = Field(GRID, np.full(GRID.shape, 3.0))
    out = paraproduct(a, u, CUT)
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
    lhs = paraproduct(a + 2.0 * b, u, CUT)
    rhs = paraproduct(a, u, CUT) + 2.0 * paraproduct(b, u, CUT)
    assert np.max(np.abs(lhs.values - rhs.values)) < 1e-11


def test_frequency_localization_single_mode():
    k = 30
    a = field_from_function(GRID, lambda x: np.cos(2 * x) + np.sin(9 * x))
    u = cexp(GRID, k)
    out_hat = np.fft.fftn(paraproduct(a, u, CUT).values)
    ks = GRID.wavenumbers[0]
    active = np.abs(out_hat) > 1e-10 * np.max(np.abs(out_hat))
    assert np.all(np.abs(ks[active] - k) <= CUT.eps2 * k + 1e-9)


def test_blockwise_agrees_where_both_exact():
    # ratios <= 1/16 make theta = 1 in both realizations
    k, ell = 64, 3
    a, u = cexp(GRID, ell), cexp(GRID, k)
    direct = paraproduct(a, u, CUT)
    block = paraproduct_blockwise(a, u, DD)
    assert np.max(np.abs(direct.values - block.values)) < 1e-8


def test_blockwise_close_on_smooth_data():
    a = field_from_function(GRID, lambda x: 1.0 + 0.3 * np.cos(x))
    u = field_from_function(GRID, lambda x: np.sin(25 * x))
    direct = paraproduct(a, u, CUT)
    block = paraproduct_blockwise(a, u, DD)
    # same operator up to block-boundary discretization; high-band content agrees
    assert norm_l2(direct - block) < 0.15 * norm_l2(direct)


@pytest.mark.parametrize("lengths, points", [([2 * np.pi], [32]),
                                             ([2 * np.pi, 3 * np.pi], [12, 16])],
                         ids=["1d32", "2d12x16"])
def test_symbol_table_rows_are_one_row_values(lengths, points):
    import warnings

    from wavestrip.dno import dno_principal_symbol
    from wavestrip.paradiff import _symbol_table
    from wavestrip.symmetrizer import symmetrizer_symbols

    grid = make_grid(lengths, points)
    x = grid.meshes()
    eta = Field(grid, 0.1 * np.cos(x[0]) + 0.05 * np.sin(sum(x)))
    b = Field(grid, 1.0 + 0.2 * np.cos(x[-1]))
    gamma, q = symmetrizer_symbols(b, eta)
    syms = [dno_principal_symbol(eta), gamma, q,
            x_independent_symbol(1.0, lambda xi: np.sqrt(1.0 + np.sum(xi ** 2, axis=-1))),
            separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1),
                             homogeneous=True)]
    xis = np.stack([k.ravel() for k in grid.wavenumber_meshes()], axis=-1)
    assert not xis[0].any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a homogeneous symbol is never evaluated at 0
        for sym in syms:
            table = _symbol_table(sym, grid, xis)
            if sym.homogeneous:
                assert not table[0].any()
            else:
                np.testing.assert_array_equal(table[0], sym.values(grid, xis[0]))
            for row, xi in zip(table[1:], xis[1:]):
                np.testing.assert_array_equal(row, sym.values(grid, xi))
        assert np.isfinite(symbol_seminorm(q, grid))
        u = Field(grid, np.cos(5 * x[0]) + np.sin(3 * x[-1]))
        assert np.all(np.isfinite(paradiff_apply(q, u, CUT).values))


def test_paradiff_multiplier_reduction():
    u = cexp(GRID, 4)
    sym = x_independent_symbol(1.0, lambda xi: np.linalg.norm(xi, axis=-1), homogeneous=True)
    out = paradiff_apply(sym, u, CUT)
    assert np.allclose(out.values, 4.0 * u.values, atol=1e-11)


def test_paradiff_factorization_route():
    b = field_from_function(GRID, lambda x: 1.0 + 0.4 * np.cos(x))
    k = 24
    u = cexp(GRID, k)
    sym = separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1), homogeneous=True)
    general = paradiff_apply(sym, u, CUT)
    factored = separable_apply(b, lambda km: np.sqrt(np.sum(km ** 2, axis=0)), u, CUT)
    assert np.max(np.abs(general.values - factored.values)) < 1e-10


def test_paradiff_dno_symbol_is_multiplier_in_1d():
    # (1 + eta'^2) xi^2 - (eta' xi)^2 = xi^2, so lambda = |xi| identically
    from wavestrip.dno import dno_principal_symbol

    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    lam = dno_principal_symbol(eta)
    u = cexp(GRID, 9)
    out = paradiff_apply(lam, u, CUT)
    ref_vals = 9.0 * u.values  # psi(9) = 1
    assert np.max(np.abs(out.values - ref_vals)) < 1e-10


def test_bony_remainder_theta_one_pair_vanishes():
    k, ell = 32, 3  # k + ell stays inside the 2/3 dealias band
    a, u = cexp(GRID, ell), cexp(GRID, k)
    r = bony_remainder(a, u, CUT)
    assert np.max(np.abs(r.values)) < 1e-12


def test_bony_remainder_comparable_pair_is_product():
    a = cexp(GRID, 1)
    r = bony_remainder(a, a, CUT)
    assert np.allclose(r.values, cexp(GRID, 2).values, atol=1e-12)


def test_bony_remainder_constant_symbol_is_lowpass():
    c = 2.5
    u = field_from_function(GRID, lambda x: np.cos(12 * x) + 0.5)
    a = Field(GRID, np.full(GRID.shape, c))
    r = bony_remainder(a, u, CUT)
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
    from wavestrip.ulspaces import dyadic_block

    prod = dealiased_product(a, u)
    rem = bony_remainder(a, u, CUT)
    js = np.arange(3, 7)  # high blocks inside the dealias band
    slope = lambda f: np.polyfit(
        js, [np.log2(max(norm_l2(dyadic_block(f, int(j), dd)), 1e-300)) for j in js], 1
    )[0]
    assert slope(rem) <= slope(prod) - 0.8


def test_composition_order_gain():
    b = field_from_function(GRID, lambda x: 1.0 + 0.3 * np.cos(x))
    sym_a = separable_symbol(b, 1.0, lambda xi: np.linalg.norm(xi, axis=-1),
                             regularity=1.0, homogeneous=True)
    b2 = Field(GRID, b.values ** 2)
    sym_a2 = separable_symbol(b2, 2.0, lambda xi: np.sum(xi ** 2, axis=-1), homogeneous=True)
    ratios, ks = [], [8, 16, 32]
    for k in ks:
        u = cexp(GRID, k)
        taa = paradiff_apply(sym_a, paradiff_apply(sym_a, u, CUT), CUT)
        ta2 = paradiff_apply(sym_a2, u, CUT)
        ratios.append(norm_l2(taa - ta2) / norm_l2(ta2))
    slope = np.polyfit(np.log(ks), np.log(ratios), 1)[0]
    assert slope <= -1.0 + 0.2


def test_seminorm_x_independent_bracket_symbol():
    sym = x_independent_symbol(1.0, lambda xi: np.sqrt(1.0 + np.sum(xi ** 2, axis=-1)))
    g = make_grid([2 * np.pi], [64])
    val = symbol_seminorm(sym, g, DyadicDecomposition(g))
    assert np.isfinite(val)
    assert 0.5 < val < 10.0


def test_seminorm_scales_linearly_in_coefficient():
    g = make_grid([2 * np.pi], [64])
    dd = DyadicDecomposition(g)
    v = field_from_function(g, lambda x: 0.5 + 0.25 * np.sin(x))

    def make(scale):
        vf = Field(g, scale * v.values)
        return separable_symbol(vf, 1.0, lambda xi: 1j * xi[:, 0], regularity=0.5,
                                homogeneous=True)

    s1 = symbol_seminorm(make(1.0), g, dd)
    s3 = symbol_seminorm(make(3.0), g, dd)
    assert s3 == pytest.approx(3.0 * s1, rel=1e-8)


def test_seminorm_zero_symbol():
    g = make_grid([2 * np.pi], [64])
    sym = x_independent_symbol(1.0, lambda xi: 0.0)
    assert symbol_seminorm(sym, g, DyadicDecomposition(g)) == 0.0


def test_homogeneous_symbol_rejects_origin():
    sym = x_independent_symbol(1.0, lambda xi: np.linalg.norm(xi, axis=-1), homogeneous=True)
    with pytest.raises(SymbolDomainError):
        sym.values(GRID, np.zeros(1))


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
        paradiff_apply(sym, u, CUT)
    with pytest.raises(SymbolDomainError, match=bad):
        symbol_seminorm(sym, grid)


def test_symbol_homogeneity_defect_small():
    from wavestrip.dno import dno_principal_symbol

    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    lam = dno_principal_symbol(eta)
    assert lam.homogeneity_defect(GRID) < 1e-8


def test_cutoff_pair_support_conditions():
    cut = CutoffPair()
    assert cut.psi(1.0) == 1.0 and cut.psi(2.0) == 1.0
    assert cut.psi(0.5) == 0.0 and cut.psi(0.0) == 0.0
    assert float(cut.theta(0.05 * 10, 10.0)) == 1.0
    assert float(cut.theta(0.25 * 10, 10.0)) == 0.0
    grid_t = np.linspace(0, 3, 50)
    vals = cut.theta(grid_t, np.ones_like(grid_t))
    assert np.all((0.0 <= vals) & (vals <= 1.0))
