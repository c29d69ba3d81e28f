from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from wavestrip.grid import Field, field_from_function, make_grid, norm_l2
from wavestrip.ulspaces import (
    DyadicDecomposition,
    PartitionOfUnity,
    bump_profile,
    ul_sobolev_norm,
)

from ulspaces_reference import dyadic_block, holder_norm, zygmund_norm

GRID = make_grid([2 * np.pi], [256])
POU = PartitionOfUnity(GRID)
DD = DyadicDecomposition(GRID)


def corpus(grid):
    rng = np.random.default_rng(42)
    x = grid.axes()[0]
    fields = [
        Field(grid, np.ones(grid.shape)),
        Field(grid, np.cos(x)),
        Field(grid, np.sin(5 * x) + 0.3 * np.cos(11 * x)),
        Field(grid, np.exp(-8.0 * np.minimum(x, 2 * np.pi - x) ** 2)),
    ]
    spec = np.zeros(grid.shape, dtype=complex)
    band = grid.abs_wavenumber() <= 20
    spec[band] = rng.normal(size=band.sum()) + 1j * rng.normal(size=band.sum())
    fields.append(Field(grid, np.fft.ifftn(spec).real))
    return fields


def test_window_sum_is_one():
    assert np.max(np.abs(POU.windows.sum(axis=0) - 1.0)) < 1e-12


def test_window_sum_is_one_2d():
    g2 = make_grid([2 * np.pi, 4.0], [32, 16])
    pou2 = PartitionOfUnity(g2)
    assert np.max(np.abs(pou2.windows.sum(axis=0) - 1.0)) < 1e-12


def test_constant_field_norm_matches_window_l2():
    u = Field(GRID, np.ones(GRID.shape))
    norms = [norm_l2(Field(GRID, chi)) for chi in POU.windows]
    assert ul_sobolev_norm(u, 0.0, POU) == pytest.approx(max(norms), rel=1e-12)
    # translation invariance up to sub-cell sampling offsets of the centers
    assert max(norms) - min(norms) < 1e-6 * max(norms)


def test_windowed_norm_of_cosine_against_quadrature():
    # independent oracle: direct quadrature of the periodized window profile
    u = field_from_function(GRID, np.cos)
    L = GRID.lengths[0]
    n_q = len(POU.windows)
    spacing = L / n_q

    def raw(xx, c):
        d = (xx - c + L / 2.0) % L - L / 2.0
        return bump_profile(d / spacing, 0.5, 1.0)

    def normalized(xx, q):
        total = sum(raw(xx, L * p / n_q) for p in range(n_q))
        return raw(xx, L * q / n_q) / total

    oracle = 0.0
    for q in range(n_q):
        val, _ = quad(lambda xx: (normalized(xx, q) * np.cos(xx)) ** 2, 0.0, L,
                      limit=400)
        oracle = max(oracle, np.sqrt(val))
    assert ul_sobolev_norm(u, 0.0, POU) == pytest.approx(oracle, rel=5e-4)


def test_localized_bump_attained_at_nearest_window():
    from wavestrip.grid import bessel_potential

    grid2 = make_grid([2 * np.pi, 4.0], [32, 16])
    for grid, pou in [(GRID, POU), (grid2, PartitionOfUnity(grid2))]:
        c = pou.centers[2]
        u = field_from_function(grid, lambda *x: np.exp(-20.0 * sum(
            ((xi - ci + L / 2) % L - L / 2) ** 2 for xi, ci, L in zip(x, c, grid.lengths))))
        for s in (0.0, 0.5, 1.0, 2.0):
            # the per-window loop the batched norm replaced
            vals = [
                norm_l2(bessel_potential(Field(grid, chi * u.values), s))
                for chi in pou.windows
            ]
            assert int(np.argmax(vals)) == 2
            assert ul_sobolev_norm(u, s, pou) == pytest.approx(max(vals), rel=1e-13)


def test_partition_from_another_grid_is_rejected():
    u = field_from_function(make_grid([4 * np.pi], [64]), np.cos)
    with pytest.raises(ValueError, match="another grid"):
        ul_sobolev_norm(u, 1.0, PartitionOfUnity(make_grid([2 * np.pi], [64])))


def test_monotonicity_in_s():
    for u in corpus(GRID):
        assert ul_sobolev_norm(u, 0.5, POU) <= ul_sobolev_norm(u, 1.5, POU) + 1e-12


def test_window_choice_changes_norm_by_bounded_ratio():
    # another window family, 1 up to a quarter spacing and 0 from 0.9 of one,
    # built on POU's centers the way PartitionOfUnity builds its own
    L = GRID.lengths[0]
    spacing = L / len(POU.centers)
    x = GRID.axes()[0]
    raw = np.stack([bump_profile(((x - c + L / 2.0) % L - L / 2.0) / spacing, 0.25, 0.9)
                    for (c,) in POU.centers])
    alt = SimpleNamespace(grid=GRID, windows=raw / raw.sum(axis=0))
    for u in corpus(GRID):
        a = ul_sobolev_norm(u, 1.0, POU)
        b = ul_sobolev_norm(u, 1.0, alt)
        if a == 0 and b == 0:
            continue
        assert 0.1 <= a / b <= 10.0


def test_dyadic_partition_of_unity_on_lattice():
    kabs = np.sqrt(-GRID.half_laplacian_symbol)
    total = DD.block_multipliers.sum(axis=0)
    resolved = kabs <= 2.0 ** DD.jmax
    assert np.max(np.abs(total[resolved] - 1.0)) < 1e-10


def test_block_disjointness():
    # blocks two or more indices apart share no mode
    blocks = DD.block_multipliers
    for j in range(len(blocks)):
        for k in range(len(blocks)):
            if abs(j - k) >= 2:
                assert np.max(np.abs(blocks[j] * blocks[k])) == 0.0


def test_single_mode_block_value():
    k0 = 5
    u = field_from_function(GRID, lambda x: np.cos(k0 * x))
    j = 2  # 2 < 5 < 8
    out = dyadic_block(u, j, DD)
    expected = DD.block_multipliers[j + 1][k0] * u.values
    assert np.allclose(out.values, expected, atol=1e-12)


def test_constant_lives_in_low_block():
    u = Field(GRID, np.full(GRID.shape, 2.0))
    assert norm_l2(dyadic_block(u, 2, DD)) < 1e-13
    assert norm_l2(dyadic_block(u, -1, DD)) == pytest.approx(norm_l2(u), rel=1e-12)


def test_block_reconstruction_band_limited():
    u = field_from_function(GRID, lambda x: np.cos(7 * x) + np.sin(23 * x))
    total = np.zeros(GRID.shape)
    for j in range(-1, DD.jmax + 1):
        total += dyadic_block(u, j, DD).values
    assert np.max(np.abs(total - u.values)) < 1e-10


def test_zygmund_single_mode_matches_cutoff_evaluation():
    k0 = 12
    u = field_from_function(GRID, lambda x: np.cos(k0 * x))
    # oracle: the block multipliers evaluated at k0 weight a unit-amplitude mode
    expected = float(np.max(DD.block_multipliers[:, k0]))
    assert zygmund_norm(u, 0.0, DD) == pytest.approx(expected, rel=1e-10)
    assert zygmund_norm(u, 0.0, DD) <= 1.0 + 1e-10


def test_zygmund_zero_field():
    assert zygmund_norm(Field(GRID, np.zeros(GRID.shape)), 1.0, DD) == 0.0


def test_zygmund_growth_across_scales():
    sigma = 0.75
    vals = []
    for j in (3, 4, 5):
        u = field_from_function(GRID, lambda x: np.cos(2.0 ** j * x))
        vals.append(zygmund_norm(u, sigma, DD))
    for j, (a, b) in enumerate(zip(vals, vals[1:])):
        ratio = b / a
        assert 2.0 ** sigma / 2.0 <= ratio <= 2.0 ** sigma * 2.0


def test_embedding_zygmund_by_ul_norm():
    s = 2.0
    ratios = []
    for u in corpus(GRID):
        zn = zygmund_norm(u, s - 0.5, DD)
        un = ul_sobolev_norm(u, s, POU)
        if un > 0:
            ratios.append(zn / un)
    assert max(ratios) < 30.0


def test_holder_norm_is_the_symbol_seminorm_norm_2d():
    from paradiff_reference import separable_symbol, symbol_seminorm

    grid = make_grid([2 * np.pi, 2 * np.pi], [16, 16])
    u = field_from_function(grid, lambda x, y: np.sin(x) + np.sin(2 * y))
    # sup |u| + sup |d_x u| + sup |d_y u| = 2 + 1 + 2
    assert holder_norm(u, 1.0) == pytest.approx(5.0, rel=1e-12)
    # an order-0 symbol constant in xi has seminorm ||u||_{W^{1,inf}}
    sym = separable_symbol(u, 0.0, lambda xi: 1.0, regularity=1.0)
    assert symbol_seminorm(sym, grid) == pytest.approx(holder_norm(u, 1.0), rel=1e-12)


def test_holder_norm_rejects_exponent_above_one():
    with pytest.raises(ValueError):
        holder_norm(Field(GRID, np.ones(GRID.shape)), 2.0)
