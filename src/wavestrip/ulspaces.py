"""Uniformly local Sobolev norms, Littlewood-Paley blocks, Hoelder norms.

The uniformly local H^s norm of u is the max over window translates q of
||<D>^s (chi_q u)||_{L^2}, where the chi_q form a smooth partition of unity.
On the torus the translate set is finite (one window per unit of period).
The W^{rho,inf} norms (Zygmund for fractional rho) run over the dyadic
blocks of ``DyadicDecomposition``; ``holder_norms`` builds the blocks of
its grid and batches the norms over leading axes.  The solver does not
call them: they are kept to measure the Hoelder loss of the flow.  The
windowed <D>^s and the blocks are Fourier multipliers on the rfft half
spectrum, applied by ``grid.apply_half_symbols``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from wavestrip.grid import Field, PeriodicGrid, apply_half_symbols, gradient_x


def smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g = np.where(1.0 - t > 0.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return f / (f + g)


def bump_profile(r: np.ndarray, flat: float, zero: float) -> np.ndarray:
    """Even C-infinity bump of |r|: 1 for |r| <= flat, 0 for |r| >= zero;
    the windows take (0.5, 1) and the dyadic lowpass (1, 2)."""
    r = np.abs(np.asarray(r, dtype=float))
    return smooth_step((zero - r) / (zero - flat))


@dataclass
class PartitionOfUnity:
    """Window family chi_q on the torus with sum_q chi_q = 1 at every node.

    Each axis of period L carries n_q = max(1, round(L)) centers L q / n_q
    and one 1-D bump (standard exp(-1/t) mollifier construction) per center,
    of the distance wrapped to [-L/2, L/2) over the spacing L / n_q: 1 up to
    half a spacing and 0 from one spacing on.  The raw windows are the
    tensor products of those bumps, one per center tuple in ``centers``
    (row-major over the axes); renormalizing by the window sum makes the
    partition identity exact.
    """

    grid: PeriodicGrid
    centers: list[tuple[float, ...]] = field(init=False, repr=False)
    windows: np.ndarray = field(init=False, repr=False)  # (windows, *grid.shape)

    def __post_init__(self):
        dim = self.grid.dim
        raw, axis_centers = np.ones(()), []
        for ax, (L, x) in enumerate(zip(self.grid.lengths, self.grid.axes())):
            n_q = max(1, int(round(L)))
            axis_centers.append(L * np.arange(n_q) / n_q)
            wrapped = (x - axis_centers[-1][:, None] + L / 2.0) % L - L / 2.0
            bumps = bump_profile(wrapped / (L / n_q), 0.5, 1.0)
            # centers of this axis on axis ax, its nodes on axis dim + ax
            shape = [1] * (2 * dim)
            shape[ax], shape[dim + ax] = bumps.shape
            raw = raw * bumps.reshape(shape)
        raw = raw.reshape(-1, *self.grid.shape)
        total = raw.sum(axis=0)
        if np.min(total) <= 0:
            raise ValueError("window family does not cover the torus")
        self.windows = raw / total
        self.centers = list(product(*axis_centers))


def ul_sobolev_norm(u: Field, s: float, pou: PartitionOfUnity) -> float:
    """sup over windows q of ||<D>^s (chi_q u)||_{L^2} on the torus (pou on u's grid)."""
    grid = u.grid
    if pou.grid != grid:
        raise ValueError("the partition of unity was built on another grid")
    pieces = apply_half_symbols(pou.windows * u.values, grid,
                                (grid.half_bessel_symbol(s),))[0]
    sq = np.sum(np.abs(pieces) ** 2, axis=tuple(range(1, grid.dim + 1)))
    return float(np.sqrt(np.max(sq) * grid.cell_volume))


@dataclass
class DyadicDecomposition:
    """Littlewood-Paley blocks Delta_j, j = -1 .. jmax, as Fourier multipliers.

    Block -1 is the low ball |xi| <= 1; block j >= 0 lives on the annulus
    2^(j-1) <= |xi| <= 2^(j+1).  The multipliers telescope exactly, so the
    reconstruction sum is exact (to round-off) for band-limited input.
    ``block_multipliers``, shape (jmax + 2, *grid.half_shape), holds them
    on the rfft half spectrum, |xi| = sqrt(-grid.half_laplacian_symbol);
    row j + 1 is Delta_j.
    """

    grid: PeriodicGrid
    jmax: int = field(init=False)
    block_multipliers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        kabs = np.sqrt(-self.grid.half_laplacian_symbol)
        self.jmax = int(np.floor(np.log2(self.grid.resolved_kmax())))
        theta = [self._theta(kabs / 2.0 ** j) for j in range(-1, self.jmax + 2)]
        blocks = [theta[0]]  # j = -1: Theta(2|xi|)
        for j in range(0, self.jmax + 1):
            blocks.append(theta[j + 1] - theta[j])
        self.block_multipliers = np.stack(blocks)

    @staticmethod
    def _theta(r: np.ndarray) -> np.ndarray:
        # radial lowpass: 1 for r <= 1, 0 for r >= 2
        return bump_profile(r, flat=1.0, zero=2.0)


def _zygmund_norms(values: np.ndarray, grid: PeriodicGrid, sigma: float,
                   dd: DyadicDecomposition) -> np.ndarray:
    """max_j 2^(j*sigma) ||Delta_j v||_{L^inf} over the trailing grid axes."""
    pieces = apply_half_symbols(values, grid, dd.block_multipliers)
    sups = np.max(np.abs(pieces), axis=tuple(range(-grid.dim, 0)))
    weights = 2.0 ** (sigma * np.arange(-1, dd.jmax + 1))
    return np.max(np.moveaxis(sups, 0, -1) * weights, axis=-1)


def holder_norms(values: np.ndarray, grid: PeriodicGrid, rho: float) -> np.ndarray:
    """W^{rho,inf} norms over the trailing grid axes of ``values``; leading axes batch.

    rho = 0: sup |v|; rho = 1: sup |v| + sum_i sup |d_i v| (spectral); 0 < rho < 1:
    max(sup |v|, Zygmund norm over the blocks of ``grid``), the scales
    coinciding for fractional exponents.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"Hoelder exponent must lie in [0, 1], got {rho}")
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    sup = np.max(np.abs(values), axis=axes)
    if rho == 0.0:
        return sup
    if rho == 1.0:
        grads = gradient_x(values, grid)
        return sup + np.sum(np.max(np.abs(grads), axis=tuple(a + 1 for a in axes)), axis=0)
    return np.maximum(sup, _zygmund_norms(values, grid, rho, DyadicDecomposition(grid)))
