"""Paraproducts and paradifferential operators on the periodic lattice.

The operator T_a acts in frequency as

    (T_a u)^(xi) = (1/N) sum_eta theta(xi - eta, eta) a^(xi - eta, eta)
                                 psi(eta) u^(eta),

a lattice convolution in which theta keeps only low-frequency symbol times
high-frequency function interactions and psi kills low frequencies.  One
private kernel evaluates it exactly as the matrix product (Theta o C) psi u^,
with C[xi, eta] = c^_eta(xi - eta) the symbol spectrum at the column's eta,
in fixed-size chunks of eta columns and only on the pairs where theta is not
zero.  ``paraproduct`` (a = a(x)) and ``paradiff_apply`` (a = a(x, xi),
tabulated at every lattice eta) both call it.

A symbol is evaluated on stacks of wavenumbers: ``ParaSymbol.eval(x_meshes,
xis)`` takes xis of shape (m, d) and returns values broadcastable to
(m, *grid.shape), so a chunk of eta columns is tabulated in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.fft as sfft

from wavestrip.grid import Field, PeriodicGrid, dealiased_product, fft, ifft
from wavestrip.ulspaces import DyadicDecomposition, holder_norms, smooth_step


class SymbolDomainError(ValueError):
    """Raised for symbol evaluations outside their declared domain."""


@dataclass(frozen=True)
class CutoffPair:
    """Admissible cutoff pair (psi, theta).

    psi(eta) = 1 for |eta| >= 1 and 0 for |eta| <= 1/2; theta(zeta, eta) = 1
    for |zeta| <= eps1*|eta| and 0 for |zeta| >= eps2*|eta|, smooth monotone
    in between.
    """

    eps1: float = 0.1
    eps2: float = 0.2

    def __post_init__(self):
        if not (0.0 < self.eps1 < self.eps2):
            raise ValueError("cutoffs require 0 < eps1 < eps2")

    def psi(self, eta_abs) -> np.ndarray:
        r = np.asarray(eta_abs, dtype=float)
        return smooth_step((r - 0.5) / 0.5)

    def theta(self, zeta_abs, eta_abs) -> np.ndarray:
        z = np.asarray(zeta_abs, dtype=float)
        r = np.asarray(eta_abs, dtype=float)
        out = np.zeros(np.broadcast(z, r).shape)
        pos = r > 0
        t = np.divide(z, r, out=np.full_like(out, np.inf), where=pos)
        return smooth_step((self.eps2 - t) / (self.eps2 - self.eps1))


@dataclass
class ParaSymbol:
    """Symbol a(x, xi) of declared order and spatial regularity rho in [0, 1].

    ``eval(x_meshes, xis)`` takes a stack of wavenumber vectors, shape (m, d),
    and returns values broadcastable to (m, *grid.shape), row i holding
    a(x, xis[i]).  Homogeneous symbols are undefined at xi = 0, advertise
    that with the flag, and are never evaluated there.
    """

    order: float
    regularity: float
    eval: Callable[[tuple, np.ndarray], np.ndarray]
    homogeneous: bool = False

    def _rows(self, grid: PeriodicGrid, xis: np.ndarray) -> np.ndarray:
        """``eval`` on the stack ``xis``, broadcast to (m, *grid.shape) and checked."""
        if self.homogeneous and np.any(np.all(xis == 0.0, axis=1)):
            raise SymbolDomainError("homogeneous symbol evaluated at xi = 0")
        vals = np.broadcast_to(self.eval(grid.meshes(), xis), (len(xis),) + grid.shape)
        finite = np.isfinite(vals).reshape(len(xis), -1).all(axis=1)
        if not finite.all():
            raise SymbolDomainError(
                f"symbol not finite on the wavenumbers {xis[~finite].tolist()}")
        return vals

    def values(self, grid: PeriodicGrid, xi) -> np.ndarray:
        """a(x, xi) on the grid for one wavenumber vector xi: a one-row stack."""
        return self._rows(grid, np.atleast_2d(np.asarray(xi, dtype=float)))[0]

    def homogeneity_defect(self, grid: PeriodicGrid, n_rays: int = 4) -> float:
        """Max relative defect of |xi|^order scaling along lattice rays."""
        steps = np.arange(1, n_rays + 1) * grid.wavenumbers[0][1]  # smallest positive k
        xis = np.zeros((2 * n_rays, grid.dim))
        xis[:, 0] = np.concatenate([steps, 2.0 * steps])
        v1, v2 = np.split(self._rows(grid, xis).reshape(2 * n_rays, -1), 2)
        scale = np.max(np.abs(v1), axis=1) * 2.0 ** self.order
        err = np.max(np.abs(v2 - 2.0 ** self.order * v1), axis=1)
        return float(np.max(np.divide(err, scale, out=np.zeros_like(err), where=scale > 0)))


def x_independent_symbol(order: float, h, regularity: float = 1.0,
                         homogeneous: bool = False) -> ParaSymbol:
    """Symbol a(x, xi) = h(xi), h mapping a stack (m, d) of wavenumbers to (m,)."""
    return ParaSymbol(
        order=order,
        regularity=regularity,
        eval=lambda xm, xis: np.reshape(h(xis), (-1,) + (1,) * len(xm)),
        homogeneous=homogeneous,
    )


def separable_symbol(b: Field, order: float, h, regularity: float = 1.0,
                     homogeneous: bool = False) -> ParaSymbol:
    """Symbol b(x) * h(xi), h mapping a stack (m, d) of wavenumbers to (m,)."""
    return ParaSymbol(
        order=order,
        regularity=regularity,
        eval=lambda xm, xis: b.values * np.reshape(h(xis), (-1,) + (1,) * len(xm)),
        homogeneous=homogeneous,
    )


# (xi, eta) pairs screened per chunk of eta columns; bounds the working set
# (the tracemalloc peak of a 2-D 64^2 paraproduct stays near 2 MB)
_CHUNK_PAIRS = 2 ** 17


def _symbol_table(sym: ParaSymbol, grid: PeriodicGrid, xis: np.ndarray) -> np.ndarray:
    """Values a(x, xi) for the rows xi of ``xis`` (shape (m, d)), stacked first.

    Rows at xi = 0 of a homogeneous symbol, where it is undefined, stay zero
    and are never evaluated; the others are checked like ParaSymbol.values.
    """
    table = np.zeros((len(xis),) + grid.shape, dtype=complex)
    rows = np.any(xis != 0.0, axis=1) if sym.homogeneous else slice(None)
    table[rows] = sym._rows(grid, xis[rows])
    return table


def _lattice_apply(u: Field, cut: CutoffPair, column_spectra) -> np.ndarray:
    """Spectrum of T_a u = (Theta o C) (psi u^) / N.

    Theta[xi, eta] = theta(|xi - eta|, |eta|) where the true difference
    xi - eta lies in the resolved band (0 elsewhere), and C[xi, eta] =
    c^_eta((xi - eta) mod N).  ``column_spectra(k_eta)`` maps the wavenumbers
    of a chunk of columns (shape (m, d)) to the spectra c^_eta, shape
    (m, *grid.shape), or to one spectrum of shape grid.shape shared by all.
    Only columns with psi(eta) u^(eta) != 0 enter, and since theta vanishes
    for |xi - eta| >= eps2 |eta| only the pairs inside that ball are formed.
    """
    grid = u.grid
    weights = (cut.psi(grid.abs_wavenumber()) * fft(u)).ravel()
    active = np.flatnonzero(weights)
    # signed lattice index of the nodes along each axis, in FFT order
    signed = [(np.arange(n) + n // 2) % n - n // 2 for n in grid.points]
    scale = [2.0 * np.pi / L for L in grid.lengths]
    out = np.zeros(grid.size, dtype=complex)
    per_chunk = max(1, _CHUNK_PAIRS // grid.size)
    for start in range(0, active.size, per_chunk):
        chunk = active[start:start + per_chunk]
        cols = np.unravel_index(chunk, grid.shape)
        k_eta = np.stack([k[c] for k, c in zip(grid.wavenumbers, cols)], axis=-1)
        eta_abs = np.sqrt(np.sum(k_eta ** 2, axis=-1))
        # |xi - eta|^2 over (xi axes..., column), infinite where unresolved
        zeta2 = 0.0
        for ax, n in enumerate(grid.points):
            along = [1] * (grid.dim + 1)
            along[ax] = n
            diff = signed[ax].reshape(along) - signed[ax][cols[ax]]
            ok = (diff >= -(n // 2)) & (diff < n // 2)
            zeta2 = zeta2 + np.where(ok, (diff * scale[ax]) ** 2, np.inf)
        *xi, col = np.nonzero(zeta2 < (cut.eps2 * eta_abs) ** 2)
        zeta = tuple((x - c[col]) % n for x, c, n in zip(xi, cols, grid.points))
        spectra = np.broadcast_to(np.asarray(column_spectra(k_eta)),
                                  (len(k_eta),) + grid.shape)
        vals = (cut.theta(np.sqrt(zeta2[(*xi, col)]), eta_abs[col])
                * spectra[(col, *zeta)] * weights[chunk][col])
        flat = np.ravel_multi_index(tuple(xi), grid.shape)
        out += np.bincount(flat, vals.real, grid.size) + 1j * np.bincount(flat, vals.imag, grid.size)
    return out.reshape(grid.shape) / grid.size


def paraproduct(a: Field, u: Field, cut: CutoffPair | None = None) -> Field:
    """T_a u for an x-dependent, xi-independent symbol a."""
    if cut is None:
        cut = CutoffPair()
    if a.grid is not u.grid and a.grid != u.grid:
        raise ValueError("paraproduct requires a shared grid")
    a_hat = fft(a)
    out = _lattice_apply(u, cut, lambda k_eta: a_hat)
    return ifft(u.grid, out, real=a.is_real and u.is_real)


def paradiff_apply(sym: ParaSymbol, u: Field, cut: CutoffPair | None = None) -> Field:
    """T_a u for a general symbol a(x, xi), tabulated at the lattice eta."""
    if cut is None:
        cut = CutoffPair()
    grid = u.grid
    axes = tuple(range(1, grid.dim + 1))
    out = _lattice_apply(
        u, cut, lambda k_eta: sfft.fftn(_symbol_table(sym, grid, k_eta), axes=axes))
    return ifft(grid, out)


def bony_remainder(a: Field, u: Field, cut: CutoffPair | None = None) -> Field:
    """R(a, u) = au - T_a u - T_u a (product dealiased)."""
    if cut is None:
        cut = CutoffPair()
    prod = dealiased_product(a, u)
    return prod - paraproduct(a, u, cut) - paraproduct(u, a, cut)


def _multi_indices(dim: int, max_order: int):
    if dim == 1:
        return [(n,) for n in range(max_order + 1)]
    return [(i, j) for i in range(max_order + 1) for j in range(max_order + 1 - i)]


def symbol_seminorm(sym: ParaSymbol, grid: PeriodicGrid,
                    dd: DyadicDecomposition | None = None) -> float:
    """Estimate of the order-m seminorm M^m_rho(a) on the resolved lattice.

    xi-derivatives up to order 2d+2 are taken by finite differences on the
    (monotonically ordered) wavenumber lattice; the x-norm is
    ``ulspaces.holder_norms`` (Zygmund for fractional rho).
    """
    if dd is None:
        dd = DyadicDecomposition(grid)
    d = grid.dim
    sorted_axes = [np.sort(w) for w in grid.wavenumbers]
    xi_mesh = np.meshgrid(*sorted_axes, indexing="ij")
    xi_shape = xi_mesh[0].shape
    xis = np.stack([k.ravel() for k in xi_mesh], axis=-1)
    table = _symbol_table(sym, grid, xis).reshape(xi_shape + grid.shape)

    xi_abs = np.sqrt(sum(k ** 2 for k in xi_mesh))
    lattice_mask = xi_abs >= 0.5
    bracket = np.sqrt(1.0 + xi_abs ** 2)
    spacings = [w[1] - w[0] for w in sorted_axes]

    best = 0.0
    for alpha in _multi_indices(d, 2 * d + 2):
        der = table
        for ax in range(d):
            for _ in range(alpha[ax]):
                der = np.gradient(der, spacings[ax], axis=ax)
        wnorms = holder_norms(der, grid, sym.regularity, dd)
        weighted = bracket ** (sum(alpha) - sym.order) * wnorms
        cand = float(np.max(np.where(lattice_mask, weighted, 0.0)))
        best = max(best, cand)
    return best
