"""Paraproducts and paradifferential operators on the periodic lattice.

The operator T_a acts in frequency as

    (T_a u)^(xi) = (1/N) sum_eta theta(xi - eta, eta) a^(xi - eta, eta)
                                 psi(eta) u^(eta),

a lattice convolution in which theta keeps only low-frequency symbol times
high-frequency function interactions and psi kills low frequencies.  The
calculus needs one admissible cutoff pair (psi, theta), fixed once and for
all: psi switches on between |eta| = 1/2 and 1, and theta switches off
between |zeta| = EPS1 |eta| and EPS2 |eta| (0.1 and 0.2), both through
``ulspaces.smooth_step``; ``cutoff_psi`` and ``cutoff_theta`` evaluate them.
One private kernel evaluates T_a u exactly as the matrix product
(Theta o C) psi u^, with C[xi, eta] = c^_eta(xi - eta) the symbol spectrum
at the column's eta, in fixed-size chunks of eta columns and only on the
pairs where theta is not zero.  Those chunks and pairs depend on the grid
alone: ``_pair_table`` screens them once per grid, on first use, chunk by
chunk, and ``_PAIR_TABLES`` keeps them while the grid lives, so a call
walks the stored chunks and only weights, tabulates, gathers and sums.
``paraproduct`` (a = a(x)) and ``paradiff_apply`` (a = a(x, xi), tabulated
at every column eta of the table, where psi(eta) != 0, so never at
eta = 0) both call it.
Its band is symmetric: along each axis the Nyquist index, which has no
mirror, is neither a row xi nor a column eta, and |xi - eta| < N/2; so a
Hermitian symbol maps real data to a real T_a u.  A convolution in
frequency, the kernel alone in the package takes full complex transforms.

A symbol is evaluated on stacks of wavenumbers: ``ParaSymbol.eval(xis)``
takes xis of shape (m, d) and returns values broadcastable to
(m, *grid.shape), so a chunk of eta columns is tabulated in one call; its
x dependence is carried by the fields the symbol closes over.
The symmetrizer needs only these two operators; the symbol seminorm, the
Bony remainder and the x-independent and separable symbol builders are
reference checks of the calculus and live with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np
import scipy.fft as sfft

from wavestrip.grid import Field, PeriodicGrid, _read_only
from wavestrip.ulspaces import smooth_step


class SymbolDomainError(ValueError):
    """Raised when a symbol is not finite on a wavenumber it is evaluated at."""


# theta(zeta, eta) = 1 for |zeta| <= EPS1 |eta| and 0 for |zeta| >= EPS2 |eta|
EPS1 = 0.1
EPS2 = 0.2


def cutoff_psi(eta_abs) -> np.ndarray:
    """psi(eta) from |eta|: 0 for |eta| <= 1/2, 1 for |eta| >= 1, smooth and
    monotone in between."""
    r = np.asarray(eta_abs, dtype=float)
    return smooth_step((r - 0.5) / 0.5)


def cutoff_theta(zeta_abs, eta_abs) -> np.ndarray:
    """theta(zeta, eta) from |zeta| and |eta|: 1 for |zeta| <= EPS1 |eta|, 0 for
    |zeta| >= EPS2 |eta| (and for eta = 0), smooth and monotone in between."""
    z = np.asarray(zeta_abs, dtype=float)
    r = np.asarray(eta_abs, dtype=float)
    out = np.zeros(np.broadcast(z, r).shape)
    pos = r > 0
    t = np.divide(z, r, out=np.full_like(out, np.inf), where=pos)
    return smooth_step((EPS2 - t) / (EPS2 - EPS1))


@dataclass
class ParaSymbol:
    """Symbol a(x, xi) of declared order and spatial regularity rho in [0, 1].

    ``eval(xis)`` takes a stack of wavenumber vectors, shape (m, d), and
    returns values broadcastable to (m, *grid.shape), row i holding
    a(x, xis[i]).  The kernel never evaluates xi = 0: psi(0) = 0 drops that
    column, so a symbol homogeneous in xi, such as lambda or q, need not be
    defined there.  Symbols are Hermitian, a(x, -xi) = conj a(x, xi), as
    lambda, q, |xi|, <xi>, |xi|^2, i xi_1 and b(x) h(xi) with b real and h
    Hermitian are.
    """

    order: float
    regularity: float
    eval: Callable[[np.ndarray], np.ndarray]

    def _rows(self, grid: PeriodicGrid, xis: np.ndarray) -> np.ndarray:
        """``eval`` on the stack ``xis``, broadcast to (m, *grid.shape) and checked."""
        vals = np.broadcast_to(self.eval(xis), (len(xis),) + grid.shape)
        finite = np.isfinite(vals).reshape(len(xis), -1).all(axis=1)
        if not finite.all():
            raise SymbolDomainError(
                f"symbol not finite on the wavenumbers {xis[~finite].tolist()}")
        return vals

    def values(self, grid: PeriodicGrid, xi) -> np.ndarray:
        """a(x, xi) on the grid for one wavenumber vector xi: a one-row stack."""
        return self._rows(grid, np.atleast_2d(np.asarray(xi, dtype=float)))[0]


# (xi, eta) pairs per chunk of eta columns, fixed at the screening and
# walked by each call; bounds the working set (a 2-D 64^2 paraproduct peaks
# near 10 MB of tracemalloc when it screens the grid, 8.6 MB of it the
# table it keeps, and a cached call adds 0.5 MB to the table)
_CHUNK_PAIRS = 2 ** 17


# per grid, the kernel's pair table; an entry lives as long as its grid
_PAIR_TABLES: WeakKeyDictionary = WeakKeyDictionary()


def _pair_table(grid: PeriodicGrid) -> tuple[tuple[np.ndarray, ...], ...]:
    """The kernel's band on ``grid`` in chunks of columns, screened on first
    use and shared, read-only, afterwards.

    A pair (xi, eta) is in the band when |xi|, |eta| and |xi - eta| are
    below N/2 along each axis in signed lattice indices (the Nyquist index
    is neither a row nor a column) and theta(|xi - eta|, |eta|) != 0, which
    needs |xi - eta| < EPS2 |eta|.  The columns eta with psi(eta) != 0 are
    taken in ascending flat order, ``_CHUNK_PAIRS // N`` at a time, and each
    chunk is (cols, psi, k, col, xi, zeta, theta): the flat indices cols of
    its columns, psi there and their wavenumbers k, shape (m, d); and its
    pairs, grouped by column: the chunk-local column col, xi (flat), zeta
    (flat (xi - eta) mod N) and theta.  A grid without such columns has no
    chunks.
    """
    table = _PAIR_TABLES.get(grid)
    if table is not None:
        return table
    psi = cutoff_psi(grid.abs_wavenumber()).ravel()
    cols = np.flatnonzero(psi)
    at = np.unravel_index(cols, grid.shape)
    k = np.stack([kx[c] for kx, c in zip(grid.wavenumbers, at)], axis=-1)
    eta_abs = np.sqrt(np.sum(k ** 2, axis=-1))
    # signed lattice index of the nodes along each axis, in FFT order
    signed = [(np.arange(n) + n // 2) % n - n // 2 for n in grid.points]
    inside = [np.abs(s) < n // 2 for s, n in zip(signed, grid.points)]  # not Nyquist
    scale = [2.0 * np.pi / L for L in grid.lengths]
    column = (-1,) + (1,) * grid.dim
    chunks = []
    per_chunk = max(1, _CHUNK_PAIRS // grid.size)
    for start in range(0, cols.size, per_chunk):
        chunk = slice(start, start + per_chunk)
        # |xi - eta|^2 over (column, xi axes...), infinite where unresolved
        zeta2 = 0.0
        for ax, n in enumerate(grid.points):
            along = [1] * (grid.dim + 1)
            along[ax + 1] = n
            c = at[ax][chunk].reshape(column)
            diff = signed[ax].reshape(along) - signed[ax][c]
            ok = inside[ax].reshape(along) & inside[ax][c] & (np.abs(diff) < n // 2)
            zeta2 = zeta2 + np.where(ok, (diff * scale[ax]) ** 2, np.inf)
        col, *xi = np.nonzero(zeta2 < (EPS2 * eta_abs[chunk].reshape(column)) ** 2)
        theta = cutoff_theta(np.sqrt(zeta2[(col, *xi)]), eta_abs[chunk][col])
        keep = theta != 0.0
        col, xi = col[keep], [x[keep] for x in xi]
        zeta = [(x - a[chunk][col]) % n for x, a, n in zip(xi, at, grid.points)]
        chunks.append(tuple(_read_only(a) for a in (
            cols[chunk], psi[cols[chunk]], k[chunk], col, np.ravel_multi_index(xi, grid.shape),
            np.ravel_multi_index(zeta, grid.shape), theta[keep])))
    table = tuple(chunks)
    _PAIR_TABLES[grid] = table
    return table


def _lattice_apply(u: Field, column_spectra, real: bool) -> Field:
    """T_a u = ifftn((Theta o C) (psi u^) / N), real part only when ``real``.

    Theta[xi, eta] = theta(|xi - eta|, |eta|) on the band of ``_pair_table``
    (0 elsewhere), and C[xi, eta] = c^_eta((xi - eta) mod N).
    ``column_spectra(k_eta)`` maps the wavenumbers of a chunk of columns
    (shape (m, d)) to the spectra c^_eta, shape (m, *grid.shape), or to one
    spectrum of shape grid.shape shared by all.  Every column of the table
    enters, one stored chunk at a time, and the symbol is tabulated on the
    chunk's columns; a column with u^(eta) = 0 adds exact zeros.  Each xi
    bin sums its terms in ascending column order.
    """
    grid = u.grid
    u_hat = sfft.fftn(u.values).ravel()
    out = np.zeros(grid.size, dtype=complex)
    for cols, psi, k, col, xi, zeta, theta in _pair_table(grid):
        weights = psi * u_hat[cols]
        spectra = np.reshape(column_spectra(k), (-1, grid.size))
        vals = theta * spectra[col if len(spectra) > 1 else 0, zeta] * weights[col]
        out += np.bincount(xi, vals.real, grid.size) + 1j * np.bincount(xi, vals.imag, grid.size)
    t_au = sfft.ifftn(out.reshape(grid.shape) / grid.size)
    return Field(grid, t_au.real if real else t_au)


def paraproduct(a: Field, u: Field) -> Field:
    """T_a u for an x-dependent, xi-independent symbol a."""
    if a.grid is not u.grid and a.grid != u.grid:
        raise ValueError("paraproduct requires a shared grid")
    a_hat = sfft.fftn(a.values)
    return _lattice_apply(u, lambda k_eta: a_hat, real=a.is_real and u.is_real)


def paradiff_apply(sym: ParaSymbol, u: Field) -> Field:
    """T_a u for a general symbol a(x, xi), tabulated at the table's columns eta."""
    grid = u.grid
    axes = tuple(range(1, grid.dim + 1))
    return _lattice_apply(
        u, lambda k_eta: sfft.fftn(sym._rows(grid, k_eta), axes=axes),
        real=u.is_real)
