"""Periodic tensor grids, FFT plumbing, and Fourier multipliers.

Everything else in the package is built on the two types defined here:
``PeriodicGrid`` (a d-dimensional periodic sample lattice, d = 1 or 2) and
``Field`` (scalar samples on such a grid).  All derivatives are spectral and
quadratic nonlinearities are expected to go through ``dealiased_product``.

Every Fourier multiplier (derivatives, <D>^s, the heat semigroup, the 2/3
dealiasing rule) goes through ``apply_half_symbols`` on the rfft half
spectrum: one real transform pair, batched over leading axes.
On 1-D grids ``rfft_x``/``irfft_x`` call scipy's one-axis ``rfft``/``irfft``,
which skip the n-D shape and axes handling of ``rfftn``/``irfftn`` and give
the same bits; 2-D grids keep ``rfftn``/``irfftn``.  The full complex
lattice belongs to ``paradiff``, whose paraproduct kernel is a convolution.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.fft as sfft


class InvalidGridError(ValueError):
    """Raised when lengths or points is not a tuple, a period is not finite
    and positive, or a count not an even integer >= 8."""


def is_count(n) -> bool:
    """n is an integer (a numpy integer too) and not a bool."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on a d-dimensional torus of per-axis period L_i.

    Nodes along axis i sit at x = L_i * n / N_i, n = 0..N_i-1, and the
    wavenumber lattice is k = 2*pi*n/L_i in FFT ordering.
    """

    lengths: tuple[float, ...]
    points: tuple[int, ...]
    wavenumbers: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a list would make shape a list and the grid unhashable
        if not (isinstance(self.lengths, tuple) and isinstance(self.points, tuple)):
            raise InvalidGridError("lengths and points must be tuples; make_grid converts")
        if len(self.lengths) != len(self.points):
            raise InvalidGridError("lengths and points must have equal length")
        if len(self.points) not in (1, 2):
            raise InvalidGridError("only 1- and 2-dimensional grids are supported")
        for L, n in zip(self.lengths, self.points):
            if not 0 < L < np.inf:
                raise InvalidGridError(f"period must be positive and finite, got {L}")
            if not is_count(n) or n < 8 or n % 2 != 0:
                raise InvalidGridError(
                    f"point count must be an even integer >= 8, got {n!r}")
        ks = tuple(
            2.0 * np.pi * sfft.fftfreq(n, d=1.0 / n) / L
            for L, n in zip(self.lengths, self.points)
        )
        object.__setattr__(self, "wavenumbers", ks)

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    @property
    def cell_volume(self) -> float:
        return float(np.prod([L / n for L, n in zip(self.lengths, self.points)]))

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            L * np.arange(n) / n for L, n in zip(self.lengths, self.points)
        )

    def meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def wavenumber_meshes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.meshgrid(*self.wavenumbers, indexing="ij"))

    def abs_wavenumber(self) -> np.ndarray:
        km = self.wavenumber_meshes()
        return np.sqrt(sum(k ** 2 for k in km))

    def resolved_kmax(self) -> float:
        """Largest |k| on the lattice (corner of the Nyquist box)."""
        return float(np.sqrt(sum((np.pi * n / L) ** 2 for L, n in zip(self.lengths, self.points))))

    @cached_property
    def half_shape(self) -> tuple[int, ...]:
        """Shape of the rfftn half spectrum (the last axis is halved)."""
        return self.points[:-1] + (self.points[-1] // 2 + 1,)

    @cached_property
    def half_gradient_symbols(self) -> tuple[np.ndarray, ...]:
        """i k_j on the rfftn half spectrum, one per axis, broadcastable to it.

        The Nyquist entry of each derivative is zeroed (odd-symmetry
        convention), so derivatives of real fields stay real.
        """
        out = []
        for ax, n in enumerate(self.points):
            k = self.wavenumbers[ax][: self.half_shape[ax]].copy()
            k[n // 2] = 0.0
            shape = [1] * self.dim
            shape[ax] = len(k)
            out.append(_read_only(1j * k.reshape(shape)))
        return tuple(out)

    @cached_property
    def half_wavenumber_meshes(self) -> tuple[np.ndarray, ...]:
        """Wavenumber meshes on the rfftn half spectrum, one per axis."""
        km = np.meshgrid(*[k[:m] for k, m in zip(self.wavenumbers, self.half_shape)],
                         indexing="ij")
        return tuple(_read_only(k) for k in km)

    @cached_property
    def half_laplacian_symbol(self) -> np.ndarray:
        """-|k|^2 on the rfftn half spectrum, Nyquist modes included."""
        return _read_only(-sum(k ** 2 for k in self.half_wavenumber_meshes))

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """2/3-rule mask on the rfftn half spectrum: 1 on kept modes, 0 elsewhere."""
        keep = np.meshgrid(*[np.abs(sfft.fftfreq(n, d=1.0 / n)[:m]) <= n / 3.0
                             for n, m in zip(self.points, self.half_shape)], indexing="ij")
        return _read_only(np.logical_and.reduce(keep).astype(float))

    def half_bessel_symbol(self, s: float) -> np.ndarray:
        """<k>^s = (1 + |k|^2)^(s/2) on the rfftn half spectrum."""
        return (1.0 - self.half_laplacian_symbol) ** (s / 2.0)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """Freeze a table cached on a grid, which every caller shares."""
    arr.setflags(write=False)
    return arr


def make_grid(lengths, points) -> PeriodicGrid:
    """Build a PeriodicGrid from per-axis periods and integer sample counts."""
    return PeriodicGrid(tuple(float(L) for L in lengths), tuple(points))


@dataclass
class Field:
    """Scalar samples on a PeriodicGrid.  Thin wrapper with arithmetic."""

    grid: PeriodicGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise InvalidGridError(
                f"sample shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    # arithmetic keeps call sites in the time steppers readable
    def __add__(self, other):
        return Field(self.grid, self.values + _vals(other))

    __radd__ = __add__

    def __sub__(self, other):
        return Field(self.grid, self.values - _vals(other))

    def __rsub__(self, other):
        return Field(self.grid, _vals(other) - self.values)

    def __mul__(self, other):
        return Field(self.grid, self.values * _vals(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Field(self.grid, self.values / _vals(other))

    def __neg__(self):
        return Field(self.grid, -self.values)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())


def _vals(x):
    return x.values if isinstance(x, Field) else x


def field_from_function(grid: PeriodicGrid, fn) -> Field:
    """Sample fn(*coordinate meshes) on the grid."""
    return Field(grid, np.asarray(fn(*grid.meshes()), dtype=float))


def _x_axes(grid: PeriodicGrid, ndim: int) -> tuple[int, ...] | None:
    # 2-D only (1-D grids take the one-axis rfft/irfft, which need no axes);
    # None when nothing batches: scipy's axes handling costs microseconds a call
    return None if ndim == grid.dim else tuple(range(ndim - grid.dim, ndim))


def rfft_x(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """rfftn of real samples over the trailing grid axes; leading axes batch."""
    if grid.dim == 1:
        return sfft.rfft(values)
    return sfft.rfftn(values, axes=_x_axes(grid, np.ndim(values)))


def irfft_x(spectrum: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Inverse of rfft_x: real samples from a half spectrum."""
    if grid.dim == 1:
        return sfft.irfft(spectrum, n=grid.points[0])
    return sfft.irfftn(spectrum, s=grid.shape, axes=_x_axes(grid, spectrum.ndim))


def apply_half_symbols(values: np.ndarray, grid: PeriodicGrid,
                       symbols) -> np.ndarray:
    """Stack of the multipliers ``symbols`` applied to ``values``.

    Each symbol is given on the rfftn half spectrum (Hermitian multipliers,
    such as the derivative symbols of PeriodicGrid).  ``values`` may carry
    leading batch axes (such as z rows) before the grid axes; the result has
    one more leading axis, indexing the symbols.  One forward and one inverse
    transform serve all symbols; complex samples are transformed part by part.
    """
    if np.iscomplexobj(values):
        return (apply_half_symbols(values.real, grid, symbols)
                + 1j * apply_half_symbols(values.imag, grid, symbols))
    vh = rfft_x(values, grid)
    if len(symbols) == 1:
        return irfft_x(symbols[0] * vh, grid)[np.newaxis]
    return irfft_x(np.stack([m * vh for m in symbols]), grid)


def gradient_x(values: np.ndarray, grid: PeriodicGrid) -> np.ndarray:
    """Spectral gradient over the trailing grid axes, components stacked first."""
    return apply_half_symbols(values, grid, grid.half_gradient_symbols)


def _apply_half_symbol(u: Field, symbol: np.ndarray) -> Field:
    return Field(u.grid, apply_half_symbols(u.values, u.grid, (symbol,))[0])


def bessel_potential(u: Field, s: float) -> Field:
    """<D>^s u with <xi> = sqrt(1 + |xi|^2)."""
    return _apply_half_symbol(u, u.grid.half_bessel_symbol(s))


def heat_propagator(u: Field, t: float) -> Field:
    """exp(t * Laplacian) as a multiplier; t >= 0."""
    return _apply_half_symbol(u, np.exp(t * u.grid.half_laplacian_symbol))


def spectral_gradient(u: Field) -> tuple[Field, ...]:
    """Exact spectral gradient; the Nyquist mode of each derivative is zeroed."""
    return tuple(Field(u.grid, g) for g in gradient_x(u.values, u.grid))


def dealias(u: Field) -> Field:
    """2/3-rule truncation."""
    return _apply_half_symbol(u, u.grid.half_dealias_mask)


def dealiased_product(a: Field, b: Field) -> Field:
    """Pointwise product followed by the 2/3-rule truncation."""
    return dealias(Field(a.grid, a.values * _vals(b)))


def inner_l2(u: Field, v: Field | np.ndarray) -> float | complex:
    """Discrete L^2 pairing with the cell volume weight; complex when either
    factor is, whether ``v`` is a Field or an array."""
    val = np.sum(np.conj(u.values) * _vals(v)) * u.grid.cell_volume
    return complex(val) if np.iscomplexobj(val) else float(val)


def norm_l2(u: Field) -> float:
    return float(np.sqrt(np.sum(np.abs(u.values) ** 2) * u.grid.cell_volume))
