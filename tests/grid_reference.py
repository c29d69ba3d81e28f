"""Reference multipliers for the tests: an arbitrary callable symbol, the
divergence and the global H^s norm.

The package applies only the multipliers the solver needs (derivatives,
<D>^s, the heat semigroup, the 2/3 rule).  The tests also need a multiplier
m(xi) given as a function, such as the flat-strip DNO k tanh(k h), and the
divergence and the plain periodic H^s norm of the divergence identity; these
build them on the same half-spectrum route as the package.
"""

import numpy as np

from wavestrip.grid import Field, _apply_half_symbol, bessel_potential, norm_l2


class MultiplierDomainError(ValueError):
    """Raised when a Fourier multiplier is not finite on the lattice."""


def fourier_multiplier(u: Field, m) -> Field:
    """Apply the Fourier multiplier m(xi) mode by mode.

    ``m`` is called with one wavenumber mesh per axis (so ``m(k)`` in 1-D,
    ``m(kx, ky)`` in 2-D) on the rfft half spectrum, and once more on the
    negated meshes.  It must be finite there and Hermitian,
    m(-k) = conj m(k), so that it maps real fields to real fields; otherwise
    MultiplierDomainError is raised.  Complex fields are transformed part by
    part.
    """
    km = u.grid.half_wavenumber_meshes
    with np.errstate(all="ignore"):  # finiteness is checked below
        arr, mirror = [np.broadcast_to(np.asarray(m(*k)), u.grid.half_shape)
                       for k in (km, [-k for k in km])]
    if not np.all(np.isfinite(arr)):
        raise MultiplierDomainError("multiplier is not finite on the lattice; supply its "
                                    "value at xi = 0 explicitly for homogeneous symbols")
    if not np.allclose(mirror, np.conj(arr), atol=1e-13, rtol=1e-13):
        raise MultiplierDomainError("multiplier is not Hermitian: m(-k) != conj m(k)")
    return _apply_half_symbol(u, arr)


def divergence(vec: tuple[Field, ...]) -> Field:
    """sum_j d_j vec_j, each component differentiated along its own axis only."""
    grid = vec[0].grid
    return sum(_apply_half_symbol(v, ik) for v, ik in zip(vec, grid.half_gradient_symbols))


def sobolev_norm(u: Field, s: float) -> float:
    """Plain periodic H^s norm ||<D>^s u||_{L^2} (global, not windowed)."""
    return norm_l2(bessel_potential(u, s))
