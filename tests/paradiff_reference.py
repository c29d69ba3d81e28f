"""Independent realizations of paraproducts, kept as references for the tests.

The Littlewood-Paley blockwise realization S_{j-j0}(a) Delta_j(u) differs
from the lattice kernel of ``wavestrip.paradiff`` only near block
boundaries; the factorized route for symbols b(x) h(xi) agrees with the
general route exactly on modes where psi is 0 or 1.
"""

import numpy as np

from wavestrip.grid import Field, fft, ifft
from wavestrip.paradiff import cutoff_psi, paraproduct
from wavestrip.ulspaces import DyadicDecomposition


def separable_apply(b: Field, h, u: Field) -> Field:
    """Factorized route for a(x, xi) = b(x) h(xi): T_b psi(D) h(D) u.

    ``h`` is called with the stacked wavenumber meshes, shape (d, *grid.shape).
    """
    km = u.grid.wavenumber_meshes()
    kabs = u.grid.abs_wavenumber()
    harr = np.asarray(h(np.stack(km)))
    filt = cutoff_psi(kabs) * harr
    v = ifft(u.grid, filt * fft(u))
    return paraproduct(b, v)


def paraproduct_blockwise(a: Field, u: Field, dd: DyadicDecomposition,
                          j0: int = 3) -> Field:
    """Blockwise realization sum_j S_{j-j0}(a) Delta_j(u)."""
    a_hat = fft(a)
    u_hat = fft(u)
    out = np.zeros(a.grid.shape, dtype=complex)
    for j in range(0, dd.jmax + 1):
        piece_u = ifft(u.grid, dd.block_multiplier(j) * u_hat).values
        low_a = ifft(a.grid, dd.lowpass_multiplier(j - j0) * a_hat).values
        out += low_a * piece_u
    real_out = a.is_real and u.is_real
    return Field(a.grid, out.real if real_out else out)
