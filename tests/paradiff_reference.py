"""References for the paradifferential calculus, kept for the tests.

Two independent realizations of paraproducts: the Littlewood-Paley
blockwise realization S_{j-j0}(a) Delta_j(u) differs from the lattice kernel
of ``wavestrip.paradiff`` only near block boundaries, and the factorized
route for symbols b(x) h(xi) agrees with the general route exactly on modes
where psi is 0 or 1.  Beside them sit the checks of the calculus that the
solver never calls: the x-independent and separable symbol builders, the
homogeneity defect of a symbol, the Bony remainder and the estimate of the
symbol seminorm M^m_rho.
"""

import numpy as np
import scipy.fft as sfft

from wavestrip.grid import Field, PeriodicGrid, apply_half_symbols, dealiased_product
from wavestrip.paradiff import ParaSymbol, cutoff_psi, paraproduct
from wavestrip.ulspaces import DyadicDecomposition, holder_norms


def separable_apply(b: Field, h, u: Field) -> Field:
    """Factorized route for a(x, xi) = b(x) h(xi): T_b psi(D) h(D) u.

    ``h`` is called with the stacked wavenumber meshes, shape (d, *grid.shape).
    """
    km = u.grid.wavenumber_meshes()
    kabs = u.grid.abs_wavenumber()
    harr = np.asarray(h(np.stack(km)))
    filt = cutoff_psi(kabs) * harr
    v = Field(u.grid, sfft.ifftn(filt * sfft.fftn(u.values)))
    return paraproduct(b, v)


def paraproduct_blockwise(a: Field, u: Field, dd: DyadicDecomposition,
                          j0: int = 3) -> Field:
    """Blockwise realization sum_j S_{j-j0}(a) Delta_j(u), j0 >= 0.

    S_m is the lowpass Theta(|xi| / 2^m) of the dyadic decomposition, 1 on
    |xi| <= 2^m and 0 on |xi| >= 2^(m+1).
    """
    a_hat = sfft.fftn(a.values)
    kabs = a.grid.abs_wavenumber()
    pieces_u = apply_half_symbols(u.values, u.grid, dd.block_multipliers[1:])
    out = np.zeros(a.grid.shape, dtype=complex)
    for j, piece_u in enumerate(pieces_u):
        low_a = sfft.ifftn(dd._theta(kabs / 2.0 ** (j - j0)) * a_hat)
        out += low_a * piece_u
    real_out = a.is_real and u.is_real
    return Field(a.grid, out.real if real_out else out)


def x_independent_symbol(order: float, h, regularity: float = 1.0) -> ParaSymbol:
    """Symbol a(x, xi) = h(xi), h mapping a stack (m, d) of wavenumbers to (m,)."""
    return ParaSymbol(
        order=order,
        regularity=regularity,
        eval=lambda xis: np.reshape(h(xis), (-1,) + (1,) * xis.shape[1]),
    )


def separable_symbol(b: Field, order: float, h, regularity: float = 1.0) -> ParaSymbol:
    """Symbol b(x) * h(xi), h mapping a stack (m, d) of wavenumbers to (m,)."""
    return ParaSymbol(
        order=order,
        regularity=regularity,
        eval=lambda xis: b.values * np.reshape(h(xis), (-1,) + (1,) * xis.shape[1]),
    )


def homogeneity_defect(sym: ParaSymbol, grid: PeriodicGrid) -> float:
    """Max relative defect of |xi|^order scaling along 4 lattice rays."""
    steps = np.arange(1, 5) * grid.wavenumbers[0][1]  # smallest positive k
    xis = np.zeros((2 * len(steps), grid.dim))
    xis[:, 0] = np.concatenate([steps, 2.0 * steps])
    v1, v2 = np.split(sym._rows(grid, xis).reshape(len(xis), -1), 2)
    scale = np.max(np.abs(v1), axis=1) * 2.0 ** sym.order
    err = np.max(np.abs(v2 - 2.0 ** sym.order * v1), axis=1)
    return float(np.max(np.divide(err, scale, out=np.zeros_like(err), where=scale > 0)))


def bony_remainder(a: Field, u: Field) -> Field:
    """R(a, u) = au - T_a u - T_u a (product dealiased)."""
    prod = dealiased_product(a, u)
    return prod - paraproduct(a, u) - paraproduct(u, a)


def _multi_indices(dim: int, max_order: int):
    if dim == 1:
        return [(n,) for n in range(max_order + 1)]
    return [(i, j) for i in range(max_order + 1) for j in range(max_order + 1 - i)]


def symbol_seminorm(sym: ParaSymbol, grid: PeriodicGrid) -> float:
    """Estimate of the order-m seminorm M^m_rho(a) on the resolved lattice.

    xi-derivatives up to order 2d+2 are taken by finite differences on the
    (monotonically ordered) wavenumber lattice; the x-norm is
    ``ulspaces.holder_norms`` (Zygmund for fractional rho).
    """
    d = grid.dim
    sorted_axes = [np.sort(w) for w in grid.wavenumbers]
    xi_mesh = np.meshgrid(*sorted_axes, indexing="ij")
    xi_shape = xi_mesh[0].shape
    xis = np.stack([k.ravel() for k in xi_mesh], axis=-1)
    # rows off the origin are checked like ParaSymbol.values; at xi = 0, where
    # a symbol homogeneous of negative order (q) is infinite, a value that is
    # not finite counts as 0 (lambda, |xi| and i xi_1 are 0 there already)
    origin = ~xis.any(axis=1)
    rest = sym._rows(grid, xis[~origin])
    with np.errstate(all="ignore"):
        at_origin = np.broadcast_to(sym.eval(xis[origin]), (1,) + grid.shape)
    table = np.zeros((len(xis),) + grid.shape, dtype=np.result_type(rest, float))
    table[~origin] = rest
    table[origin] = np.where(np.isfinite(at_origin), at_origin, 0.0)
    table = table.reshape(xi_shape + grid.shape)

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
        wnorms = holder_norms(der, grid, sym.regularity)
        weighted = bracket ** (sum(alpha) - sym.order) * wnorms
        cand = float(np.max(np.where(lattice_mask, weighted, 0.0)))
        best = max(best, cand)
    return best
