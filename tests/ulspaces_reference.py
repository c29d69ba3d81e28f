"""Single-field Littlewood-Paley blocks and Zygmund and Hoelder norms.

The package keeps the dyadic decomposition and the batched W^{rho,inf}
norms (``ulspaces.holder_norms``), which measure the Hoelder loss of the
flow.  The tests check those blocks and norms one field at a time through
the wrappers here.
"""

from wavestrip.grid import Field, apply_half_symbols
from wavestrip.ulspaces import DyadicDecomposition, _zygmund_norms, holder_norms


def dyadic_block(u: Field, j: int, dd: DyadicDecomposition) -> Field:
    """Frequency block Delta_j u."""
    mult = dd.block_multipliers[j + 1]
    return Field(u.grid, apply_half_symbols(u.values, u.grid, (mult,))[0])


def zygmund_norm(u: Field, sigma: float, dd: DyadicDecomposition) -> float:
    """max over blocks of 2^(j*sigma) * ||Delta_j u||_{L^inf}, truncated at jmax."""
    return float(_zygmund_norms(u.values, u.grid, sigma, dd))


def holder_norm(u: Field, rho: float) -> float:
    """W^{rho,inf} norm of one field, as in ``holder_norms``."""
    return float(holder_norms(u.values, u.grid, rho))
