"""Reference straightening: six smoothing tables and separate transforms.

This is the formula the package used before the one-table straightening:
the tables (<k>-1)^p E(s) eta for p = 0, 1, 2 and s = delta z, -delta (1+z)
are inverted to real space and combined there, and grad rho, Lap rho and
grad d_z rho each take a transform pair of their own, from samples that
carry the depth terms h z and h.
"""

import numpy as np

from wavestrip.dno import chebyshev_lobatto
from wavestrip.grid import apply_half_symbols, gradient_x, irfft_x, rfft_x


def straighten_fields(eta, h, delta, zpoints):
    """rho, d_z rho, grad rho, alpha, beta and gamma of ``eta``; d_z^2 rho
    enters through gamma."""
    grid = eta.grid
    z, _ = chebyshev_lobatto(zpoints)
    zc = z.reshape((-1,) + (1,) * grid.dim)
    kb = np.sqrt(1.0 - grid.half_laplacian_symbol) - 1.0
    eta_hat = rfft_x(eta.values, grid)
    tables = []
    for s in (delta * zc, -delta * (1.0 + zc)):
        smoothed = np.exp(s * kb) * eta_hat
        tables += [smoothed, kb * smoothed, kb ** 2 * smoothed]
    A0, A1, A2, B0, B1, B2 = irfft_x(np.stack(tables), grid)
    rho = (1.0 + zc) * A0 - zc * (B0 - h)
    drho_z = A0 + (1.0 + zc) * delta * A1 - B0 + h + zc * delta * B1
    d2rho_z = 2.0 * delta * A1 + (1.0 + zc) * delta ** 2 * A2 \
        + 2.0 * delta * B1 - zc * delta ** 2 * B2
    drho_x = tuple(gradient_x(rho, grid))
    grad2 = sum(g ** 2 for g in drho_x)
    alpha = drho_z ** 2 / (1.0 + grad2)
    beta = tuple(-2.0 * drho_z * g / (1.0 + grad2) for g in drho_x)
    lap_rho = apply_half_symbols(rho, grid, (grid.half_laplacian_symbol,))[0]
    gamma = (d2rho_z + alpha * lap_rho
             + sum(b * g for b, g in zip(beta, gradient_x(drho_z, grid)))) / drho_z
    return {"rho": rho, "drho_z": drho_z, "drho_x": drho_x, "alpha": alpha,
            "beta": beta, "gamma": gamma}
