"""Roots of the decoupled forward/backward parabolic factorization.

With frozen coefficients, the strip operator d_zz + alpha Lap_x +
beta . grad_x d_z factors, mode by mode, into a forward and a backward
parabolic part whose symbols are the two roots below.  The package does not use them; the tests check the Vieta
identities and the signs of the roots, on flat data and on the z = 0 traces
of a straightened domain.
"""

import numpy as np


class EllipticityError(ValueError):
    """The decoupling discriminant 4 alpha |xi|^2 - (beta.xi)^2 is not positive."""


def decoupling_symbols(alpha, beta, xi):
    """Roots a, A of the decoupled forward/backward parabolic factorization.

    a + A = -i beta.xi and a*A = -alpha |xi|^2 (checked by callers as the
    Vieta identities); Re a < 0 < Re A whenever the discriminant is positive.
    ``alpha`` and the components of ``beta`` may be arrays, such as the z = 0
    traces of a straightened domain; the roots are then taken pointwise.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    bdot = sum(b * xi_c for b, xi_c in zip(beta, xi))
    disc = 4.0 * alpha * float(np.dot(xi, xi)) - bdot ** 2
    if np.min(disc) <= 0.0:
        raise EllipticityError(
            f"4 alpha |xi|^2 - (beta.xi)^2 = {np.min(disc):.4g} is not positive"
        )
    root = np.sqrt(disc)
    return 0.5 * (-1j * bdot - root), 0.5 * (-1j * bdot + root)
