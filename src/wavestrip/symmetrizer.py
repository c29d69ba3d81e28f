"""Good unknowns, symmetrizer symbols, decoupled parabolic roots, energy.

The linearized system is symmetrized by gamma = sqrt(a*lambda) and
q = sqrt(a/lambda) (a the Taylor coefficient, lambda the DNO principal
symbol); the good unknown U_s = <D>^s V + T_zeta <D>^s B removes the
worst-order coupling, and the quadratic functional ||U_s||^2 + ||theta_s||^2
in the uniformly local L^2 norm is the stability diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wavestrip.core import SurfaceState, TraceFields
from wavestrip.dno import dno_principal_symbol
from wavestrip.grid import Field, bessel_potential, spectral_gradient
from wavestrip.paradiff import ParaSymbol, paradiff_apply, paraproduct
from wavestrip.ulspaces import PartitionOfUnity, ul_sobolev_norm


class TaylorSignError(ValueError):
    """The Taylor coefficient is not positive where required."""


class EllipticityError(ValueError):
    """The decoupling discriminant 4 alpha |xi|^2 - (beta.xi)^2 is not positive."""


@dataclass
class SymmetrizedPair:
    """Good unknown U_s and symmetrized slope theta_s (per component)."""

    Us: tuple[Field, ...]
    theta_s: tuple[Field, ...]
    s: float


def good_unknowns(state: SurfaceState, traces: TraceFields, s: float
                  ) -> tuple[tuple[Field, ...], tuple[Field, ...]]:
    """U_s = <D>^s V + T_zeta <D>^s B (componentwise) and zeta_s = <D>^s zeta."""
    zeta = spectral_gradient(state.eta)
    bs = bessel_potential(traces.B, s)
    us = tuple(
        bessel_potential(v, s) + paraproduct(z, bs)
        for v, z in zip(traces.V, zeta)
    )
    zeta_s = tuple(bessel_potential(z, s) for z in zeta)
    return us, zeta_s


def symmetrizer_symbols(a: Field, eta: Field) -> tuple[ParaSymbol, ParaSymbol]:
    """gamma = sqrt(a lambda) (order 1/2) and q = sqrt(a/lambda) (order -1/2)."""
    if float(np.min(a.values)) <= 0.0:
        raise TaylorSignError(
            f"Taylor coefficient must be positive, min = {float(np.min(a.values)):.4g}"
        )
    lam = dno_principal_symbol(eta)

    def gamma_eval(xm, xis):
        return np.sqrt(a.values * lam.eval(xm, xis))

    def q_eval(xm, xis):
        return np.sqrt(a.values / lam.eval(xm, xis))

    gamma = ParaSymbol(order=0.5, regularity=0.5, eval=gamma_eval, homogeneous=True)
    q = ParaSymbol(order=-0.5, regularity=0.5, eval=q_eval, homogeneous=True)
    return gamma, q


def theta_field(zeta_s: tuple[Field, ...], q_sym: ParaSymbol) -> tuple[Field, ...]:
    """theta_s = T_q zeta_s, componentwise."""
    return tuple(paradiff_apply(q_sym, z) for z in zeta_s)


def symmetrized_pair(state: SurfaceState, traces: TraceFields, s: float
                     ) -> SymmetrizedPair:
    """Assemble (U_s, theta_s) from a state with its Taylor coefficient."""
    if traces.a is None:
        raise ValueError("traces must carry the Taylor coefficient")
    us, zeta_s = good_unknowns(state, traces, s)
    _, q = symmetrizer_symbols(traces.a, state.eta)
    return SymmetrizedPair(Us=us, theta_s=theta_field(zeta_s, q), s=s)


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


def symmetrized_energy(pair: SymmetrizedPair, pou: PartitionOfUnity
                       ) -> tuple[float, float, float]:
    """(||U_s||^2, ||theta_s||^2, sum) in the uniformly local L^2 norm."""
    e_u = sum(ul_sobolev_norm(u, 0.0, pou) ** 2 for u in pair.Us)
    e_t = sum(ul_sobolev_norm(t, 0.0, pou) ** 2 for t in pair.theta_s)
    return float(e_u), float(e_t), float(e_u + e_t)
