"""Good unknowns, the symmetrizer symbol q and the symmetrized energy.

The symmetrized energy applies one symbol, q = sqrt(a/lambda) (a the
Taylor coefficient, lambda the DNO principal symbol, built here for its one
user), to zeta_s as theta_s = T_q zeta_s; the good unknown
U_s = <D>^s V + T_zeta <D>^s B removes the worst-order coupling, and the
quadratic functional ||U_s||^2 + ||theta_s||^2 in the uniformly local L^2
norm is the stability diagnostic.  With ``paradiff``, this is the
paradifferential layer: no other module uses ``ParaSymbol``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from wavestrip.core import SurfaceState, TraceFields
from wavestrip.grid import Field, bessel_potential, spectral_gradient
from wavestrip.paradiff import ParaSymbol, paradiff_apply, paraproduct
from wavestrip.ulspaces import PartitionOfUnity, ul_sobolev_norm


class TaylorSignError(ValueError):
    """The Taylor coefficient is not positive where required."""


@dataclass
class SymmetrizedPair:
    """Good unknown U_s and symmetrized slope theta_s (per component)."""

    Us: tuple[Field, ...]
    theta_s: tuple[Field, ...]


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


def dno_principal_symbol(eta: Field) -> ParaSymbol:
    """lambda(x, xi) = sqrt((1+|grad eta|^2)|xi|^2 - (grad eta . xi)^2),
    evaluated as sqrt(|xi|^2 + |grad eta ^ xi|^2) by Lagrange's identity."""
    grads = [g.values for g in spectral_gradient(eta)]

    def eval_fn(xis):
        xi = [c.reshape((-1,) + (1,) * eta.grid.dim) for c in xis.T]
        return np.sqrt(sum(xi_c ** 2 for xi_c in xi) + sum(
            (grads[i] * xi[j] - grads[j] * xi[i]) ** 2
            for i, j in combinations(range(len(xi)), 2)))

    return ParaSymbol(order=1.0, regularity=0.5, eval=eval_fn)


def symmetrizer_symbol(a: Field, eta: Field) -> ParaSymbol:
    """q = sqrt(a/lambda), of order -1/2, for a positive Taylor coefficient a."""
    if float(np.min(a.values)) <= 0.0:
        raise TaylorSignError(
            f"Taylor coefficient must be positive, min = {float(np.min(a.values)):.4g}"
        )
    lam = dno_principal_symbol(eta)

    def q_eval(xis):
        return np.sqrt(a.values / lam.eval(xis))

    return ParaSymbol(order=-0.5, regularity=0.5, eval=q_eval)


def symmetrized_pair(state: SurfaceState, traces: TraceFields, a: Field,
                     s: float) -> SymmetrizedPair:
    """Assemble (U_s, theta_s) from a state, its surface traces and its
    Taylor coefficient ``a``, all from the state's one potential solve;
    theta_s = T_q zeta_s, componentwise."""
    us, zeta_s = good_unknowns(state, traces, s)
    q = symmetrizer_symbol(a, state.eta)
    theta_s = tuple(paradiff_apply(q, z) for z in zeta_s)
    return SymmetrizedPair(Us=us, theta_s=theta_s)


def symmetrized_energy(pair: SymmetrizedPair, pou: PartitionOfUnity) -> float:
    """||U_s||^2 + ||theta_s||^2, each in the uniformly local L^2 norm."""
    e_u = sum(ul_sobolev_norm(u, 0.0, pou) ** 2 for u in pair.Us)
    e_t = sum(ul_sobolev_norm(t, 0.0, pou) ** 2 for t in pair.theta_s)
    return float(e_u + e_t)
