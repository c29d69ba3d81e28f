"""Residuals of the transport reformulation, a check on the evolution system.

The paper rewrites the water-wave system in the unknowns (B, V, zeta) of
``wavestrip.core``'s traces, as transport equations along V.  The tests take
three states evenly spaced in time and check that centered differences
satisfy those equations: exactly at rest, and to O(eps^2) on a linear
standing wave of amplitude eps.  The solver marches (eta, psi) and never
forms these residuals.  ``solved`` gives a state its potential solve, the
one that ``trace_velocities``, ``taylor_coefficient`` and ``hamiltonian``
take.
"""

from dataclasses import dataclass, replace

from wavestrip.core import SurfaceState, taylor_coefficient, trace_velocities
from wavestrip.dno import (
    DNOParams,
    DNOSolution,
    dno_solve,
    solve_laplace,
    surface_flux,
)
from wavestrip.grid import Field, dealiased_product, norm_l2, spectral_gradient


def solved(state: SurfaceState, params: DNOParams) -> DNOSolution:
    """The potential solve of ``state`` at its own depth h, as ww_rhs makes it."""
    return dno_solve(state.eta, state.psi, replace(params, h=state.h))


@dataclass
class ReformulatedResiduals:
    """Discrete residuals of the transport reformulation along a trajectory."""

    r_B: Field
    r_V: tuple[Field, ...]
    r_zeta: tuple[Field, ...]
    norms: dict[str, float]


def _advect(V: tuple[Field, ...], f: Field) -> Field:
    out = None
    for vi, gi in zip(V, spectral_gradient(f)):
        term = dealiased_product(vi, gi)
        out = term if out is None else out + term
    return out


def reformulated_residuals(prev: SurfaceState, cur: SurfaceState,
                           nxt: SurfaceState,
                           params: DNOParams = DNOParams()
                           ) -> ReformulatedResiduals:
    """Centered-in-time residuals of the (B, V, zeta) transport equations.

    The zeta-equation residual is the measured smoothing remainder of the
    curvature transport identity; its norms are reported rather than bounded.
    """
    dt_f = nxt.t - cur.t
    dt_b = cur.t - prev.t
    if dt_f <= 0 or abs(dt_f - dt_b) > 1e-12 * max(dt_f, dt_b):
        raise ValueError("states must be uniformly spaced in time")
    tr_prev = trace_velocities(prev, solved(prev, params))
    tr_next = trace_velocities(nxt, solved(nxt, params))
    sol = solved(cur, params)
    traces = trace_velocities(cur, sol)
    a, _ = taylor_coefficient(cur, sol, params)
    dom = sol.dom
    grid = cur.eta.grid
    two_dt = dt_f + dt_b

    r_B = Field(grid, (tr_next.B.values - tr_prev.B.values) / two_dt) \
        + _advect(traces.V, traces.B) - (a - cur.g)

    r_V = []
    for i, vi in enumerate(traces.V):
        dv = Field(grid, (tr_next.V[i].values - tr_prev.V[i].values) / two_dt)
        zeta_i = spectral_gradient(cur.eta)[i]
        r_V.append(dv + _advect(traces.V, vi) + dealiased_product(a, zeta_i))

    zeta_prev = spectral_gradient(prev.eta)
    zeta_next = spectral_gradient(nxt.eta)
    zeta_cur = spectral_gradient(cur.eta)
    # G(eta) of B and V on the domain of cur's own solve
    gb = surface_flux(dom, solve_laplace(dom, traces.B, params))
    r_zeta = []
    for i in range(grid.dim):
        dz = Field(grid, (zeta_next[i].values - zeta_prev[i].values) / two_dt)
        gv = surface_flux(dom, solve_laplace(dom, traces.V[i], params))
        r_zeta.append(dz + _advect(traces.V, zeta_cur[i])
                      - gv - dealiased_product(zeta_cur[i], gb))

    norms = {"B": norm_l2(r_B)}
    for i, f in enumerate(r_V):
        norms[f"V{i}"] = norm_l2(f)
    for i, f in enumerate(r_zeta):
        norms[f"zeta{i}"] = norm_l2(f)
    return ReformulatedResiduals(r_B=r_B, r_V=tuple(r_V), r_zeta=tuple(r_zeta),
                                 norms=norms)
