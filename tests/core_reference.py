"""Residuals of the transport reformulation, a check on the evolution system.

The paper rewrites the water-wave system in the unknowns (B, V, zeta) of
``wavestrip.core``'s traces, as transport equations along V.  The tests take
three states evenly spaced in time and check that centered differences
satisfy those equations: exactly at rest, and to O(eps^2) on a linear
standing wave of amplitude eps.  The solver marches (eta, psi) and never
forms these residuals.
"""

from dataclasses import dataclass

from wavestrip.core import SurfaceState, taylor_coefficient, trace_velocities
from wavestrip.dno import DNOParams, dno_solve
from wavestrip.grid import Field, dealiased_product, norm_l2, spectral_gradient


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
    params = cur.dno_params(params)

    tr_prev, _ = trace_velocities(prev, params)
    tr_next, _ = trace_velocities(nxt, params)
    traces, sol = trace_velocities(cur, params)
    traces.a, _ = taylor_coefficient(cur, sol, params)
    grid = cur.eta.grid
    two_dt = dt_f + dt_b

    r_B = Field(grid, (tr_next.B.values - tr_prev.B.values) / two_dt) \
        + _advect(traces.V, traces.B) - (traces.a - cur.g)

    r_V = []
    for i, vi in enumerate(traces.V):
        dv = Field(grid, (tr_next.V[i].values - tr_prev.V[i].values) / two_dt)
        zeta_i = spectral_gradient(cur.eta)[i]
        r_V.append(dv + _advect(traces.V, vi) + dealiased_product(traces.a, zeta_i))

    zeta_prev = spectral_gradient(prev.eta)
    zeta_next = spectral_gradient(nxt.eta)
    zeta_cur = spectral_gradient(cur.eta)
    gb = dno_solve(cur.eta, traces.B, params, dom=sol.dom).gpsi
    r_zeta = []
    for i in range(grid.dim):
        dz = Field(grid, (zeta_next[i].values - zeta_prev[i].values) / two_dt)
        gv = dno_solve(cur.eta, traces.V[i], params, dom=sol.dom).gpsi
        r_zeta.append(dz + _advect(traces.V, zeta_cur[i])
                      - gv - dealiased_product(zeta_cur[i], gb))

    norms = {"B": norm_l2(r_B)}
    for i, f in enumerate(r_V):
        norms[f"V{i}"] = norm_l2(f)
    for i, f in enumerate(r_zeta):
        norms[f"zeta{i}"] = norm_l2(f)
    return ReformulatedResiduals(r_B=r_B, r_V=tuple(r_V), r_zeta=tuple(r_zeta),
                                 norms=norms)
