"""Surface evolution system, trace velocities, Taylor coefficient, energy.

The state is (eta, psi) on a periodic grid; tendencies are

    d_t eta = G(eta) psi
    d_t psi = -|grad psi|^2/2
              + (grad eta . grad psi + G(eta) psi)^2 / (2 (1+|grad eta|^2))
              - g eta,

with all quadratic products dealiased.  The Taylor coefficient a = -d_y P
comes from the straightened pressure problem: the same strip operator L with
zero surface pressure, interior source -alpha * sum |Lam_i Lam_j Phi|^2, and
a bottom conormal flux inherited from the Bernoulli relation.  P is solved
through its non-hydrostatic part, P = -g rho + Q.  rho is the physical
height y, which is harmonic, and straighten defines gamma so that L rho = 0;
the conormal of rho at the bottom is (1+|grad rho|^2)/d_z rho * d_z rho -
|grad rho|^2 = 1.  So Q has the same source as P, surface data g eta and
bottom flux -conormal(|grad Phi|^2/2) without the -g, and
a = g - (1/d_z rho) d_z Q at z = 0.  Q carries no O(g) hydrostatic part,
which would otherwise dominate the solution and hold GMRES at its rounding
floor, and the rest state gives Q = 0 and a = g exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from wavestrip.dno import (
    DNOParams,
    DNOSolution,
    StraightenedField,
    dno_solve,
    solve_laplace,
)
from wavestrip.grid import (
    Field,
    dealiased_product,
    inner_l2,
    norm_l2,
    spectral_gradient,
)


@dataclass
class SurfaceState:
    """Free-surface elevation and surface potential at one instant."""

    eta: Field
    psi: Field
    t: float = 0.0
    g: float = 1.0
    h: float = 1.0

    def __post_init__(self):
        if not (self.eta.is_real and self.psi.is_real):
            raise ValueError("surface fields must be real")
        if self.eta.grid != self.psi.grid:
            raise ValueError("eta and psi must be sampled on one grid")

    def min_depth(self) -> float:
        return float(np.min(self.eta.values) + self.h)

    def dno_params(self, base: DNOParams) -> DNOParams:
        return replace(base, h=self.h)


@dataclass
class TraceFields:
    """Surface velocity traces and (optionally) the Taylor coefficient."""

    B: Field
    V: tuple[Field, ...]
    a: Field | None = None

    def min_taylor(self) -> float:
        if self.a is None:
            raise ValueError("Taylor coefficient not computed")
        return float(np.min(self.a.values))


def _vertical_velocity_parts(state: SurfaceState, sol: DNOSolution):
    """grad eta, grad psi and B = num / denom as the dealiased numerator
    G(eta) psi + grad eta . grad psi and the array denominator 1 + |grad eta|^2."""
    grad_eta = spectral_gradient(state.eta)
    grad_psi = spectral_gradient(state.psi)
    num = sol.gpsi
    for ge, gp in zip(grad_eta, grad_psi):
        num = num + dealiased_product(ge, gp)
    denom = 1.0 + sum(g.values ** 2 for g in grad_eta)
    return grad_eta, grad_psi, num, denom


def trace_velocities(state: SurfaceState, params: DNOParams = DNOParams(),
                     sol: DNOSolution | None = None
                     ) -> tuple[TraceFields, DNOSolution]:
    """B and V from the surface data, reusing an existing DNO solve if given."""
    params = state.dno_params(params)
    if sol is None:
        sol = dno_solve(state.eta, state.psi, params)
    grad_eta, grad_psi, num, denom = _vertical_velocity_parts(state, sol)
    B = dealiased_product(num, Field(state.eta.grid, 1.0 / denom))
    V = tuple(gp - dealiased_product(B, ge) for gp, ge in zip(grad_psi, grad_eta))
    return TraceFields(B=B, V=V), sol


def ww_rhs(state: SurfaceState, params: DNOParams = DNOParams(),
           sol: DNOSolution | None = None, guess: DNOSolution | None = None
           ) -> tuple[Field, Field, DNOSolution]:
    """Tendencies (d_t eta, d_t psi) and the DNO solution used to build them.

    ``guess`` warm-starts the potential solve when ``sol`` is not given.
    """
    params = state.dno_params(params)
    if sol is None:
        sol = dno_solve(state.eta, state.psi, params, guess=guess)
    grid = state.eta.grid
    _, grad_psi, num, denom = _vertical_velocity_parts(state, sol)
    quad = dealiased_product(num, Field(grid, num.values / denom))
    grad_psi_sq = dealiased_product(grad_psi[0], grad_psi[0])
    for gp in grad_psi[1:]:
        grad_psi_sq = grad_psi_sq + dealiased_product(gp, gp)
    eta_t = sol.gpsi
    psi_t = Field(grid, -0.5 * grad_psi_sq.values + 0.5 * quad.values
                  - state.g * state.eta.values)
    return eta_t, psi_t, sol


def taylor_coefficient(state: SurfaceState, sol: DNOSolution,
                       params: DNOParams = DNOParams()
                       ) -> tuple[Field, float]:
    """Taylor coefficient a = -d_y P at the surface, from the pressure problem.

    Solves for Q = P + g rho (see the module docstring): L Q = L P because
    L rho = 0, Q = g eta at the surface because P = 0 there, and the bottom
    flux of Q is that of P plus g because conormal(rho) = 1.
    """
    params = state.dno_params(params)
    dom = sol.dom
    grid = dom.grid
    phi = sol.phi.values

    # [Lambda_1 Phi, Lambda_2 Phi], then Lambda_i of each of them at [i, j]
    first = dom.chain_gradient(phi)
    hess_sq = np.sum(dom.chain_gradient(first) ** 2, axis=(0, 1))
    source = StraightenedField(dom, -dom.alpha * hess_sq)

    # Bernoulli bottom data: conormal(P) = -conormal(|grad Phi|^2 / 2) - g
    # (d_t Phi has no flux through the bottom), and conormal(g rho) = g
    half_speed2 = 0.5 * np.sum(first ** 2, axis=0)
    flux = Field(grid, -dom.conormal_flux(half_speed2, -1))

    q = solve_laplace(dom, state.g * state.eta, source=source, bottom_flux=flux,
                      tol=params.tol, maxiter=params.maxiter)
    a_vals = state.g - np.tensordot(dom.Dz[0], q.values, axes=1) / dom.drho_z[0]
    a = Field(grid, a_vals)
    return a, float(np.min(a_vals))


def analyze_state(state: SurfaceState, params: DNOParams = DNOParams(),
                  with_taylor: bool = True) -> tuple[TraceFields, DNOSolution]:
    """Traces plus Taylor coefficient with a single potential solve."""
    traces, sol = trace_velocities(state, params)
    if with_taylor:
        a, _ = taylor_coefficient(state, sol, params)
        traces.a = a
    return traces, sol


def hamiltonian(state: SurfaceState, params: DNOParams = DNOParams(),
                sol: DNOSolution | None = None) -> float:
    """Conserved energy (psi, G(eta) psi)/2 + g/2 * integral of eta^2."""
    params = state.dno_params(params)
    if sol is None:
        sol = dno_solve(state.eta, state.psi, params)
    kinetic = 0.5 * inner_l2(state.psi, sol.gpsi)
    potential = 0.5 * state.g * norm_l2(state.eta) ** 2
    return float(kinetic + potential)


def mass(state: SurfaceState) -> float:
    return float(np.sum(state.eta.values) * state.eta.grid.cell_volume)


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
    traces, sol = analyze_state(cur, params, with_taylor=True)
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
