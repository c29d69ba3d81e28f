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

Every term of the energy comes from one harmonic extension Phi of the
state: ``ww_rhs`` solves for it and returns that ``DNOSolution``, and
``trace_velocities``, ``taylor_coefficient`` and ``hamiltonian`` take it as
an argument and never solve for Phi again.  The first gives the surface
velocities B and V, the second a from the solve's domain and potential, the
third the energy from G(eta) psi.
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
    """Free-surface elevation and surface potential at one instant.

    eta and psi are real and finite on one grid, the time t is finite, and
    gravity g and the still depth h are positive and finite.
    """

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
        if not (np.all(np.isfinite(self.eta.values)) and np.all(np.isfinite(self.psi.values))):
            raise ValueError("eta and psi must be finite")
        if not np.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if not (0 < self.g < np.inf and 0 < self.h < np.inf):
            raise ValueError(
                f"g and h must be positive and finite, got g = {self.g}, h = {self.h}")

    def min_depth(self) -> float:
        return float(np.min(self.eta.values) + self.h)


@dataclass
class TraceFields:
    """Vertical (B) and horizontal (V) fluid velocity at the surface."""

    B: Field
    V: tuple[Field, ...]


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


def trace_velocities(state: SurfaceState, sol: DNOSolution) -> TraceFields:
    """B and V from the surface data and the state's potential solve ``sol``."""
    grad_eta, grad_psi, num, denom = _vertical_velocity_parts(state, sol)
    B = dealiased_product(num, Field(state.eta.grid, 1.0 / denom))
    V = tuple(gp - dealiased_product(B, ge) for gp, ge in zip(grad_psi, grad_eta))
    return TraceFields(B=B, V=V)


def ww_rhs(state: SurfaceState, params: DNOParams,
           guess: StraightenedField | None) -> tuple[Field, Field, DNOSolution]:
    """Tendencies (d_t eta, d_t psi) and the DNO solution used to build them.

    The potential is solved at the state's depth h with the other knobs of
    ``params``; ``guess``, a potential such as an earlier solution's
    ``phi``, warm-starts that solve (None starts from zero).
    """
    sol = dno_solve(state.eta, state.psi, replace(params, h=state.h), guess=guess)
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
                       params: DNOParams) -> tuple[Field, float]:
    """Taylor coefficient a = -d_y P at the surface, from the pressure problem.

    Solves for Q = P + g rho (see the module docstring): L Q = L P because
    L rho = 0, Q = g eta at the surface because P = 0 there, and the bottom
    flux of Q is that of P plus g because conormal(rho) = 1.  ``sol`` is the
    state's potential solve, and ``params`` gives the pressure solve its tol
    and maxiter.
    """
    dom = sol.dom
    grid = dom.grid
    phi = sol.phi.values

    # [Lambda_1 Phi, Lambda_2 Phi], then Lambda_i of each of them at [i, j]
    first = dom.chain_gradient(phi)
    hess_sq = np.sum(dom.chain_gradient(first) ** 2, axis=(0, 1))

    # Bernoulli bottom data: conormal(P) = -conormal(|grad Phi|^2 / 2) - g
    # (d_t Phi has no flux through the bottom), and conormal(g rho) = g
    half_speed2 = 0.5 * np.sum(first ** 2, axis=0)
    flux = Field(grid, -dom.conormal_flux(half_speed2, -1))

    q = solve_laplace(dom, state.g * state.eta, params, source=-dom.alpha * hess_sq,
                      bottom_flux=flux)
    a_vals = state.g - np.tensordot(dom.Dz[0], q.values, axes=1) / dom.drho_z[0]
    a = Field(grid, a_vals)
    return a, float(np.min(a_vals))


def hamiltonian(state: SurfaceState, sol: DNOSolution) -> float:
    """Conserved energy (psi, G(eta) psi)/2 + g/2 * integral of eta^2, with
    G(eta) psi from the state's potential solve ``sol``."""
    kinetic = 0.5 * inner_l2(state.psi, sol.gpsi)
    potential = 0.5 * state.g * norm_l2(state.eta) ** 2
    return float(kinetic + potential)


def mass(state: SurfaceState) -> float:
    return float(np.sum(state.eta.values) * state.eta.grid.cell_volume)
