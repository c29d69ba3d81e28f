"""Classical fourth-order Runge-Kutta, the step ``stepping.rk4_step`` takes at
eps = 0, written out with no heat propagator in it."""

from wavestrip.core import SurfaceState


def classical_rk4_step(state: SurfaceState, dt: float, rhs) -> SurfaceState:
    """One classical RK4 step of u' = rhs(u)[:2] for the pair (eta, psi)."""

    def shifted(k, h):
        return SurfaceState(eta=state.eta + h * k[0], psi=state.psi + h * k[1],
                            t=state.t + h, g=state.g, h=state.h)

    k1 = rhs(state)[:2]
    k2 = rhs(shifted(k1, dt / 2))[:2]
    k3 = rhs(shifted(k2, dt / 2))[:2]
    k4 = rhs(shifted(k3, dt))[:2]
    eta_new = state.eta + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    psi_new = state.psi + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return SurfaceState(eta=eta_new, psi=psi_new, t=state.t + dt,
                        g=state.g, h=state.h)
