"""Time integration: rk4 reference scheme and the regularized Duhamel step.

The regularized system adds eps*Laplacian to both tendencies; one step of the
Duhamel map

    U(t+dt) = e^{eps dt Lap} U(t) + integral of e^{eps (t+dt-s) Lap} A(U(s))

is approximated by the two-stage exponential trapezoid rule with the implicit
stage resolved by fixed-point iteration.  Runtime monitors track admissibility
(depth floor, Taylor sign) and conserved-quantity diagnostics every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from wavestrip.core import (
    SurfaceState,
    hamiltonian,
    mass,
    taylor_coefficient,
    trace_velocities,
    ww_rhs,
)
from wavestrip.dno import DNOParams, DNOSolution, EllipticSolveError, StraighteningError
from wavestrip.grid import Field, heat_propagator, norm_l2
from wavestrip.symmetrizer import symmetrized_energy, symmetrized_pair
from wavestrip.ulspaces import PartitionOfUnity, ul_sobolev_norm


class CFLError(ValueError):
    """Step size violates the dispersive stability guard."""


class StepError(RuntimeError):
    """Fixed-point iteration of the Duhamel step did not converge."""


class MonitorAbort(RuntimeError):
    """A runtime admissibility monitor tripped."""


# admissibility limits of every run
CFL_SAFETY = 2.5  # largest dt * omega_max
DEPTH_FLOOR = 0.5  # smallest depth, as a fraction of the still depth h
TAYLOR_FLOOR = 0.0  # smallest Taylor coefficient a


@dataclass(frozen=True)
class StepConfig:
    dt: float
    epsilon: float = 0.0  # > 0 exactly for "parabolic-duhamel"
    scheme: str = "rk4"  # "rk4" or "parabolic-duhamel"
    fixed_point_tol: float = 1e-10
    fixed_point_max_iter: int = 40  # bounds the RHS calls of a Duhamel step
    dno: DNOParams = DNOParams()
    # depth and energy are recorded every step; the Taylor coefficient costs
    # a pressure solve, so it is recorded every taylor_every steps, or never
    # when taylor_every is None
    taylor_every: int | None = 5
    ul_norm_s: tuple[float, ...] = ()
    symmetrized_s: float | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.fixed_point_tol <= 0:
            raise ValueError("fixed_point_tol must be positive")
        if self.fixed_point_max_iter < 1 or (self.taylor_every is not None
                                             and self.taylor_every < 1):
            raise ValueError("fixed_point_max_iter and taylor_every must be >= 1")
        if self.scheme not in ("rk4", "parabolic-duhamel"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "rk4" and self.epsilon > 0:
            raise ValueError("rk4 integrates the unregularized system; epsilon must be 0")
        if self.scheme == "parabolic-duhamel" and self.epsilon == 0:
            raise ValueError("parabolic-duhamel stepping requires epsilon > 0")


@dataclass
class DiagnosticsRecord:
    t: float
    hamiltonian: float
    mass: float
    min_depth: float
    min_taylor: float  # nan on steps where the pressure solve is skipped
    symmetrized_energy: float  # nan unless min_taylor > TAYLOR_FLOOR
    ul_norms: dict[str, float] = dc_field(default_factory=dict)
    # of the state's potential solve: GMRES "potential_iterations", true
    # relative "potential_residual", and the "potential_delta" (after any
    # halvings) and "potential_min_dz_rho" (min d_z rho) of its straightening
    extra: dict[str, float] = dc_field(default_factory=dict)


@dataclass
class Trajectory:
    states: list[SurfaceState]
    records: list[DiagnosticsRecord]
    status: str = "ok"

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def final(self) -> SurfaceState:
        return self.states[-1]


def max_linear_frequency(state: SurfaceState) -> float:
    kmax = state.eta.grid.resolved_kmax()
    return float(np.sqrt(state.g * kmax * np.tanh(kmax * state.h)))


def check_cfl(state: SurfaceState, cfg: StepConfig) -> None:
    omega = max_linear_frequency(state)
    if cfg.dt * omega > CFL_SAFETY:
        raise CFLError(
            f"dt = {cfg.dt:.4g} exceeds {CFL_SAFETY:.3g}/omega_max "
            f"= {CFL_SAFETY / omega:.4g}"
        )


def _default_rhs(cfg: StepConfig):
    """ww_rhs whose potential solve starts from the previous call's solution.

    Successive calls (RK stages, fixed-point iterates, steps) see nearby
    surfaces, so the last potential is a close GMRES starting point.
    """
    last: DNOSolution | None = None

    def rhs(state: SurfaceState):
        nonlocal last
        eta_t, psi_t, last = ww_rhs(state, cfg.dno, guess=last)
        return eta_t, psi_t, last
    return rhs


def _advance(state: SurfaceState, eta_t: Field, psi_t: Field, dt: float,
             t: float) -> SurfaceState:
    return SurfaceState(eta=state.eta + dt * eta_t, psi=state.psi + dt * psi_t,
                        t=t, g=state.g, h=state.h)


def rk4_step(state: SurfaceState, cfg: StepConfig, rhs=None,
             k1=None) -> SurfaceState:
    """Classical fourth-order step of the unregularized system."""
    check_cfl(state, cfg)
    if rhs is None:
        rhs = _default_rhs(cfg)
    dt = cfg.dt
    if k1 is None:
        k1 = rhs(state)[:2]
    s2 = _advance(state, k1[0], k1[1], dt / 2, state.t + dt / 2)
    k2 = rhs(s2)[:2]
    s3 = _advance(state, k2[0], k2[1], dt / 2, state.t + dt / 2)
    k3 = rhs(s3)[:2]
    s4 = _advance(state, k3[0], k3[1], dt, state.t + dt)
    k4 = rhs(s4)[:2]
    eta_new = state.eta + (dt / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    psi_new = state.psi + (dt / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return SurfaceState(eta=eta_new, psi=psi_new, t=state.t + dt,
                        g=state.g, h=state.h)


def parabolic_step(state: SurfaceState, cfg: StepConfig, rhs=None,
                   k1=None) -> SurfaceState:
    """One Duhamel step of the eps-regularized system (eps > 0)."""
    check_cfl(state, cfg)
    if rhs is None:
        rhs = _default_rhs(cfg)
    dt, eps = cfg.dt, cfg.epsilon

    a0 = k1 if k1 is not None else rhs(state)[:2]
    prop_eta = heat_propagator(state.eta + (dt / 2.0) * a0[0], eps * dt)
    prop_psi = heat_propagator(state.psi + (dt / 2.0) * a0[1], eps * dt)

    # fixed point for the implicit endpoint of the exponential trapezoid,
    # started from the previous step's state; the RHS does not read t, so
    # the first iterate reuses a0 instead of evaluating the RHS at state
    eta_new = prop_eta + (dt / 2.0) * a0[0]
    psi_new = prop_psi + (dt / 2.0) * a0[1]
    delta = norm_l2(eta_new - state.eta) + norm_l2(psi_new - state.psi)
    scale = max(norm_l2(state.eta) + norm_l2(state.psi), 1e-14)
    for _ in range(cfg.fixed_point_max_iter - 1):
        if delta <= cfg.fixed_point_tol * scale:
            break
        trial = SurfaceState(eta=eta_new, psi=psi_new, t=state.t + dt,
                             g=state.g, h=state.h)
        a1 = rhs(trial)[:2]
        eta_next = prop_eta + (dt / 2.0) * a1[0]
        psi_next = prop_psi + (dt / 2.0) * a1[1]
        delta = norm_l2(eta_next - eta_new) + norm_l2(psi_next - psi_new)
        eta_new, psi_new = eta_next, psi_next
    if not delta <= cfg.fixed_point_tol * scale:
        raise StepError(
            f"fixed point stalled at relative update {delta / scale:.3e}; halve dt"
        )
    return SurfaceState(eta=eta_new, psi=psi_new, t=state.t + dt,
                        g=state.g, h=state.h)


def advance(state: SurfaceState, cfg: StepConfig, rhs=None, k1=None) -> SurfaceState:
    if cfg.scheme == "rk4":
        return rk4_step(state, cfg, rhs=rhs, k1=k1)
    return parabolic_step(state, cfg, rhs=rhs, k1=k1)


def _diagnose(state: SurfaceState, cfg: StepConfig, sol: DNOSolution,
              step_index: int, pou: PartitionOfUnity | None) -> DiagnosticsRecord:
    ham = hamiltonian(state, cfg.dno, sol=sol)
    monitored = cfg.taylor_every is not None and step_index % cfg.taylor_every == 0
    min_taylor = sym_energy = np.nan
    if monitored or cfg.symmetrized_s is not None:
        # one pressure solve serves the monitor and the symmetrizer (a > 0)
        a_field, min_taylor = taylor_coefficient(state, sol, cfg.dno)
        if cfg.symmetrized_s is not None and min_taylor > TAYLOR_FLOOR:
            traces, _ = trace_velocities(state, cfg.dno, sol=sol)
            traces.a = a_field
            pair = symmetrized_pair(state, traces, cfg.symmetrized_s)
            sym_energy = symmetrized_energy(pair, pou)[2]
    ul_norms = {}
    for s in cfg.ul_norm_s:
        ul_norms[f"eta_H{s}"] = ul_sobolev_norm(state.eta, s, pou)
        ul_norms[f"psi_H{s}"] = ul_sobolev_norm(state.psi, s, pou)
    return DiagnosticsRecord(
        t=state.t, hamiltonian=float(ham), mass=mass(state),
        min_depth=state.min_depth(), min_taylor=float(min_taylor),
        symmetrized_energy=float(sym_energy), ul_norms=ul_norms,
        extra={"potential_iterations": sol.phi.iterations,
               "potential_residual": sol.phi.residual,
               "potential_delta": sol.dom.delta,
               "potential_min_dz_rho": float(np.min(sol.dom.drho_z))},
    )


def integrate(state: SurfaceState, T: float, cfg: StepConfig, sink=None,
              keep_states: bool = True) -> Trajectory:
    """March to time T with per-step diagnostics and admissibility monitors.

    T must be a nonnegative whole number of steps.  Monitor violations and
    solver failures (elliptic stall, straightening, CFL) return the trajectory
    up to the failure with a non-ok status; a step that forms the Taylor
    coefficient (with symmetrized_s set, every step) and finds min a <=
    TAYLOR_FLOOR keeps its record, then aborts.  A canal of width w with
    vertical walls is run as is: its data, extended evenly across the walls,
    is 2w-periodic in y, and that symmetry is kept by the flow.
    """
    if T < 0:
        raise ValueError(f"T = {T:.6g} is negative")
    n_steps = int(round(T / cfg.dt))
    if abs(n_steps * cfg.dt - T) > 1e-9 * T:
        raise ValueError(f"T = {T:.6g} is not a whole number of steps dt = {cfg.dt:.6g}")
    depth_floor = DEPTH_FLOOR * state.h
    pou = PartitionOfUnity(state.eta.grid) \
        if (cfg.ul_norm_s or cfg.symmetrized_s is not None) else None
    rhs = _default_rhs(cfg)

    states = [state]
    records: list[DiagnosticsRecord] = []
    status = "ok"
    current = state
    for step_index in range(n_steps + 1):
        try:
            eta_t, psi_t, sol = rhs(current)
            rec = _diagnose(current, cfg, sol, step_index, pou)
            records.append(rec)
            if sink is not None:
                sink(rec)
            if rec.min_depth < depth_floor:
                raise MonitorAbort(
                    f"depth monitor: min depth {rec.min_depth:.4g} < "
                    f"floor {depth_floor:.4g} at t = {current.t:.6g}")
            if rec.min_taylor <= TAYLOR_FLOOR:
                raise MonitorAbort(
                    f"Taylor monitor: min a {rec.min_taylor:.4g} <= "
                    f"floor {TAYLOR_FLOOR:.4g} at t = {current.t:.6g}")
            if step_index == n_steps:
                break
            current = advance(current, cfg, rhs=rhs, k1=(eta_t, psi_t))
            if keep_states:
                states.append(current)
            else:
                states[-1] = current
        except (MonitorAbort, StepError) as exc:
            status = f"aborted: {exc}"
            break
        except (CFLError, EllipticSolveError, StraighteningError) as exc:
            status = f"aborted: {type(exc).__name__}: {exc}"
            break
    return Trajectory(states=states, records=records, status=status)
