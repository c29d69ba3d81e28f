"""Time integration of the eps-regularized system, eps >= 0.

The regularized system adds eps*Laplacian to both tendencies,
U' = eps Lap U + A(U).  Every step, at every eps, is the integrating-factor
RK4 of Lawson (SIAM J. Numer. Anal. 4, 1967): classical RK4 for
V(t) = E(-t) U(t), with E(t) = e^{eps t Lap} applied by ``heat_propagator``.
The heat flow is then exact and only A is approximated, to fourth order.  At
eps = 0 every E is the identity and ``rk4_step`` is classical RK4.  Runtime
monitors track admissibility (depth floor, Taylor sign) and conserved-quantity
diagnostics every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wavestrip.core import (
    SurfaceState,
    hamiltonian,
    mass,
    taylor_coefficient,
    trace_velocities,
    ww_rhs,
)
from wavestrip.dno import (
    DNOParams,
    DNOSolution,
    EllipticSolveError,
    StraightenedField,
    StraighteningError,
)
from wavestrip.grid import heat_propagator, is_count
from wavestrip.symmetrizer import symmetrized_energy, symmetrized_pair
from wavestrip.ulspaces import PartitionOfUnity, ul_sobolev_norm


class CFLError(ValueError):
    """Step size violates the dispersive stability guard."""


# admissibility limits of every run
CFL_SAFETY = 2.5  # largest dt * omega_max
DEPTH_FLOOR = 0.5  # smallest depth, as a fraction of the still depth h
TAYLOR_FLOOR = 0.0  # smallest Taylor coefficient a


@dataclass(frozen=True)
class StepConfig:
    dt: float
    epsilon: float = 0.0  # the regularization; > 0 exactly for "parabolic-duhamel"
    # names the system, "rk4" (epsilon 0) or "parabolic-duhamel" (epsilon >
    # 0), and selects nothing: rk4_step integrates both.  It stays, checked
    # against epsilon, while the benchmark's workloads still set it.
    scheme: str = "rk4"
    dno: DNOParams = DNOParams()
    # depth and energy are recorded every step; the Taylor coefficient costs
    # a pressure solve, so it is recorded every taylor_every steps, or never
    # when taylor_every is None
    taylor_every: int | None = 5
    ul_norm_s: tuple[float, ...] = ()
    symmetrized_s: float | None = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be nonnegative and finite, got {self.epsilon}")
        if self.taylor_every is not None and not (
                is_count(self.taylor_every) and self.taylor_every >= 1):
            raise ValueError(
                f"taylor_every must be an integer >= 1 or None, got {self.taylor_every!r}")
        if self.symmetrized_s is not None and not np.isfinite(self.symmetrized_s):
            raise ValueError(f"symmetrized_s must be finite or None, got {self.symmetrized_s}")
        if not (isinstance(self.ul_norm_s, tuple) and np.all(np.isfinite(self.ul_norm_s))):
            raise ValueError(f"ul_norm_s must be a tuple of finite orders, got {self.ul_norm_s!r}")
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
    ul_norms: dict[str, float]
    # of the state's potential solve: GMRES "potential_iterations", true
    # relative "potential_residual", and the "potential_delta" (after any
    # halvings) and "potential_min_dz_rho" (min d_z rho) of its straightening
    extra: dict[str, float]


@dataclass
class Trajectory:
    states: list[SurfaceState]
    records: list[DiagnosticsRecord]
    status: str  # "ok", or "aborted: " and the cause

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
    """ww_rhs whose potential solve starts from the earlier calls' solutions.

    Successive calls (RK stages, steps) see nearby surfaces, so earlier
    potentials give a close GMRES start.  Two solves are kept with their
    times: the last one, and the last one at a different time.  A state at
    the last solve's time starts from that potential; a state at another
    time starts from the linear extrapolation in t of the two (values and
    unknown), or from the last potential while only one time has been
    solved.  In an RK4 step from t that is 2 Phi(t) - Phi(t - dt/2) at the
    first midpoint stage and 2 Phi(t + dt/2) - Phi(t) at t + dt, which
    removes the O(dt) drift of the potential between stages (earlier
    solutions reused for successive right-hand sides, as in Fischer,
    Comput. Methods Appl. Mech. Engrg. 163, 1998).
    """
    last: tuple[float, StraightenedField] | None = None
    before: tuple[float, StraightenedField] | None = None

    def guess(t: float) -> StraightenedField | None:
        if before is None or t == last[0]:
            return None if last is None else last[1]
        (t1, p1), (t0, p0) = last, before
        c = (t - t1) / (t1 - t0)
        return StraightenedField(p1.values + c * (p1.values - p0.values),
                                 p1.unknown + c * (p1.unknown - p0.unknown), 0, np.nan)

    def rhs(state: SurfaceState):
        nonlocal last, before
        eta_t, psi_t, sol = ww_rhs(state, cfg.dno, guess=guess(state.t))
        if last is not None and last[0] != state.t:
            before = last
        last = (state.t, sol.phi)
        return eta_t, psi_t, sol
    return rhs


def rk4_step(state: SurfaceState, cfg: StepConfig, rhs, k1) -> SurfaceState:
    """One Lawson RK4 step of the eps-regularized system; classical RK4 at eps 0.

    ``rhs(state)`` returns the tendencies (eta_t, psi_t, ...) of the
    unregularized system, and ``k1`` is the pair (eta_t, psi_t) at
    ``state``.  A step makes 3 RHS calls, none at ``state``.
    """
    check_cfl(state, cfg)
    dt, eps = cfg.dt, cfg.epsilon

    def E(f, t):
        # the identity at eps 0 keeps that path bitwise classical RK4
        return f if eps == 0.0 else heat_propagator(f, eps * t)

    def at(t, pair):
        return SurfaceState(eta=pair[0], psi=pair[1], t=t, g=state.g, h=state.h)

    u = (state.eta, state.psi)
    t_half = state.t + dt / 2
    k2 = rhs(at(t_half, [E(f + (dt / 2) * k, dt / 2) for f, k in zip(u, k1)]))[:2]
    k3 = rhs(at(t_half, [E(f, dt / 2) + (dt / 2) * k for f, k in zip(u, k2)]))[:2]
    u_dt = [E(f, dt) for f in u]
    k3_half = [E(k, dt / 2) for k in k3]
    k4 = rhs(at(state.t + dt, [f + dt * k for f, k in zip(u_dt, k3_half)]))[:2]
    return at(state.t + dt, [
        f + (dt / 6.0) * (E(a, dt) + 2.0 * E(b, dt / 2) + 2.0 * c + d)
        for f, a, b, c, d in zip(u_dt, k1, k2, k3_half, k4)])


# perfbench/tracer.py wraps this name, so it stays until the benchmark's
# parabolic workload is keyed on epsilon; integrate never calls it.
parabolic_step = rk4_step


def _diagnose(state: SurfaceState, cfg: StepConfig, sol: DNOSolution,
              step_index: int, pou: PartitionOfUnity | None) -> DiagnosticsRecord:
    ham = hamiltonian(state, sol)
    monitored = cfg.taylor_every is not None and step_index % cfg.taylor_every == 0
    min_taylor = sym_energy = np.nan
    if monitored or cfg.symmetrized_s is not None:
        # one pressure solve serves the monitor and the symmetrizer (a > 0)
        a_field, min_taylor = taylor_coefficient(state, sol, cfg.dno)
        if cfg.symmetrized_s is not None and min_taylor > TAYLOR_FLOOR:
            traces = trace_velocities(state, sol)
            pair = symmetrized_pair(state, traces, a_field, cfg.symmetrized_s)
            sym_energy = symmetrized_energy(pair, pou)
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

    Each step is one ``rk4_step``, the Lawson RK4 of the eps-regularized
    system (classical RK4 at eps 0), handed the RHS that the step's record
    was diagnosed from.  T must be a nonnegative, finite whole number of steps.
    Monitor violations and solver failures (elliptic stall, straightening,
    CFL) return the trajectory up to the failure with a non-ok status; a
    step that forms the Taylor coefficient (with symmetrized_s set, every
    step) and finds min a <= TAYLOR_FLOOR keeps its record, then aborts.  A
    canal of width w with vertical walls is run as is: its data, extended
    evenly across the walls, is 2w-periodic in y, and that symmetry is kept
    by the flow.
    """
    if not 0 <= T / cfg.dt < np.inf:
        raise ValueError(f"T = {T:.6g} is negative or not a finite number of steps "
                         f"dt = {cfg.dt:.6g}")
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
                status = (f"aborted: depth monitor: min depth {rec.min_depth:.4g} < "
                          f"floor {depth_floor:.4g} at t = {current.t:.6g}")
                break
            if rec.min_taylor <= TAYLOR_FLOOR:
                status = (f"aborted: Taylor monitor: min a {rec.min_taylor:.4g} <= "
                          f"floor {TAYLOR_FLOOR:.4g} at t = {current.t:.6g}")
                break
            if step_index == n_steps:
                break
            current = rk4_step(current, cfg, rhs, (eta_t, psi_t))
            if keep_states:
                states.append(current)
            else:
                states[-1] = current
        except (CFLError, EllipticSolveError, StraighteningError) as exc:
            status = f"aborted: {type(exc).__name__}: {exc}"
            break
    return Trajectory(states=states, records=records, status=status)
