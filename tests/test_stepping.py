import numpy as np
import pytest

from wavestrip import stepping
from wavestrip.core import SurfaceState, hamiltonian, ww_rhs
from wavestrip.dno import DNOParams, dno_solve
from wavestrip.grid import Field, field_from_function, make_grid, norm_l2
from wavestrip.ulspaces import PartitionOfUnity
from wavestrip.stepping import CFLError, StepConfig, integrate, rk4_step
from stepping_reference import classical_rk4_step

GRID = make_grid([2 * np.pi], [64])
DNO = DNOParams(h=1.0, zpoints=24, tol=1e-12)


def rest_state():
    z = np.zeros(GRID.shape)
    return SurfaceState(eta=Field(GRID, z.copy()), psi=Field(GRID, z.copy()))


def linear_wave_state(eps=0.01, k=1):
    x = GRID.axes()[0]
    return SurfaceState(eta=Field(GRID, eps * np.cos(k * x)),
                        psi=Field(GRID, np.zeros(GRID.shape)))


def config(dt, eps=0.0, **kwargs):
    """StepConfig of the system eps regularizes; scheme only has to agree with eps."""
    scheme = "parabolic-duhamel" if eps > 0 else "rk4"
    return StepConfig(dt=dt, epsilon=eps, scheme=scheme, dno=DNO, **kwargs)


def zero_rhs(state):
    z = Field(state.eta.grid, np.zeros(state.eta.grid.shape))
    return z, z, None


def test_config_validation():
    for kwargs in (
        dict(dt=-0.1),
        dict(epsilon=-1.0),
        dict(scheme="leapfrog"),
        dict(taylor_every=0),
        dict(epsilon=0.01),  # rk4 would drop the regularization
        dict(scheme="parabolic-duhamel"),  # epsilon 0 has no heat flow
    ):
        with pytest.raises(ValueError):
            StepConfig(**{"dt": 0.1, **kwargs})


def test_cfl_guard():
    cfg = StepConfig(dt=10.0, dno=DNO)
    with pytest.raises(CFLError):
        rk4_step(linear_wave_state(), cfg)


def test_rk4_rest_is_fixed_point():
    cfg = StepConfig(dt=0.05, dno=DNO)
    out = rk4_step(rest_state(), cfg)
    assert norm_l2(out.eta) < 1e-14
    assert norm_l2(out.psi) < 1e-14
    assert out.t == pytest.approx(0.05)


def test_parabolic_heat_flow_exact_with_frozen_nonlinearity():
    eps, dt, k = 0.3, 0.05, 3
    x = GRID.axes()[0]
    state = SurfaceState(eta=Field(GRID, np.cos(k * x)),
                         psi=Field(GRID, np.sin(k * x)))
    cfg = StepConfig(dt=dt, epsilon=eps, scheme="parabolic-duhamel", dno=DNO)
    out = rk4_step(state, cfg, rhs=zero_rhs)
    decay = np.exp(-eps * dt * k ** 2)
    assert np.max(np.abs(out.eta.values - decay * np.cos(k * x))) < 1e-13
    assert np.max(np.abs(out.psi.values - decay * np.sin(k * x))) < 1e-13


def test_parabolic_rest_is_fixed_point():
    cfg = StepConfig(dt=0.05, epsilon=0.01, scheme="parabolic-duhamel", dno=DNO)
    out = rk4_step(rest_state(), cfg)
    assert norm_l2(out.eta) < 1e-13


def test_rk4_linear_wave_period_return():
    k, eps = 1, 1e-7  # linear regime: quadratic bound waves stay below 1e-6 relative
    omega = np.sqrt(np.tanh(1.0))
    period = 2 * np.pi / omega
    cfg = StepConfig(dt=period / 200, dno=DNO, taylor_every=None)
    state = linear_wave_state(eps, k)
    traj = integrate(state, period, cfg, keep_states=False)
    assert traj.status == "ok"
    final = traj.final()
    rel = norm_l2(final.eta - state.eta) / norm_l2(state.eta)
    assert rel < 1e-5


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_rk4_self_convergence_order(eps):
    # at eps > 0 the heat flow is exact, so the order is that of RK4 on the
    # nonlinear part
    state = SurfaceState(
        eta=field_from_function(GRID, lambda x: 0.03 * np.cos(x)),
        psi=field_from_function(GRID, lambda x: 0.03 * np.sin(x)))
    T = 0.8
    outs = {}
    for n in (10, 20, 40):
        cfg = config(T / n, eps, taylor_every=None)
        traj = integrate(state, T, cfg, keep_states=False)
        outs[n] = traj.final()
    e1 = norm_l2(outs[10].eta - outs[40].eta) + norm_l2(outs[10].psi - outs[40].psi)
    e2 = norm_l2(outs[20].eta - outs[40].eta) + norm_l2(outs[20].psi - outs[40].psi)
    ratio = e1 / e2
    assert 16 - 6 < ratio < 16 + 8  # fourth order, loose band


def test_time_reversal_via_psi_negation():
    state = SurfaceState(
        eta=field_from_function(GRID, lambda x: 0.02 * np.cos(x)),
        psi=field_from_function(GRID, lambda x: 0.02 * np.sin(2 * x)))
    T, n = 0.6, 60
    cfg = StepConfig(dt=T / n, dno=DNO, taylor_every=None)
    fwd = integrate(state, T, cfg, keep_states=False).final()
    mirrored = SurfaceState(eta=fwd.eta, psi=-1.0 * fwd.psi, t=0.0,
                            g=fwd.g, h=fwd.h)
    back = integrate(mirrored, T, cfg, keep_states=False).final()
    err = norm_l2(back.eta - state.eta) + norm_l2(back.psi + state.psi)
    # bounded by a small multiple of the forward discretization error
    cfg2 = StepConfig(dt=T / (2 * n), dno=DNO, taylor_every=None)
    ref = integrate(state, T, cfg2, keep_states=False).final()
    fwd_err = norm_l2(fwd.eta - ref.eta) + norm_l2(fwd.psi - ref.psi)
    assert err <= 10 * max(fwd_err, 1e-12)


def test_parabolic_dissipates_energy():
    state = SurfaceState(
        eta=field_from_function(GRID, lambda x: 0.02 * np.cos(x)),
        psi=field_from_function(GRID, lambda x: 0.02 * np.sin(x)))
    cfg = StepConfig(dt=0.02, epsilon=0.05, scheme="parabolic-duhamel", dno=DNO,
                     taylor_every=None)
    traj = integrate(state, 0.4, cfg, keep_states=False)
    energies = [r.hamiltonian for r in traj.records]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-8 * cfg.dt + 1e-14)


def test_integrate_rest_trajectory_constant():
    cfg = StepConfig(dt=0.1, dno=DNO)
    traj = integrate(rest_state(), 1.0, cfg)
    assert traj.status == "ok"
    assert len(traj.records) == 11
    assert all(abs(r.hamiltonian) < 1e-14 for r in traj.records)
    assert all(abs(r.mass) < 1e-14 for r in traj.records)
    taylor_vals = [r.min_taylor for r in traj.records if np.isfinite(r.min_taylor)]
    assert taylor_vals and all(abs(v - 1.0) < 1e-8 for v in taylor_vals)


def test_integrate_depth_monitor_aborts_immediately():
    x = GRID.axes()[0]
    state = SurfaceState(eta=Field(GRID, -0.99 * np.ones(GRID.shape) + 0.001 * np.cos(x)),
                         psi=Field(GRID, np.zeros(GRID.shape)))
    cfg = StepConfig(dt=0.01, dno=DNO)
    traj = integrate(state, 0.1, cfg)
    assert traj.status.startswith("aborted: depth monitor")
    assert len(traj.states) == 1


def test_integrate_sink_receives_records():
    seen = []
    cfg = StepConfig(dt=0.1, dno=DNO, taylor_every=None)
    integrate(rest_state(), 0.3, cfg, sink=seen.append)
    assert len(seen) == 4
    assert seen[0].t == 0.0


def test_vanishing_viscosity_rate():
    state = SurfaceState(
        eta=field_from_function(GRID, lambda x: 0.02 * np.cos(x)),
        psi=field_from_function(GRID, lambda x: 0.02 * np.sin(x)))
    T = 0.4
    ref = integrate(state, T, StepConfig(dt=0.02, dno=DNO, taylor_every=None),
                    keep_states=False).final()
    dists, epses = [], [1e-2, 5e-3, 2.5e-3]
    for eps in epses:
        cfg = StepConfig(dt=0.02, epsilon=eps, scheme="parabolic-duhamel",
                         dno=DNO, taylor_every=None)
        out = integrate(state, T, cfg, keep_states=False).final()
        dists.append(norm_l2(out.eta - ref.eta) + norm_l2(out.psi - ref.psi))
    slope = np.polyfit(np.log(epses), np.log(dists), 1)[0]
    assert 0.8 <= slope <= 1.2


def test_ul_norm_diagnostics_recorded():
    cfg = StepConfig(dt=0.05, dno=DNO, ul_norm_s=(1.0,), taylor_every=None)
    traj = integrate(linear_wave_state(0.01), 0.1, cfg)
    assert "eta_H1.0" in traj.records[0].ul_norms
    assert traj.records[0].ul_norms["eta_H1.0"] > 0
    # taylor_every=None records no Taylor coefficient
    assert all(np.isnan(r.min_taylor) for r in traj.records)


def test_diagnose_runs_one_pressure_solve(monkeypatch):
    state = linear_wave_state(eps=0.02)
    cfg = StepConfig(dt=0.01, dno=DNO, taylor_every=1, symmetrized_s=1.0)
    sol = dno_solve(state.eta, state.psi, DNO)
    calls = []
    solve = stepping.taylor_coefficient

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(stepping, "taylor_coefficient", counted)
    rec = stepping._diagnose(state, cfg, sol, 0, PartitionOfUnity(GRID))
    assert len(calls) == 1
    assert rec.min_taylor == solve(state, sol, DNO)[1]
    assert np.isfinite(rec.symmetrized_energy)


def test_integrate_cfl_failure_ends_with_status():
    cfg = StepConfig(dt=10.0, dno=DNO, taylor_every=None)
    traj = integrate(linear_wave_state(), 10.0, cfg)
    assert traj.status.startswith("aborted: CFLError: dt = 10")
    assert len(traj.states) == 1 and len(traj.records) == 1


def test_integrate_elliptic_failure_ends_with_status():
    from dataclasses import replace

    cfg = StepConfig(dt=0.05, dno=replace(DNO, maxiter=1), taylor_every=None)
    traj = integrate(linear_wave_state(0.05), 0.1, cfg)
    assert traj.status.startswith("aborted: EllipticSolveError: elliptic solve stalled")
    # psi = 0 needs no Krylov step, so step 0 is diagnosed before the first
    # RK stage stalls; that record is kept
    assert len(traj.states) == 1 and len(traj.records) == 1


def test_integrate_taylor_sign_failure_ends_with_status():
    # at g = 0 the rest state has a = 0, which the paper's strict condition
    # a > 0 excludes; with or without the symmetrizer the run ends on the
    # monitor and keeps the record of the failing step
    rest = rest_state()
    state = SurfaceState(eta=rest.eta, psi=rest.psi, g=0.0)
    for cfg in (StepConfig(dt=0.05, dno=DNO, taylor_every=1, symmetrized_s=1.0),
                StepConfig(dt=0.05, dno=DNO, taylor_every=1)):
        sunk = []
        traj = integrate(state, 0.1, cfg, sink=sunk.append)
        assert traj.status == "aborted: Taylor monitor: min a 0 <= floor 0 at t = 0"
        assert len(traj.states) == 1 and traj.records == sunk
        assert len(sunk) == 1 and sunk[0].min_taylor == 0.0
        assert np.isnan(sunk[0].symmetrized_energy)


def test_symmetrized_runs_record_taylor_on_every_step():
    # the symmetrizer forms a on every step, so every record carries it,
    # not only the taylor_every-th ones
    cfg = StepConfig(dt=0.05, dno=DNO, taylor_every=5, symmetrized_s=1.0)
    traj = integrate(linear_wave_state(), 2 * cfg.dt, cfg)
    assert traj.status == "ok"
    for rec in traj.records:
        assert rec.min_taylor > 0.5 and np.isfinite(rec.symmetrized_energy)


def test_integrate_rejects_partial_final_step():
    cfg = StepConfig(dt=0.1, dno=DNO, taylor_every=None)
    with pytest.raises(ValueError, match="whole number of steps"):
        integrate(rest_state(), 0.15, cfg)
    with pytest.raises(ValueError, match="T = -0.1 is negative"):
        integrate(rest_state(), -0.1, cfg)


def cold_rhs(state):
    return ww_rhs(state, DNO)


def moving_wave_state(eps=0.05):
    return SurfaceState(eta=field_from_function(GRID, lambda x: eps * np.cos(x)),
                        psi=field_from_function(GRID, lambda x: 0.6 * eps * np.sin(x)))


def test_rk4_step_at_eps_zero_is_classical_rk4_bitwise():
    state = moving_wave_state()
    cfg = StepConfig(dt=0.05, dno=DNO)
    out = rk4_step(state, cfg, rhs=cold_rhs)
    ref = classical_rk4_step(state, cfg.dt, cold_rhs)
    assert np.array_equal(out.eta.values, ref.eta.values)
    assert np.array_equal(out.psi.values, ref.psi.values)
    assert out.t == ref.t


@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_parabolic_step_never_reevaluates_rhs_at_state(eps):
    state = moving_wave_state()
    seen = []

    def counting(s):
        seen.append((s.eta.values.copy(), s.psi.values.copy()))
        return cold_rhs(s)

    rk4_step(state, config(0.05, eps), rhs=counting, k1=cold_rhs(state)[:2])
    assert len(seen) == 3
    assert not any(np.array_equal(e, state.eta.values) and np.array_equal(p, state.psi.values)
                   for e, p in seen)


def test_default_rhs_warm_starts_from_previous_call():
    def its(sol):
        return sol.phi.iterations

    state = moving_wave_state(0.1)
    rhs = stepping._default_rhs(StepConfig(dt=0.05, dno=DNO))
    eta_t, psi_t, sol = rhs(state)
    cold_its = its(sol)
    near = SurfaceState(eta=state.eta + 1e-3 * eta_t, psi=state.psi + 1e-3 * psi_t)
    warm_sol = rhs(near)[2]
    cold_sol = dno_solve(near.eta, near.psi, DNO)
    assert its(warm_sol) < min(cold_its, its(cold_sol))
    assert np.max(np.abs(warm_sol.gpsi.values - cold_sol.gpsi.values)) < 1e-10


def test_records_carry_potential_solve_iterations():
    cfg = StepConfig(dt=0.05, dno=DNO)
    traj = integrate(moving_wave_state(0.1), 3 * cfg.dt, cfg)
    assert traj.status == "ok"
    counts = [rec.extra["potential_iterations"] for rec in traj.records]
    assert len(counts) == 4
    # the first solve is cold; every later one starts from the last RK stage
    assert all(counts[0] > c for c in counts[1:])


def test_records_carry_potential_solve_residual():
    cfg = StepConfig(dt=0.05, dno=DNO)
    traj = integrate(moving_wave_state(0.1), 3 * cfg.dt, cfg)
    assert traj.status == "ok"
    residuals = [rec.extra["potential_residual"] for rec in traj.records]
    assert len(residuals) == 4
    assert all(0.0 <= r <= max(50.0 * DNO.tol, 1e-13) for r in residuals)


def test_records_carry_straightening_delta_after_halvings():
    # delta 3 folds the strip over this surface, so straighten_adaptive
    # halves it before the solve; the record says which delta was used
    x = GRID.axes()[0]
    steep = SurfaceState(eta=Field(GRID, 0.2 * np.cos(8 * x)), psi=Field(GRID, 0.0 * x))
    for state, params, delta in ((steep, DNOParams(h=1.0, delta=3.0, zpoints=24), 3.0 / 16),
                                 (linear_wave_state(), DNO, DNO.delta)):
        cfg = StepConfig(dt=0.01, dno=params, taylor_every=None)
        rec, = integrate(state, 0.0, cfg).records
        assert rec.extra["potential_delta"] == delta
        assert 0.5 <= rec.extra["potential_min_dz_rho"] < 1.0


def test_integrate_default_params_runs():
    # default DNOParams and StepConfig: zpoints 48, Taylor monitor on
    grid = make_grid([2 * np.pi], [64])
    state = SurfaceState(eta=field_from_function(grid, lambda x: 0.1 * np.cos(x)),
                         psi=Field(grid, np.zeros(grid.shape)))
    traj = integrate(state, 0.2, StepConfig(dt=0.05))
    assert traj.status == "ok"
    assert len(traj.records) == 5
    assert 0.0 < traj.records[0].min_taylor < 1.0
