import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestrip import stepping
from wavestrip.core import SurfaceState, ww_rhs
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


def step(state, cfg, rhs=None):
    """rk4_step handed ``rhs`` (by default integrate's) and its value at state."""
    rhs = stepping._default_rhs(cfg) if rhs is None else rhs
    return rk4_step(state, cfg, rhs, rhs(state)[:2])


def test_config_validation():
    for kwargs in (
        dict(dt=-0.1),
        dict(epsilon=-1.0),
        dict(scheme="leapfrog"),
        dict(taylor_every=0),
        dict(epsilon=0.01),  # rk4 would drop the regularization
        dict(scheme="parabolic-duhamel"),  # epsilon 0 has no heat flow
        dict(epsilon=np.nan),
        dict(epsilon=np.inf, scheme="parabolic-duhamel"),
        dict(dt=np.nan),
        dict(dt=np.inf),  # T = 0.1 would run 0 steps and report ok
        dict(taylor_every=2.5),
        dict(taylor_every=True),
        dict(symmetrized_s=np.nan),  # <D>^s would make every field NaN
        dict(symmetrized_s=np.inf),
        dict(ul_norm_s=(np.nan,)),  # a record would read eta_Hnan: nan
        dict(ul_norm_s=(np.inf,)),
        dict(ul_norm_s=1.0),  # integrate would raise TypeError iterating it
        dict(ul_norm_s=np.array([1.0, 2.0])),  # and this an ambiguous truth value
        dict(ul_norm_s=[1.0]),  # a tuple, as PeriodicGrid asks
    ):
        with pytest.raises(ValueError):
            StepConfig(**{"dt": 0.1, **kwargs})


def test_cfl_guard():
    cfg = StepConfig(dt=10.0, dno=DNO)
    with pytest.raises(CFLError):
        step(linear_wave_state(), cfg)


def test_rk4_rest_is_fixed_point():
    cfg = StepConfig(dt=0.05, dno=DNO)
    out = step(rest_state(), cfg)
    assert norm_l2(out.eta) < 1e-14
    assert norm_l2(out.psi) < 1e-14
    assert out.t == pytest.approx(0.05)


def test_parabolic_heat_flow_exact_with_frozen_nonlinearity():
    eps, dt, k = 0.3, 0.05, 3
    x = GRID.axes()[0]
    state = SurfaceState(eta=Field(GRID, np.cos(k * x)),
                         psi=Field(GRID, np.sin(k * x)))
    cfg = StepConfig(dt=dt, epsilon=eps, scheme="parabolic-duhamel", dno=DNO)
    out = step(state, cfg, zero_rhs)
    decay = np.exp(-eps * dt * k ** 2)
    assert np.max(np.abs(out.eta.values - decay * np.cos(k * x))) < 1e-13
    assert np.max(np.abs(out.psi.values - decay * np.sin(k * x))) < 1e-13


def test_parabolic_rest_is_fixed_point():
    cfg = StepConfig(dt=0.05, epsilon=0.01, scheme="parabolic-duhamel", dno=DNO)
    out = step(rest_state(), cfg)
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


def test_integrate_taylor_sign_failure_ends_with_status(monkeypatch):
    # the rest state has a = g = 1 exactly, and SurfaceState takes g > 0 only,
    # so the floor is raised to 1: min a == floor must trip the monitor and
    # leave the symmetrized energy unset; with or without the symmetrizer the
    # run ends on the monitor and keeps the record of the failing step
    monkeypatch.setattr(stepping, "TAYLOR_FLOOR", 1.0)
    for cfg in (StepConfig(dt=0.05, dno=DNO, taylor_every=1, symmetrized_s=1.0),
                StepConfig(dt=0.05, dno=DNO, taylor_every=1)):
        sunk = []
        traj = integrate(rest_state(), 0.1, cfg, sink=sunk.append)
        assert traj.status == "aborted: Taylor monitor: min a 1 <= floor 1 at t = 0"
        assert len(traj.states) == 1 and traj.records == sunk
        assert len(sunk) == 1 and sunk[0].min_taylor == 1.0
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
    for T, dt in ((np.inf, 0.1), (np.nan, 0.1), (1.0, 1e-320)):
        with pytest.raises(ValueError, match="not a finite number of steps"):
            integrate(rest_state(), T, StepConfig(dt=dt, dno=DNO, taylor_every=None))


def cold_rhs(state):
    return ww_rhs(state, DNO, None)


def moving_wave_state(eps=0.05):
    return SurfaceState(eta=field_from_function(GRID, lambda x: eps * np.cos(x)),
                        psi=field_from_function(GRID, lambda x: 0.6 * eps * np.sin(x)))


def test_rk4_step_at_eps_zero_is_classical_rk4_bitwise():
    state = moving_wave_state()
    cfg = StepConfig(dt=0.05, dno=DNO)
    out = step(state, cfg, cold_rhs)
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

    rk4_step(state, config(0.05, eps), counting, cold_rhs(state)[:2])
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


def test_default_rhs_extrapolates_the_guess_in_time(monkeypatch):
    # two RK4 steps from t = 0 at dt = 1/16, so every stage time is exact;
    # calls: t0, k2, k3, k4 of the first step, then t1, k2, k3, k4
    calls = []

    def recording(state, params, guess):
        out = ww_rhs(state, params, guess)
        calls.append((state.t, guess, out[2].phi))
        return out

    monkeypatch.setattr(stepping, "ww_rhs", recording)
    cfg = StepConfig(dt=1 / 16, dno=DNO)
    rhs = stepping._default_rhs(cfg)
    state = moving_wave_state(0.1)
    for _ in range(2):
        state = step(state, cfg, rhs)
    times = [t for t, _, _ in calls]
    assert times == [0, 1 / 32, 1 / 32, 1 / 16, 1 / 16, 3 / 32, 3 / 32, 1 / 8]
    guesses = [g for _, g, _ in calls]
    phis = [p for _, _, p in calls]
    assert guesses[0] is None
    # a time solved before, or the second time of all, starts from the last solve
    for i in (1, 2, 4, 6):
        assert guesses[i] is phis[i - 1]

    def check(guess, later, earlier):
        for name in ("values", "unknown"):
            ref = 2 * getattr(later, name) - getattr(earlier, name)
            assert np.max(np.abs(getattr(guess, name) - ref)) <= 1e-14 * np.max(np.abs(ref))

    check(guesses[3], phis[2], phis[0])  # 2 Phi(t + dt/2) - Phi(t) at k4
    check(guesses[7], phis[6], phis[4])
    check(guesses[5], phis[4], phis[2])  # 2 Phi(t) - Phi(t - dt/2) at k2


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


SPOILABLE = ("eta", "psi", "g", "dt", "epsilon", "T")


def evenly(lo, hi, n=20, log=False):
    """n + 1 evenly spaced values from lo to hi (log-spaced when log)."""
    if log:
        return st.integers(0, n).map(lambda i: lo * (hi / lo) ** (i / n))
    return st.integers(0, n).map(lambda i: lo + (hi - lo) * i / n)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(points=st.sampled_from([16, 32]), zpoints=st.integers(8, 12),
       k=st.integers(1, 3), height=evenly(0.0, 1.5), slope=evenly(0.0, 2.0),
       phase=evenly(0.0, 2 * np.pi), psi_amp=evenly(0.0, 2.0),
       g=evenly(1e-3, 10.0, log=True), dt=evenly(1e-3, 1.0, log=True),
       eps=st.one_of(st.just(0.0), evenly(0.0, 10.0)), n_steps=st.integers(0, 3),
       taylor_every=st.sampled_from([None, 1]), symmetrized_s=st.sampled_from([None, 1.0]),
       spoil=st.sampled_from(SPOILABLE + (None,) * 12),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_integrate_ends_in_construction_error_or_named_status(
        points, zpoints, k, height, slope, phase, psi_amp, g, dt, eps, n_steps,
        taylor_every, symmetrized_s, spoil, bad):
    # amplitudes past the depth h = 1, slopes up to 2, dt past the CFL bound
    # and eps up to 10; at most one input is made non-finite
    grid = make_grid([2 * np.pi], [points])
    x = grid.axes()[0]
    inputs = dict(eta=min(height, slope / k) * np.cos(k * x + phase),
                  psi=psi_amp * np.sin(k * x), g=g, dt=dt, epsilon=eps, T=n_steps * dt)
    if spoil in ("eta", "psi"):
        inputs[spoil][points // 3] = bad
    elif spoil is not None:
        inputs[spoil] = bad
    scheme = "parabolic-duhamel" if inputs["epsilon"] > 0 else "rk4"
    try:
        state = SurfaceState(eta=Field(grid, inputs["eta"]), psi=Field(grid, inputs["psi"]),
                             g=inputs["g"])
        cfg = StepConfig(dt=inputs["dt"], epsilon=inputs["epsilon"], scheme=scheme,
                         dno=DNOParams(h=1.0, zpoints=zpoints), taylor_every=taylor_every,
                         symmetrized_s=symmetrized_s)
    except ValueError:
        assert spoil not in (None, "T")
        return
    assert spoil in (None, "T")
    if spoil == "T":
        with pytest.raises(ValueError, match="not a finite number of steps"):
            integrate(state, inputs["T"], cfg)
        return
    traj = integrate(state, inputs["T"], cfg)
    assert traj.status == "ok" or re.fullmatch(r"aborted: \w[\w ]*: .+", traj.status)
    for rec in traj.records:
        values = [rec.hamiltonian, rec.mass, rec.min_depth, *rec.extra.values()]
        assert np.all(np.isfinite(values)), (traj.status, rec)
