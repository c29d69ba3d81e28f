import numpy as np
import pytest

from wavestrip.core import (
    SurfaceState,
    analyze_state,
    hamiltonian,
    mass,
    reformulated_residuals,
    taylor_coefficient,
    trace_velocities,
    ww_rhs,
)
from wavestrip.dno import (
    DNOParams,
    StraightenedField,
    dno_solve,
    solve_laplace,
)
from wavestrip.grid import (
    Field,
    field_from_function,
    fourier_multiplier,
    make_grid,
    norm_l2,
    shift_field,
    spectral_gradient,
)

GRID = make_grid([2 * np.pi], [128])
PARAMS = DNOParams(h=1.0, zpoints=40)
ZERO = Field(GRID, np.zeros(GRID.shape))


def state_of(eta_vals, psi_vals, g=1.0, h=1.0):
    return SurfaceState(eta=Field(GRID, eta_vals), psi=Field(GRID, psi_vals),
                        t=0.0, g=g, h=h)


def test_state_rejects_eta_and_psi_on_different_grids():
    # equal point counts on different periods: ww_rhs would otherwise run,
    # returning tendencies on eta's grid
    short, long = make_grid([2 * np.pi], [64]), make_grid([4 * np.pi], [64])
    with pytest.raises(ValueError, match="one grid"):
        SurfaceState(eta=Field(short, np.zeros(64)), psi=Field(long, np.zeros(64)))


def test_traces_flat_surface():
    psi = field_from_function(GRID, lambda x: np.sin(2 * x))
    state = state_of(np.zeros(GRID.shape), psi.values)
    traces, sol = trace_velocities(state, PARAMS)
    expected_b = fourier_multiplier(psi, lambda k: np.abs(k) * np.tanh(np.abs(k)))
    assert np.max(np.abs(traces.B.values - expected_b.values)) < 1e-10
    assert np.max(np.abs(traces.V[0].values - 2 * np.cos(2 * GRID.axes()[0]))) < 1e-10


def test_traces_zero_potential():
    state = state_of(0.05 * np.cos(GRID.axes()[0]), np.zeros(GRID.shape))
    traces, _ = trace_velocities(state, PARAMS)
    assert norm_l2(traces.B) < 1e-11
    assert norm_l2(traces.V[0]) < 1e-11


def test_traces_match_chain_rule_traces():
    # internal consistency: B = Lam1 Phi|0, V = Lam2 Phi|0
    x = GRID.axes()[0]
    state = state_of(0.05 * np.cos(x), np.sin(x))
    traces, sol = trace_velocities(state, PARAMS)
    dom = sol.dom
    b_chain, v_chain = dom.chain_gradient(sol.phi.values)[:, 0]
    assert np.max(np.abs(traces.B.values - b_chain)) < 1e-9
    assert np.max(np.abs(traces.V[0].values - v_chain)) < 1e-9


def test_rhs_rest_state_is_equilibrium():
    state = state_of(np.zeros(GRID.shape), np.zeros(GRID.shape))
    eta_t, psi_t, _ = ww_rhs(state, PARAMS)
    assert norm_l2(eta_t) < 1e-13
    assert norm_l2(psi_t) < 1e-13


def test_rhs_linear_wave_tendencies():
    k, eps = 3, 1e-4
    x = GRID.axes()[0]
    state = state_of(np.zeros(GRID.shape), eps * np.sin(k * x))
    eta_t, psi_t, _ = ww_rhs(state, PARAMS)
    lin = eps * k * np.tanh(k) * np.sin(k * x)
    assert np.max(np.abs(eta_t.values - lin)) < 10 * eps ** 2
    assert np.max(np.abs(psi_t.values)) < 10 * eps ** 2


def test_rhs_pure_elevation():
    eps, k = 1e-4, 2
    x = GRID.axes()[0]
    state = state_of(eps * np.cos(k * x), np.zeros(GRID.shape))
    eta_t, psi_t, _ = ww_rhs(state, PARAMS)
    assert norm_l2(eta_t) < 1e-11
    assert np.max(np.abs(psi_t.values + state.g * eps * np.cos(k * x))) < 10 * eps ** 2


def test_taylor_rest_state():
    state = state_of(np.zeros(GRID.shape), np.zeros(GRID.shape), g=2.3)
    sol = dno_solve(state.eta, state.psi, PARAMS)
    a, amin = taylor_coefficient(state, sol, PARAMS)
    assert np.max(np.abs(a.values - 2.3)) < 2.3 * 1e-8
    assert amin == pytest.approx(2.3, rel=1e-8)


def test_taylor_constant_elevation():
    state = state_of(np.full(GRID.shape, 0.2), np.zeros(GRID.shape))
    sol = dno_solve(state.eta, state.psi, PARAMS)
    a, _ = taylor_coefficient(state, sol, PARAMS)
    assert np.max(np.abs(a.values - 1.0)) < 1e-8


def test_taylor_quadratic_in_amplitude():
    x = GRID.axes()[0]
    devs, ladder = [], [0.04, 0.02, 0.01, 0.005]
    for eps in ladder:
        state = state_of(np.zeros(GRID.shape), eps * np.sin(x))
        sol = dno_solve(state.eta, state.psi, PARAMS)
        a, _ = taylor_coefficient(state, sol, PARAMS)
        devs.append(np.max(np.abs(a.values - 1.0)))
    slope = np.polyfit(np.log(ladder), np.log(devs), 1)[0]
    assert abs(slope - 2.0) < 0.2


def test_hamiltonian_rest_zero():
    state = state_of(np.zeros(GRID.shape), np.zeros(GRID.shape))
    assert abs(hamiltonian(state, PARAMS)) < 1e-14


def test_hamiltonian_flat_oracle():
    k = 3
    x = GRID.axes()[0]
    state = state_of(np.zeros(GRID.shape), np.sin(k * x))
    expected = 0.5 * np.pi * k * np.tanh(k)
    assert hamiltonian(state, PARAMS) == pytest.approx(expected, rel=1e-10)


def test_hamiltonian_quadratic_scaling():
    x = GRID.axes()[0]
    s1 = state_of(np.zeros(GRID.shape), np.sin(x))
    s2 = state_of(np.zeros(GRID.shape), 2.0 * np.sin(x))
    assert hamiltonian(s2, PARAMS) == pytest.approx(4.0 * hamiltonian(s1, PARAMS),
                                                    rel=1e-10)


def test_gauge_invariance_constant_psi_shift():
    x = GRID.axes()[0]
    s0 = state_of(0.05 * np.cos(x), np.sin(x))
    s1 = state_of(0.05 * np.cos(x), np.sin(x) + 7.0)
    t0, _ = trace_velocities(s0, PARAMS)
    t1, _ = trace_velocities(s1, PARAMS)
    assert np.max(np.abs(t0.B.values - t1.B.values)) < 1e-10
    assert np.max(np.abs(t0.V[0].values - t1.V[0].values)) < 1e-10
    r0 = ww_rhs(s0, PARAMS)
    r1 = ww_rhs(s1, PARAMS)
    assert np.max(np.abs(r0[0].values - r1[0].values)) < 1e-10
    assert np.max(np.abs(r0[1].values - r1[1].values)) < 1e-10


def test_translation_equivariance():
    x = GRID.axes()[0]
    state = state_of(0.05 * np.cos(x), np.sin(x))
    eta_t, psi_t, _ = ww_rhs(state, PARAMS)
    shifted = state_of(np.roll(state.eta.values, 3), np.roll(state.psi.values, 3))
    eta_ts, psi_ts, _ = ww_rhs(shifted, PARAMS)
    assert np.max(np.abs(eta_ts.values - np.roll(eta_t.values, 3))) < 1e-11
    assert np.max(np.abs(psi_ts.values - np.roll(psi_t.values, 3))) < 1e-11


def test_mass_flux_vanishes():
    x = GRID.axes()[0]
    state = state_of(0.08 * np.cos(x), np.sin(x) + 0.3 * np.cos(2 * x))
    eta_t, _, _ = ww_rhs(state, PARAMS)
    assert abs(np.sum(eta_t.values) * GRID.cell_volume) < 1e-9


def test_reformulated_residuals_rest():
    mk = lambda t: SurfaceState(eta=ZERO.copy(), psi=ZERO.copy(), t=t)
    res = reformulated_residuals(mk(0.0), mk(0.01), mk(0.02), PARAMS)
    assert all(v < 1e-10 for v in res.norms.values())


def test_reformulated_residuals_linear_wave_scaling():
    # eq:B and eq:V residuals are O(eps^2) once dt resolves the wave
    k, h, g = 1, 1.0, 1.0
    omega = np.sqrt(g * k * np.tanh(k * h))
    x = GRID.axes()[0]
    dt = 1e-3

    def standing(eps, t):
        eta = eps * np.cos(k * x) * np.cos(omega * t)
        psi = -eps * (g / omega) * np.cos(k * x) * np.sin(omega * t)
        return SurfaceState(eta=Field(GRID, eta), psi=Field(GRID, psi), t=t)

    norms = []
    ladder = [2e-2, 1e-2, 5e-3]
    for eps in ladder:
        res = reformulated_residuals(standing(eps, 0.1 - dt), standing(eps, 0.1),
                                     standing(eps, 0.1 + dt), PARAMS)
        norms.append(res.norms["B"] + res.norms["V0"])
    slope = np.polyfit(np.log(ladder), np.log(norms), 1)[0]
    assert slope > 1.7


def test_analyze_state_populates_taylor():
    x = GRID.axes()[0]
    state = state_of(0.02 * np.cos(x), 0.02 * np.sin(x))
    traces, _ = analyze_state(state, PARAMS)
    assert traces.a is not None
    assert traces.min_taylor() > 0.9


def p_form_taylor(state, sol, params):
    """Reference: a = -d_y P from a pressure solve for P itself, hydrostatic
    part -g rho included (surface data 0, bottom flux with the -g term)."""
    params = state.dno_params(params)
    dom = sol.dom
    grid = dom.grid
    phi = sol.phi.values
    first = dom.chain_gradient(phi)
    hess_sq = sum(np.sum(dom.chain_gradient(f) ** 2, axis=0) for f in first)
    source = StraightenedField(dom, -dom.alpha * hess_sq)
    half_speed2 = 0.5 * np.sum(first ** 2, axis=0)
    flux = Field(grid, -dom.conormal_flux(half_speed2, -1) - state.g)
    pressure = solve_laplace(dom, Field(grid, np.zeros(grid.shape)),
                             source=source, bottom_flux=flux,
                             tol=params.tol, maxiter=params.maxiter)
    return -np.tensordot(dom.Dz[0], pressure.values, axes=1) / dom.drho_z[0]


def sloped_state(grid, slope, g=1.0):
    """eta with max |grad eta| = slope and psi = 0.7 eta (shifted phase)."""
    meshes = grid.meshes()
    shape = np.cos(meshes[0] + 0.3)
    for m in meshes[1:]:
        shape = shape * np.cos(m)
    grad = spectral_gradient(Field(grid, shape))
    vals = shape * slope / np.max(np.sqrt(sum(c.values ** 2 for c in grad)))
    return SurfaceState(eta=Field(grid, vals), psi=Field(grid, 0.7 * np.roll(vals, 3, 0)),
                        g=g)


GRID_2D = make_grid([2 * np.pi] * 2, [16, 16])


@pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("zpoints", [24, 40])
@pytest.mark.parametrize("slope", [0.05, 0.3])
def test_taylor_matches_p_form(grid, zpoints, slope):
    state = sloped_state(grid, slope, g=1.7)
    params = DNOParams(zpoints=zpoints)
    sol = dno_solve(state.eta, state.psi, params)
    a, a_min = taylor_coefficient(state, sol, params)
    assert np.max(np.abs(a.values - p_form_taylor(state, sol, params))) <= 1e-10
    assert a_min == np.min(a.values) < 1.7


@pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
def test_taylor_rest_state_exact(grid):
    state = SurfaceState(eta=Field(grid, np.zeros(grid.shape)),
                         psi=Field(grid, np.zeros(grid.shape)), g=2.3)
    sol = dno_solve(state.eta, state.psi)
    a, a_min = taylor_coefficient(state, sol)
    assert np.all(a.values == 2.3) and a_min == 2.3


@pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("slope", [0.01, 0.1, 0.3])
def test_taylor_default_params_converge_in_zpoints(grid, slope):
    # the default tolerance is met at every zpoints, the default 48 included
    state = sloped_state(grid, slope)
    a_mins = []
    for zpoints in (24, DNOParams().zpoints, 64):
        params = DNOParams(zpoints=zpoints)
        sol = dno_solve(state.eta, state.psi, params)
        a_mins.append(taylor_coefficient(state, sol, params)[1])
    assert max(a_mins) - min(a_mins) <= 1e-8
    assert 0.0 < min(a_mins) < 1.0
