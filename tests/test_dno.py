import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from wavestrip import dno
from wavestrip.grid import (
    Field,
    dealiased_product,
    field_from_function,
    gradient_x,
    inner_l2,
    irfft_x,
    make_grid,
    norm_l2,
    rfft_x,
    spectral_gradient,
)
from wavestrip.dno import (
    DNOParams,
    EllipticSolveError,
    StraightenedField,
    StraighteningError,
    StripSolver,
    _STRAIGHTENING_TABLES,
    _straightening_table,
    _z_line,
    chebyshev_lobatto,
    dno_solve,
    solve_laplace,
    straighten,
    straighten_adaptive,
    surface_flux,
)
from wavestrip.symmetrizer import dno_principal_symbol
from dno_reference import dno_remainder
from grid_reference import divergence, fourier_multiplier, sobolev_norm
from straighten_reference import straighten_fields

GRID = make_grid([2 * np.pi], [128])
PARAMS = DNOParams(h=1.0, zpoints=40)


def strip_solver(dom, tol=PARAMS.tol):
    """A StripSolver at the maxiter of PARAMS, the DNOParams default."""
    return StripSolver(dom, tol=tol, maxiter=PARAMS.maxiter)


def flat_dno_oracle(psi: Field, h: float) -> Field:
    """Separation-of-variables multiplier k*tanh(k h) on the flat strip."""
    return fourier_multiplier(psi, lambda k: np.abs(k) * np.tanh(np.abs(k) * h))


@pytest.mark.parametrize("field, value, match", [
    ("h", 0.0, "depth"),
    ("delta", -0.1, "delta"),
    ("zpoints", 2, "zpoints"),
    ("tol", 0.0, "tol"),
    ("tol", np.inf, "tol"),
    ("tol", 1.0, "tol"),
    ("maxiter", 0, "maxiter"),
    ("h", np.inf, "depth"),
    ("delta", np.inf, "delta"),
    ("h", np.nan, "depth"),
    ("delta", np.nan, "delta"),
    ("zpoints", 24.0, "zpoints"),
    ("zpoints", 24.5, "zpoints"),
    ("maxiter", True, "maxiter"),
])
def test_dno_params_reject_values_that_break_the_solve(field, value, match):
    # zpoints 2 leaves no interior node, maxiter 0 no GMRES cycle, tol 0 a
    # target below rounding, a tol >= 1 one the zero start already meets (the
    # lift comes back unsolved), and delta < 0 makes E(delta z) amplify high
    # modes; an infinite h returns a wrong G(eta) psi, and an infinite delta, a
    # non-integral zpoints or a bool maxiter fails later inside the solve, and
    # a NaN h or delta gives non-finite coefficients
    with pytest.raises(ValueError, match=match):
        DNOParams(**{field: value})


@pytest.mark.parametrize("limits, match", [
    (dict(tol=0.0), "tol"), (dict(maxiter=0), "maxiter"), (dict(tol=np.inf), "tol"),
    (dict(tol=1.0), "tol")])
def test_strip_solver_rejects_the_limits_dno_params_rejects(limits, match):
    # StripSolver takes tol and maxiter loose, as perfbench/run.py builds it
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    dom = straighten(eta, DNOParams(zpoints=24))
    with pytest.raises(ValueError, match=match):
        StripSolver(dom, **{"tol": PARAMS.tol, "maxiter": PARAMS.maxiter, **limits})


def test_dno_params_accept_the_edge_values():
    params = DNOParams(delta=0.0, zpoints=3, maxiter=1)
    assert (params.delta, params.zpoints, params.maxiter) == (0.0, 3, 1)
    params = DNOParams(zpoints=np.int64(24), maxiter=np.int32(5))
    assert (params.zpoints, params.maxiter) == (24, 5)


def test_cheb_matrix_differentiates_polynomials():
    z, D = chebyshev_lobatto(12)
    for p in range(6):
        assert np.allclose(D @ z ** p, p * z ** np.maximum(p - 1, 0) * (p > 0)
                           + (p == 0) * 0.0, atol=1e-10)


def test_straighten_flat_surface():
    eta = Field(GRID, np.zeros(GRID.shape))
    dom = straighten(eta, DNOParams(zpoints=24))
    assert np.allclose(dom.drho_z, 1.0, atol=1e-13)
    assert np.allclose(dom.drho_x[0], 0.0, atol=1e-13)
    assert np.allclose(dom.alpha, 1.0, atol=1e-13)
    assert np.allclose(dom.beta[0], 0.0, atol=1e-13)
    assert np.allclose(dom.gamma, 0.0, atol=1e-12)


def test_straighten_constant_surface():
    c = 0.37
    eta = Field(GRID, np.full(GRID.shape, c))
    dom = straighten(eta, DNOParams(zpoints=24))
    # rho = c + z h
    assert np.allclose(dom.drho_z, 1.0, atol=1e-12)
    assert np.allclose(dom.drho_x[0], 0.0, atol=1e-12)
    assert np.allclose(dom.alpha, 1.0, atol=1e-12)
    assert np.allclose(dom.gamma, 0.0, atol=1e-11)


def test_straighten_traces_and_lower_bound():
    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    dom = straighten(eta, DNOParams(zpoints=32))
    rho = straighten_fields(eta, 1.0, 0.1, 32)["rho"]
    assert np.max(np.abs(rho[0] - eta.values)) < 1e-10
    assert np.max(np.abs(rho[-1] - (eta.values - 1.0))) < 1e-10
    assert np.min(dom.drho_z) >= 0.5
    assert np.min(dom.alpha) > 0.0


def test_straighten_coefficients_against_finite_differences():
    # independent oracle: rebuild alpha/beta/gamma from rho samples alone
    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    dom = straighten(eta, DNOParams(zpoints=48))
    z = dom.z
    rho = straighten_fields(eta, 1.0, 0.1, 48)["rho"]
    x = GRID.axes()[0]
    dx = x[1] - x[0]
    # second-order centered differences, interior z rows only
    drho_z = np.gradient(rho, z, axis=0, edge_order=2)
    d2rho_z = np.gradient(drho_z, z, axis=0, edge_order=2)
    drho_x = (np.roll(rho, -1, axis=1) - np.roll(rho, 1, axis=1)) / (2 * dx)
    lap_x = (np.roll(rho, -1, axis=1) - 2 * rho + np.roll(rho, 1, axis=1)) / dx ** 2
    alpha_fd = drho_z ** 2 / (1.0 + drho_x ** 2)
    beta_fd = -2.0 * drho_z * drho_x / (1.0 + drho_x ** 2)
    inner = slice(4, -4)
    assert np.max(np.abs(alpha_fd[inner] - dom.alpha[inner])) < 5e-4
    assert np.max(np.abs(beta_fd[inner] - dom.beta[0][inner])) < 5e-4
    dgz = (np.roll(drho_z, -1, axis=1) - np.roll(drho_z, 1, axis=1)) / (2 * dx)
    gamma_fd = (d2rho_z + alpha_fd * lap_x + beta_fd * dgz) / drho_z
    assert np.max(np.abs(gamma_fd[inner] - dom.gamma[inner])) < 5e-3


@pytest.mark.parametrize("points", [(128,), (32, 24)])
@pytest.mark.parametrize("delta", [0.1, 0.05, 0.025])
@pytest.mark.parametrize("h", [1.0, 0.7])
def test_straighten_matches_six_table_reference(points, delta, h):
    grid = make_grid([2 * np.pi, 3.0][:len(points)], points)
    eta = field_from_function(grid, lambda x, *rest: 0.1 * np.cos(x + 0.3)
                              + 0.04 * np.sin(3 * x - sum(rest)))
    dom = straighten(eta, DNOParams(h=h, delta=delta, zpoints=24))
    ref = straighten_fields(eta, h, delta, 24)
    # the reference differentiates real samples of size about h, so its p
    # x-derivatives carry rounding up to eps h |k|_max^p beyond the 1e-13;
    # the domain keeps no rho
    kmax = grid.resolved_kmax()
    orders = {"drho_z": 0, "alpha": 0, "drho_x": 1, "beta": 1, "gamma": 2}
    for name, order in orders.items():
        got, want = getattr(dom, name), ref[name]
        if isinstance(got, tuple):
            got, want = np.stack(got), np.stack(want)
        tol = 1e-13 + 4.0 * np.finfo(float).eps * h * kmax ** order
        assert np.max(np.abs(got - want)) < tol, name


def test_straightening_table_is_shared_per_grid_delta_and_zpoints():
    grid = make_grid([2 * np.pi], [64])
    first = straighten(field_from_function(grid, np.cos) * 0.1, DNOParams(h=1.0, zpoints=24))
    second = straighten(field_from_function(grid, np.sin) * 0.05, DNOParams(h=0.7, zpoints=24))
    assert first.Dz is second.Dz
    assert list(_STRAIGHTENING_TABLES[grid]) == [(0.1, 24)]
    table = _straightening_table(grid, 0.1, 24)
    assert _straightening_table(make_grid([2 * np.pi], [64]), 0.1, 24) is table
    assert not table.flags.writeable
    others = [_straightening_table(grid, 0.05, 24),
              _straightening_table(grid, 0.1, 16),
              _straightening_table(make_grid([2 * np.pi], [32]), 0.1, 24)]
    for other in others:
        assert other is not table
    assert others[1].shape == (5, 16, 33)
    assert others[2].shape == (5, 24, 17)


@pytest.mark.parametrize("points", [(128,), (16, 12)])
def test_chain_gradient_of_a_stack_matches_per_field_chain_rule(points):
    grid = make_grid([2 * np.pi] * len(points), points)
    eta = field_from_function(grid, lambda x, *rest: 0.1 * np.cos(x + sum(rest)))
    dom = straighten(eta, DNOParams(zpoints=16))
    stack = np.random.default_rng(2).normal(size=(3, dom.nz) + grid.shape)
    out = dom.chain_gradient(stack)
    assert out.shape == (1 + grid.dim,) + stack.shape
    for j, values in enumerate(stack):
        # Lambda_1 = (1/d_z rho) d_z, Lambda_2 = grad_x - grad_x rho Lambda_1
        vz = np.tensordot(dom.Dz, values, axes=(1, 0)) / dom.drho_z
        grads = gradient_x(values, grid)
        want = [vz] + [g - rx * vz for g, rx in zip(grads, dom.drho_x)]
        scale = max(np.max(np.abs(w)) for w in want)
        for i, w in enumerate(want):
            assert np.max(np.abs(out[i, j] - w)) < 1e-13 * scale


def test_straighten_failure_carries_minimum_and_retry_succeeds():
    eta = field_from_function(GRID, lambda x: 0.2 * np.cos(8 * x))
    params = DNOParams(delta=3.0, zpoints=24)
    with pytest.raises(StraighteningError) as err:
        straighten(eta, params)
    assert err.value.min_dz_rho < 0.5
    dom = straighten_adaptive(eta, params)
    assert np.min(dom.drho_z) >= 0.5


def test_solve_laplace_flat_mode():
    eta = Field(GRID, np.zeros(GRID.shape))
    dom = straighten(eta, PARAMS)
    k = 3
    psi = field_from_function(GRID, lambda x: np.cos(k * x))
    phi = solve_laplace(dom, psi, PARAMS)
    x = GRID.axes()[0]
    expected = np.cosh(k * (dom.z[:, None] + 1.0)) / np.cosh(k) * np.cos(k * x)[None]
    assert np.max(np.abs(phi.values - expected)) < 1e-10


def test_solve_laplace_constant_boundary():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    params = DNOParams(zpoints=24)
    dom = straighten(eta, params)
    phi = solve_laplace(dom, Field(GRID, np.ones(GRID.shape)), params)
    assert np.max(np.abs(phi.values - 1.0)) < 1e-12


def test_solve_laplace_with_source_quadrature_oracle():
    # d_zz Phi = -2, Phi(0) = 0, d_z Phi(-1) = 0  =>  Phi = 1 - (z+1)^2
    eta = Field(GRID, np.zeros(GRID.shape))
    params = DNOParams(zpoints=24)
    dom = straighten(eta, params)
    src = np.full((dom.nz,) + GRID.shape, -2.0)
    phi = solve_laplace(dom, Field(GRID, np.zeros(GRID.shape)), params, source=src)
    expected = 1.0 - (dom.z[:, None] + 1.0) ** 2
    assert np.max(np.abs(phi.values - expected)) < 1e-10


def test_dno_flat_strip_multiplier():
    eta = Field(GRID, np.zeros(GRID.shape))
    for k in (1, 2, 8, 20):
        psi = field_from_function(GRID, lambda x: np.cos(k * x))
        g = dno_solve(eta, psi, PARAMS).gpsi
        expected = k * np.tanh(k) * psi.values
        rel = np.max(np.abs(g.values - expected)) / (k * np.tanh(k))
        assert rel < 1e-9, (k, rel)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 9: the strip's bottom moves with the surface")
def test_constant_surface_gives_the_flat_bottom_multiplier():
    # over the fixed bottom y = -h, the fluid under eta = c is h + c deep, so
    # G(eta) is the multiplier k tanh(k (h + c)); the strip model, h deep
    # under any constant surface, gives k tanh(k h) instead
    grid = make_grid([2 * np.pi], [64])
    c, params = 0.2, DNOParams(h=1.0, zpoints=24)
    eta = Field(grid, np.full(grid.shape, c))
    errors = []
    for k in (1, 3, 5):
        psi = field_from_function(grid, lambda x: np.cos(k * x))
        gpsi = dno_solve(eta, psi, params).gpsi
        multiplier = k * np.tanh(k * (params.h + c))
        errors.append(np.max(np.abs(gpsi.values - multiplier * psi.values)) / multiplier)
    assert max(errors) < 1e-11, errors


def test_dno_constant_potential_zero():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    g = dno_solve(eta, Field(GRID, np.full(GRID.shape, 2.0)), PARAMS).gpsi
    assert norm_l2(g) < 1e-10


def test_dno_first_order_shape_derivative():
    """Perturbation oracle for the strip geometry (both boundaries move):

        DG(0)[b]psi = -G0(b G0 psi) - div(b grad psi)
                      + sech(h|D|) div(b grad sech(h|D|) psi),

    built from multipliers only; the residual must be O(eps^2)."""
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(2 * x))
    bump = field_from_function(GRID, lambda x: np.cos(x))
    h = 1.0

    def sech_op(u):
        return fourier_multiplier(u, lambda k: 1.0 / np.cosh(np.abs(k) * h))

    g0psi = flat_dno_oracle(psi, h)
    term1 = flat_dno_oracle(dealiased_product(bump, g0psi), h)
    term2 = divergence(tuple(
        dealiased_product(bump, gp) for gp in spectral_gradient(psi)))
    spsi = sech_op(psi)
    term3 = sech_op(divergence(tuple(
        dealiased_product(bump, gp) for gp in spectral_gradient(spsi))))
    dg = Field(GRID, -term1.values - term2.values + term3.values)

    errs = []
    eps_ladder = [0.04, 0.02, 0.01]
    for eps in eps_ladder:
        eta = Field(GRID, eps * bump.values)
        g = dno_solve(eta, psi, PARAMS).gpsi
        model = g0psi.values + eps * dg.values
        errs.append(norm_l2(Field(GRID, g.values - model)))
    slope = np.polyfit(np.log(eps_ladder), np.log(errs), 1)[0]
    assert slope > 1.8  # residual is O(eps^2)


def test_dno_self_adjoint_positive_annihilates():
    rng = np.random.default_rng(5)

    def band_limited(seed, kmax, scale):
        r = np.random.default_rng(seed)
        spec = np.zeros(GRID.shape, dtype=complex)
        band = (GRID.abs_wavenumber() <= kmax) & (GRID.abs_wavenumber() > 0)
        spec[band] = r.normal(size=band.sum()) + 1j * r.normal(size=band.sum())
        vals = np.fft.ifftn(spec).real
        return Field(GRID, scale * vals / max(np.max(np.abs(vals)), 1e-30))

    eta = band_limited(1, 4, 0.08)
    psi1 = band_limited(2, 10, 1.0)
    psi2 = band_limited(3, 10, 1.0)
    sol1 = dno_solve(eta, psi1, PARAMS)
    gpsi2 = surface_flux(sol1.dom, solve_laplace(sol1.dom, psi2, PARAMS))
    sym = inner_l2(sol1.gpsi, psi2) - inner_l2(psi1, gpsi2)
    assert abs(sym) <= 1e-8 * norm_l2(psi1) * norm_l2(psi2)
    assert inner_l2(psi1, sol1.gpsi) >= -1e-10
    g_one = dno_solve(eta, Field(GRID, np.ones(GRID.shape)), PARAMS).gpsi
    assert norm_l2(g_one) <= 1e-9


def test_dno_principal_symbol_values():
    eta = Field(GRID, np.zeros(GRID.shape))
    lam = dno_principal_symbol(eta)
    assert lam.order == 1.0
    vals = lam.values(GRID, np.array([3.0]))
    assert np.allclose(vals, 3.0)
    g2 = make_grid([2 * np.pi, 2 * np.pi], [16, 16])
    eta2 = field_from_function(g2, lambda x, y: x * 0.0)
    # gradient (1, 0) surface: encode via a plane-like slope is not periodic,
    # so check the formula directly instead
    from wavestrip.symmetrizer import dno_principal_symbol as dps

    sym = dps(eta2)
    v = sym.values(g2, np.array([0.0, 1.0]))
    assert np.allclose(v, 1.0)


@pytest.mark.parametrize("points", [(64,), (16, 12)])
def test_principal_symbol_matches_quadratic_form(points):
    # lambda is evaluated as sqrt(|xi|^2 + |grad eta ^ xi|^2) (Lagrange's
    # identity); the reference is the quadratic form it replaces
    grid = make_grid([2 * np.pi] * len(points), points)
    rng = np.random.default_rng(len(points))
    xis = rng.integers(-8, 9, size=(40, grid.dim)).astype(float)
    xis = xis[np.any(xis != 0.0, axis=1)]
    for slope in rng.uniform(0.05, 2.0, size=4):
        eta = Field(grid, rng.normal(size=grid.shape))
        steepest = np.max(np.sqrt(sum(g.values ** 2 for g in spectral_gradient(eta))))
        eta = eta * (slope / steepest)
        grads = [g.values for g in spectral_gradient(eta)]
        xi = [c.reshape((-1,) + (1,) * grid.dim) for c in xis.T]
        dotted = sum(g * xi_c for g, xi_c in zip(grads, xi))
        xi2 = sum(xi_c ** 2 for xi_c in xi)
        ref = np.sqrt((1.0 + sum(g ** 2 for g in grads)) * xi2 - dotted ** 2)
        lam = np.broadcast_to(dno_principal_symbol(eta).eval(xis), ref.shape)
        assert np.max(np.abs(lam - ref) / ref) < 1e-14


def test_dno_symbol_direct_substitution_2d():
    # with grad eta = (1, 0) and xi = (0, 1): lambda = sqrt(2)
    grad2 = np.array(1.0)
    xi = np.array([0.0, 1.0])
    dotted = 1.0 * 0.0 + 0.0 * 1.0
    lam = np.sqrt((1.0 + grad2) * np.sum(xi ** 2) - dotted ** 2)
    assert lam == pytest.approx(np.sqrt(2.0))


def test_dno_remainder_flat_exponentially_small():
    eta = Field(GRID, np.zeros(GRID.shape))
    for k in (4, 8):
        x = GRID.axes()[0]
        psi = Field(GRID, np.exp(1j * k * x))
        # the strip solve takes real data: R(eta) psi from its two parts
        r = (dno_remainder(eta, Field(GRID, psi.values.real), params=PARAMS)
             + 1j * dno_remainder(eta, Field(GRID, psi.values.imag), params=PARAMS))
        expected = abs(k * np.tanh(k) - k)
        assert np.max(np.abs(r.values)) <= max(2 * expected, 1e-9)
        assert np.max(np.abs(r.values)) <= 2.5 * k * np.exp(-2 * k) + 1e-9


def test_dno_remainder_half_order_gain():
    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    x = GRID.axes()[0]
    ratios, ks = [], [8, 16, 32]
    for k in ks:
        psi = Field(GRID, np.exp(1j * k * x))
        sol_r = dno_solve(eta, Field(GRID, np.cos(k * x)), PARAMS)
        gpsi_i = surface_flux(sol_r.dom, solve_laplace(
            sol_r.dom, Field(GRID, np.sin(k * x)), PARAMS))
        g = Field(GRID, sol_r.gpsi.values + 1j * gpsi_i.values)
        from wavestrip.paradiff import paradiff_apply

        t = paradiff_apply(dno_principal_symbol(eta), psi)
        ratios.append(norm_l2(g - t) / norm_l2(g))
    slope = np.polyfit(np.log(ks), np.log(ratios), 1)[0]
    assert slope <= -0.4


def test_divergence_identity_gain():
    # G(eta)B + div V should be smoother than div V along a frequency ladder
    from wavestrip.core import SurfaceState, trace_velocities

    ratios, ks = [], [4, 8, 16]
    for k in ks:
        eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
        psi = field_from_function(GRID, lambda x: np.cos(k * x))
        state = SurfaceState(eta=eta, psi=psi, t=0.0, g=1.0, h=1.0)
        traces = trace_velocities(state, dno_solve(eta, psi, PARAMS))
        gb = dno_solve(eta, traces.B, PARAMS).gpsi
        divv = divergence(traces.V)
        num = sobolev_norm(gb + divv, -0.5)
        den = sobolev_norm(divv, -0.5)
        ratios.append(num / den)
    slope = np.polyfit(np.log(ks), np.log(ratios), 1)[0]
    assert slope <= -0.5
    assert ratios[-1] < ratios[0]


def test_solver_reports_iterations():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    sol = dno_solve(eta, field_from_function(GRID, np.cos), PARAMS)
    assert sol.phi.iterations >= 1


@pytest.mark.parametrize("points", [(64,), (16, 16)])
@pytest.mark.parametrize("zpoints", [16, 24, 48])
def test_precond_inverts_flat_strip_operator(points, zpoints):
    # on a flat strip the x-averaged z-line operators are the operator itself
    grid = make_grid([2 * np.pi] * len(points), points)
    dom = straighten(Field(grid, np.zeros(grid.shape)), DNOParams(zpoints=zpoints))
    solver = strip_solver(dom)
    v = np.random.default_rng(zpoints).normal(size=(zpoints - 1) * grid.size)
    back = solver._precond(solver._matvec(v))[0]
    assert np.max(np.abs(back - v)) < 1e-10 * np.max(np.abs(v))


def dense_z_line_precond(solver: StripSolver, vec: np.ndarray) -> np.ndarray:
    """Reference: one dense nz x nz solve per x-Fourier mode, full spectrum,
    of the z-line problem with the mean of alpha over the interior nodes and
    the mean of g1 at the bottom."""
    dom = solver.dom
    nz, shape = dom.nz, dom.grid.shape
    x_axes = tuple(range(1, dom.grid.dim + 1))
    alpha_bar = np.mean(dom.alpha[1:-1])
    Dz = dom.Dz
    base = np.zeros((nz, nz))
    base[0, 0] = 1.0
    base[1:-1] = Dz[1:-1] @ Dz
    base[-1] = float(np.mean(solver.g1_bottom)) * Dz[-1]
    rhs = np.zeros((nz,) + shape, dtype=complex)
    rhs[1:] = np.fft.fftn(vec.reshape((nz - 1,) + shape), axes=x_axes)
    rhs = rhs.reshape(nz, -1)
    sol = np.empty_like(rhs)
    for mode, k2 in enumerate((dom.grid.abs_wavenumber() ** 2).ravel()):
        mat = base.copy()
        mat[1:-1, 1:-1] -= k2 * alpha_bar * np.eye(nz - 2)
        sol[:, mode] = np.linalg.solve(mat, rhs[:, mode])
    out = np.fft.ifftn(sol[1:].reshape((nz - 1,) + shape), axes=x_axes)
    return out.real.ravel()


@pytest.mark.parametrize("points", [(64,), (16, 16)])
def test_precond_matches_dense_z_line_solves(points):
    grid = make_grid([2 * np.pi] * len(points), points)
    eta = field_from_function(grid, lambda x, *rest: 0.3 * np.sin(x))  # slope 0.3
    dom = straighten(eta, DNOParams(zpoints=24))
    solver = strip_solver(dom)
    v = np.random.default_rng(7).normal(size=(dom.nz - 1) * grid.size)
    ref = dense_z_line_precond(solver, v)
    assert np.max(np.abs(solver._precond(v)[0] - ref)) < 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("points, zpoints", [((256,), 32), ((32, 32), 24)])
def test_matvec_of_preconditioned_direction_reuses_its_half_spectrum(points, zpoints):
    grid = make_grid([2 * np.pi] * len(points), points)
    eta = field_from_function(grid, lambda x, *rest: 0.1 * np.cos(x)
                              + 0.05 * np.sin(2 * x + sum(rest)))
    solver = strip_solver(straighten(eta, DNOParams(zpoints=zpoints)))
    v = np.random.default_rng(3).normal(size=(zpoints - 1) * grid.size)
    z, z_half = solver._precond(v)
    ref = solver._matvec(z)
    assert np.max(np.abs(solver._matvec(z, z_half) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_cold_solve_transforms_forward_once_per_iteration(monkeypatch):
    # one rfft_x for the harmonic lift of psi, one for the residual of that
    # start, one per preconditioner apply, none in the matvec of its
    # direction, and one for the true residual at the end of the one cycle
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x) + 0.05 * np.sin(2 * x))
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    params = DNOParams(zpoints=24)
    dom = straighten(eta, params)
    calls = []

    def counted(values, grid):
        calls.append(values.shape)
        return rfft_x(values, grid)

    monkeypatch.setattr(dno, "rfft_x", counted)
    out = solve_laplace(dom, psi, params)
    assert 1 <= out.iterations < 80
    assert len(calls) == out.iterations + 3


def test_z_line_eigenbasis_is_real_with_negative_simple_eigenvalues():
    for zpoints in range(4, 129):
        line = _z_line(zpoints)
        assert line is _z_line(zpoints)  # cached per zpoints
        assert line.lam.dtype == line.V.dtype == line.W.dtype == np.float64
        lam = np.sort(line.lam)
        assert lam[-1] < 0.0
        assert np.all(np.diff(lam) > 1e-2 * np.abs(lam[:-1]))
        # the interior blocks of the folded V and W are the eigenvectors
        # and their inverse, and the eigenvectors are well conditioned
        vecs = line.V[:-1, :-1]
        assert np.max(np.abs(vecs @ line.W[:-1, :-1] - np.eye(zpoints - 2))) < 1e-10
        assert np.linalg.cond(vecs) < 5.0


def sloped_surface(grid, slope):
    """sum_i cos(x_i + 0.3) + 0.5 sin 2x, scaled to max |grad eta| = slope."""
    meshes = grid.meshes()
    shape = Field(grid, sum(np.cos(m + 0.3) for m in meshes)
                  + 0.5 * np.sin(2 * meshes[0]))
    steepest = np.max(np.sqrt(sum(g.values ** 2 for g in spectral_gradient(shape))))
    return shape * (slope / steepest)


@pytest.mark.parametrize("points, psi_fn, budget", [
    ((256,), lambda x: np.sin(x) + 0.3 * np.cos(3 * x), 22),
    ((32, 32), lambda x, y: np.sin(x) + 0.3 * np.cos(x + 2 * y), 21),
])
def test_steep_slope_iteration_budget(points, psi_fn, budget):
    # the scalar averages of alpha and g1 keep the preconditioner close at
    # slope 0.5; the flat-strip preconditioner (alpha = h^2, g1 = 1/h) needs
    # more iterations here
    grid = make_grid([2 * np.pi] * len(points), points)
    eta = sloped_surface(grid, 0.5)
    params = DNOParams(h=1.0, zpoints=24)
    sol = dno_solve(eta, field_from_function(grid, psi_fn), params)
    assert iterations(sol, params) <= budget


def test_solver_build_memory_2d():
    grid = make_grid([2 * np.pi] * 2, [64, 64])
    eta = field_from_function(grid, lambda x, y: 0.05 * np.cos(x) * np.cos(2 * y))
    dom = straighten(eta, DNOParams(zpoints=48))
    tracemalloc.start()
    try:
        strip_solver(dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def iterations(sol, params=PARAMS):
    return sol.phi.iterations


def test_guess_equal_to_solution_converges_at_once():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    cold = dno_solve(eta, psi, PARAMS)
    warm = solve_laplace(cold.dom, psi, PARAMS, guess=cold.phi)
    assert warm.iterations <= 1
    assert np.max(np.abs(warm.values - cold.phi.values)) < 1e-12


def test_solved_field_restarts_exactly_on_a_domain_straightened_again():
    # the guess carries its GMRES unknown, so an exact guess takes no
    # iteration on a new solver of the same grid and zpoints; restarting
    # from the rounded Phi[1:] - psi instead leaves a true residual near
    # 1.9e-12 at zpoints 40, above tol
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    first, second = (straighten(eta, PARAMS) for _ in range(2))
    cold = solve_laplace(first, psi, PARAMS)
    warm = solve_laplace(second, psi, PARAMS, guess=cold)
    assert cold.iterations >= 1
    assert warm.iterations == 0
    assert np.max(np.abs(warm.values - cold.values)) < 1e-12


def test_solution_domain_is_freed_without_the_cycle_collector():
    # no solver or callback refers back to the domain once a solve returns
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    gc.disable()
    try:
        sol = dno_solve(eta, field_from_function(GRID, np.sin), PARAMS)
        dom = weakref.ref(sol.dom)
        del sol
        assert dom() is None
    finally:
        gc.enable()


def test_guess_from_nearby_surface_saves_iterations():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    near = field_from_function(GRID, lambda x: 0.1 * np.cos(x) + 1e-4 * np.cos(2 * x))
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    previous = dno_solve(eta, psi, PARAMS)
    cold = dno_solve(near, psi, PARAMS)
    cold_its = iterations(cold)
    warm = dno_solve(near, psi, PARAMS, guess=previous.phi)
    assert iterations(warm) < cold_its
    assert np.max(np.abs(warm.phi.values - cold.phi.values)) < 1e-10
    assert np.max(np.abs(warm.gpsi.values - cold.gpsi.values)) < 1e-10


def test_guess_of_wrong_shape_raises():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    psi = field_from_function(GRID, np.sin)
    other = dno_solve(eta, psi, DNOParams(h=1.0, zpoints=24))
    with pytest.raises(ValueError, match="guess has shape"):
        dno_solve(eta, psi, PARAMS, guess=other.phi)
    dom = straighten(eta, DNOParams(zpoints=24))
    solver = strip_solver(dom)
    with pytest.raises(ValueError, match="guess has shape"):
        solver.solve(psi.values, None, None, StraightenedField(
            np.zeros((24, 64)), np.zeros((23, 64)), 0, 0.0))


def test_strip_solve_and_dno_take_real_data_only():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    both = Field(GRID, psi.values + 2j * np.roll(psi.values, 5))
    with pytest.raises(ValueError, match="real data"):
        dno_solve(eta, both, PARAMS)
    dom = straighten(eta, PARAMS)
    cold = solve_laplace(dom, psi, PARAMS)
    for source, flux, guess in (
            (np.ones((PARAMS.zpoints,) + GRID.shape, dtype=complex), None, None),
            (None, 1j * np.ones(GRID.shape), None),
            (None, None, StraightenedField(cold.values, cold.unknown + 1j, 0, 0.0)),
            (None, None, StraightenedField(cold.values + 1j, cold.unknown, 0, 0.0))):
        with pytest.raises(ValueError, match="real data"):
            strip_solver(dom).solve(psi.values, source, flux, guess)


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["surface", "source", "bottom flux", "guess unknown",
                                  "guess surface"])
def test_strip_solve_rejects_nonfinite_data(name, value):
    # an infinite source column or bottom flux would end GMRES at once with
    # a NaN residual, which no "residual > gate" test rejects, and return
    # the bare lift; a NaN one would fail inside the triangular solve
    grid = make_grid([2 * np.pi], [64])
    params = DNOParams(h=1.0, zpoints=24)
    dom = straighten(field_from_function(grid, lambda x: 0.1 * np.cos(x)), params)
    guess = solve_laplace(dom, field_from_function(grid, np.sin), params)
    surface, source, flux = guess.values[0].copy(), np.zeros((24, 64)), np.zeros(64)
    values, unknown = guess.values.copy(), guess.unknown.copy()
    {"surface": surface[7:8], "source": source[:, 5], "bottom flux": flux,
     "guess unknown": unknown[3, 7:8], "guess surface": values[0, 7:8]}[name][...] = value
    warm = StraightenedField(values, unknown, 0, 0.0)
    with pytest.raises(ValueError, match=f"finite data; the {name} is not"):
        strip_solver(dom).solve(surface, source, flux, warm)
    with pytest.raises(ValueError, match=f"finite data; the {name} is not"):
        solve_laplace(dom, Field(grid, surface), params, source=source,
                      bottom_flux=Field(grid, flux), guess=warm)


@pytest.mark.parametrize("name, given, shown", [
    ("surface", (63,), (63,)),
    ("source", (24, 63), (24, 63)),
    ("source", (24, 1), (24, 1)),
    ("bottom flux", (3,), (3,)),
    ("bottom flux", (), ()),
    ("guess surface", (24, 63), (63,)),
], ids=["surface", "source", "source-column", "bottom-flux", "bottom-flux-scalar",
        "guess-surface"])
def test_strip_solve_rejects_data_of_wrong_shape(name, given, shown):
    # unchecked, numpy broadcasting fails on these deep in the solve, or
    # solves a scalar bottom flux or a one-column source as if it were whole
    grid = make_grid([2 * np.pi], [64])
    params = DNOParams(h=1.0, zpoints=24)
    dom = straighten(field_from_function(grid, lambda x: 0.1 * np.cos(x)), params)
    guess = solve_laplace(dom, field_from_function(grid, np.sin), params)
    data = {"surface": guess.values[0], "source": np.zeros((24, 64)),
            "bottom flux": np.zeros(64), "guess surface": guess.values}
    data[name] = np.ones(given)
    warm = StraightenedField(data["guess surface"], guess.unknown, 0, 0.0)
    expected = (24, 64) if name == "source" else (64,)
    with pytest.raises(ValueError, match=re.escape(
            f"the {name} has shape {shown}, expected {expected}")):
        strip_solver(dom).solve(data["surface"], data["source"], data["bottom flux"], warm)


def test_cold_solve_starts_from_the_harmonic_lift_of_its_surface_data(monkeypatch):
    # no guess is the zero field, so GMRES starts from Phi = H psi; from the
    # z-constant start u = 0 the Taylor solve here takes 13 iterations
    from wavestrip.core import SurfaceState, taylor_coefficient

    grid = make_grid([2 * np.pi], [256])
    params = DNOParams(h=1.0, zpoints=32)
    eta = field_from_function(grid, lambda x: 0.1 * np.cos(x + 0.3) + 0.05 * np.sin(2 * x))
    psi = field_from_function(grid, lambda x: 0.2 * np.sin(x) + 0.06 * np.cos(3 * x))
    sol = dno_solve(eta, psi, params)
    solver = StripSolver(sol.dom, tol=params.tol, maxiter=params.maxiter)
    calls = count_calls(solver, "_matvec")
    solver.solve(psi.values, None, None, None)
    start = -irfft_x(sol.dom.lift * rfft_x(psi.values, grid), grid)
    assert np.array_equal(calls[0], start.ravel())

    solved = []
    solve = StripSolver.solve

    def recorded(self, *args):
        solved.append(solve(self, *args))
        return solved[-1]

    monkeypatch.setattr(StripSolver, "solve", recorded)
    taylor_coefficient(SurfaceState(eta=eta, psi=psi), sol, params)
    assert len(solved) == 1 and solved[0].iterations <= 12


def test_warm_start_lifts_the_surface_change_harmonically():
    # lifting the change of psi by a z-constant leaves a boundary layer under
    # the surface, and the warm solve then takes the 9 iterations of a cold
    # one started from the z-constant lift of psi; the flat strip's harmonic
    # extension of the change saves two.  A cold solve started from the
    # harmonic extension of psi itself takes 8
    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    old = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    new = old + field_from_function(GRID, lambda x: 0.1 * np.sin(2 * x))
    previous = dno_solve(eta, old, PARAMS)
    cold = dno_solve(eta, new, PARAMS)
    warm = solve_laplace(previous.dom, new, PARAMS, guess=previous.phi)
    assert warm.iterations <= 9 - 2
    assert cold.phi.iterations <= 8
    assert np.max(np.abs(warm.values - cold.phi.values)) < 1e-10


def test_unchanged_surface_starts_from_the_guess_unknown_bitwise():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    psi = field_from_function(GRID, lambda x: np.sin(x) + 0.3 * np.cos(3 * x))
    dom = straighten(eta, PARAMS)
    cold = solve_laplace(dom, psi, PARAMS)
    solver = strip_solver(dom)
    calls = count_calls(solver, "_matvec")
    solver.solve(psi.values, None, None, cold)
    assert np.array_equal(calls[0], cold.unknown.ravel())


def test_lift_table_is_the_flat_strip_extension():
    grid = make_grid([2 * np.pi], [256])
    zpoints = 24
    z = chebyshev_lobatto(zpoints)[0][1:, None]
    k = np.abs(grid.half_wavenumber_meshes[0])
    eta = field_from_function(grid, lambda x: 0.1 * np.cos(x))
    for h in (1.0, 10.0):
        table = straighten(eta, DNOParams(h=h, zpoints=zpoints)).lift
        assert dno._lift_table(grid, h, zpoints) is table
        assert table.shape == (zpoints - 1,) + grid.half_shape
        assert np.all(np.isfinite(table)) and not table.flags.writeable
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.broadcast_to(np.isfinite(np.cosh(k * h)), table.shape)
            ref = 1.0 - np.cosh(k * h * (1.0 + z)) / np.cosh(k * h)
        assert np.max(np.abs(table[finite] - ref[finite])) < 1e-13
    # cosh overflows beyond |k| h = 710, up to 1280 here; the table's form does not
    assert not np.all(finite)


def per_product_surface_flux(dom, phi):
    """The conormal flux at z = 0 as a sum of dealiased products."""
    grid = dom.grid
    phiz0 = np.tensordot(dom.Dz[0], phi.values, axes=1)
    g1, g2 = dom.flux_coefficients(0)
    out = dealiased_product(Field(grid, g1), Field(grid, phiz0))
    for g2c, gc in zip(g2, gradient_x(phi.values[0], grid)):
        out = out - dealiased_product(Field(grid, g2c), Field(grid, gc))
    return out


@pytest.mark.parametrize("points", [(128,), (32, 32)], ids=["1d", "2d"])
def test_surface_flux_matches_sum_of_dealiased_products(points):
    # the 2/3 rule is linear: dealiasing the flux once equals the sum of the
    # dealiased products
    grid = make_grid([2 * np.pi] * len(points), points)
    eta = field_from_function(grid, lambda x, *rest: 0.1 * np.cos(x)
                              + 0.05 * np.sin(x + 2 * sum(rest)))
    psi = field_from_function(grid, lambda x, *rest: np.sin(x) + 0.3 * np.cos(3 * x + sum(rest)))
    sol = dno_solve(eta, psi, DNOParams(h=1.0, zpoints=24))
    ref = per_product_surface_flux(sol.dom, sol.phi).values
    out = surface_flux(sol.dom, sol.phi).values
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def count_calls(solver: StripSolver, name: str) -> list[np.ndarray]:
    """Record every argument of ``solver.<name>`` while still calling it."""
    calls = []
    method = getattr(solver, name)

    def counted(vec, *args):
        calls.append(vec.copy())
        return method(vec, *args)

    setattr(solver, name, counted)
    return calls


def strip_rhs(source: np.ndarray, bottom_flux: np.ndarray) -> np.ndarray:
    """Right-hand side of the interior unknowns when the surface value is 0."""
    return np.concatenate([source[1:-1], bottom_flux[None]]).ravel()


def test_rounding_floor_ends_fast_and_reports_honestly():
    # at zpoints 96 the Chebyshev rows put the reachable residual far above
    # tol = 1e-16; the bounded restarts must end the solve with an honest error
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    solver = strip_solver(straighten(eta, DNOParams(zpoints=96)), tol=1e-16)
    matvec = solver._matvec
    calls = count_calls(solver, "_matvec")
    zc = solver.dom.z[:, None]
    source = np.cos(zc) * np.sin(GRID.axes()[0])[None] + zc
    with pytest.raises(EllipticSolveError) as err:
        solver.solve(np.zeros(GRID.shape), source, None, None)
    maxiter = solver.maxiter
    assert len(calls) <= maxiter + math.ceil(maxiter / 80) + 2
    assert len(err.value.history) == solver.last_iterations
    b = strip_rhs(source, np.zeros(GRID.shape))
    outside = np.linalg.norm(matvec(calls[-1]) - b) / np.linalg.norm(b)
    assert err.value.residual == pytest.approx(outside, rel=1e-12)


def test_solved_field_carries_its_true_residual():
    eta = field_from_function(GRID, lambda x: 0.1 * np.cos(x))
    solver = strip_solver(straighten(eta, DNOParams(zpoints=24)))
    zc = solver.dom.z[:, None]
    x = GRID.axes()[0]
    source = np.cos(zc) * np.sin(x)[None] + zc
    flux = 0.1 * np.cos(x)
    out = solver.solve(np.zeros(GRID.shape), source, flux, None)
    b = strip_rhs(source, flux)
    ref = np.linalg.norm(b - solver._matvec(out.unknown.ravel())) / np.linalg.norm(b)
    assert out.residual == pytest.approx(ref, rel=1e-12)
    assert 0.0 < out.residual <= max(50.0 * solver.tol, 1e-13)
    # b = 0 takes no iteration and reports no residual
    assert solver.solve(np.zeros(GRID.shape), None, None, None).residual == 0.0


def dense_strip_operator(solver: StripSolver) -> np.ndarray:
    """The strip operator on the interior unknowns, column by column."""
    n = (solver.dom.nz - 1) * solver.dom.grid.size
    return np.column_stack([solver._matvec(e) for e in np.eye(n)])


@pytest.mark.parametrize("points, zpoints", [((16,), 12), ((8, 8), 10)])
def test_solve_matches_dense_reference_within_call_budget(points, zpoints):
    grid = make_grid([2 * np.pi] * len(points), points)
    eta = field_from_function(grid, lambda x, *rest: 0.1 * np.cos(x)
                              + 0.05 * np.sin(x + sum(rest)))
    solver = strip_solver(straighten(eta, DNOParams(zpoints=zpoints)))
    A = dense_strip_operator(solver)
    nz, shape = zpoints, grid.shape
    zero_surface = np.zeros(shape)
    rng = np.random.default_rng(11)

    def counted_solve(source, flux, guess):
        precond_calls = count_calls(solver, "_precond")
        matvec_calls = count_calls(solver, "_matvec")
        out = solver.solve(zero_surface, source, flux, guess)
        del solver._precond, solver._matvec
        return out, len(precond_calls), len(matvec_calls)

    source = rng.normal(size=(nz,) + shape)
    flux = rng.normal(size=shape)
    b = strip_rhs(source, flux)
    exact = np.zeros((nz,) + shape)
    exact[1:] = np.linalg.solve(A, b).reshape((nz - 1,) + shape)
    near = exact + 1e-4 * rng.normal(size=exact.shape)
    near[0] = 0.0
    # the surface is 0, so the unknown of the near guess is near[1:]
    for guess in (None, StraightenedField(near, near[1:], 0, 0.0)):
        out, precond_calls, matvec_calls = counted_solve(source, flux, guess)
        assert np.max(np.abs(out.values - exact)) < 1e-10 * np.max(np.abs(exact))
        # the solve returns at a true residual within tol, paying one
        # preconditioner apply per iteration and at most two more matvecs
        # (initial and final residual)
        res = np.linalg.norm(A @ out.unknown.ravel() - b)
        assert res <= solver.tol * np.linalg.norm(b)
        assert precond_calls == out.iterations == solver.last_iterations >= 1
        assert matvec_calls <= out.iterations + 2
    out, precond_calls, matvec_calls = counted_solve(None, None, None)
    assert np.array_equal(out.values, np.zeros((nz,) + shape))
    assert precond_calls == matvec_calls == solver.last_iterations == 0
