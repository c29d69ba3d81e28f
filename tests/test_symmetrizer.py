import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavestrip.core import SurfaceState, taylor_coefficient, trace_velocities
from wavestrip.dno import DNOParams, straighten
from wavestrip.grid import Field, bessel_potential, field_from_function, make_grid, norm_l2
from wavestrip.paradiff import cutoff_psi, cutoff_theta, paradiff_apply
from wavestrip.symmetrizer import (
    SymmetrizedPair,
    TaylorSignError,
    dno_principal_symbol,
    good_unknowns,
    symmetrized_energy,
    symmetrized_pair,
    symmetrizer_symbol,
)
from wavestrip.ulspaces import PartitionOfUnity

from core_reference import solved
from symmetrizer_reference import EllipticityError, decoupling_symbols

GRID = make_grid([2 * np.pi], [128])
PARAMS = DNOParams(h=1.0, zpoints=40)
POU = PartitionOfUnity(GRID)


def make_state(eta_fn, psi_fn, g=1.0):
    return SurfaceState(eta=field_from_function(GRID, eta_fn),
                        psi=field_from_function(GRID, psi_fn), g=g)


def test_good_unknowns_rest():
    state = make_state(lambda x: 0.0 * x, lambda x: 0.0 * x)
    traces = trace_velocities(state, solved(state, PARAMS))
    us, zs = good_unknowns(state, traces, 2.0)
    assert norm_l2(us[0]) < 1e-12
    assert norm_l2(zs[0]) < 1e-12


def test_good_unknowns_flat_surface_reduction():
    state = make_state(lambda x: 0.0 * x, lambda x: np.sin(2 * x))
    traces = trace_velocities(state, solved(state, PARAMS))
    us, _ = good_unknowns(state, traces, 1.5)
    expected = bessel_potential(traces.V[0], 1.5)
    assert np.max(np.abs(us[0].values - expected.values)) < 1e-11


def test_good_unknowns_against_truncated_series_oracle():
    """T_zeta <D>^s B evaluated by the closed-form exponential-pair weights."""
    s = 2.0
    state = make_state(lambda x: 0.05 * np.cos(x), lambda x: np.sin(x))
    traces = trace_velocities(state, solved(state, PARAMS))
    us, _ = good_unknowns(state, traces, s)

    bs = bessel_potential(traces.B, s)
    zeta_hat = np.fft.fftn(np.gradient(state.eta.values,
                                       GRID.axes()[0][1], edge_order=2))
    # exact spectral zeta instead of the FD approximation above
    from wavestrip.grid import spectral_gradient

    zeta = spectral_gradient(state.eta)[0]
    zeta_hat = np.fft.fftn(zeta.values) / GRID.size
    b_hat = np.fft.fftn(bs.values) / GRID.size
    ks = GRID.wavenumbers[0]
    n = GRID.points[0]
    x = GRID.axes()[0]
    acc = np.zeros(GRID.shape, dtype=complex)
    for j in range(n):  # symbol modes (zeta is band-limited to |l| = 1)
        if abs(zeta_hat[j]) < 1e-14:
            continue
        for m in range(n):  # function modes, truncated at the spectral floor
            if abs(b_hat[m]) < 1e-13:
                continue
            w = float(cutoff_theta(abs(ks[j]), abs(ks[m]))) * float(cutoff_psi(abs(ks[m])))
            if w == 0.0:
                continue
            acc += w * zeta_hat[j] * b_hat[m] * np.exp(1j * (ks[j] + ks[m]) * x)
    oracle = bessel_potential(traces.V[0], s).values + acc.real
    assert all(u.is_real for u in us)
    assert np.max(np.abs(us[0].values - oracle)) < 1e-8


def test_symmetrizer_symbols_rest_values():
    g = 1.7
    a = Field(GRID, np.full(GRID.shape, g))
    eta = Field(GRID, np.zeros(GRID.shape))
    q = symmetrizer_symbol(a, eta)
    xi = np.array([4.0])
    assert np.allclose(q.values(GRID, xi), np.sqrt(g / 4.0))
    assert q.order == -0.5


def test_symmetrizer_symbols_sqrt_scaling():
    eta = Field(GRID, np.zeros(GRID.shape))
    q1 = symmetrizer_symbol(Field(GRID, np.ones(GRID.shape)), eta)
    q4 = symmetrizer_symbol(Field(GRID, 4.0 * np.ones(GRID.shape)), eta)
    xi = np.array([2.0])
    assert np.allclose(q4.values(GRID, xi), 2.0 * q1.values(GRID, xi))


def test_symmetrizer_rejects_sign_violation():
    a = Field(GRID, np.cos(GRID.axes()[0]))  # touches zero and below
    with pytest.raises(TaylorSignError):
        symmetrizer_symbol(a, Field(GRID, np.zeros(GRID.shape)))


def test_symmetrizer_pointwise_identities():
    x = GRID.axes()[0]
    a = Field(GRID, 1.0 + 0.2 * np.cos(x))
    eta = field_from_function(GRID, lambda xx: 0.05 * np.cos(xx))
    q = symmetrizer_symbol(a, eta)
    lam = dno_principal_symbol(eta)
    for kval in (1.0, 3.0, 17.0):
        xi = np.array([kval])
        qv, lv = q.values(GRID, xi), lam.values(GRID, xi)
        assert np.max(np.abs(qv ** 2 * lv - a.values)) < 1e-12


def test_theta_field_zero_and_rest_mode():
    # theta_s = T_q zeta_s, the paradifferential apply symmetrized_pair makes
    zeta0 = Field(GRID, np.zeros(GRID.shape))
    eta = Field(GRID, np.zeros(GRID.shape))
    q = symmetrizer_symbol(Field(GRID, np.ones(GRID.shape)), eta)
    assert norm_l2(paradiff_apply(q, zeta0)) < 1e-13
    k = 9
    x = GRID.axes()[0]
    out = paradiff_apply(q, Field(GRID, np.cos(k * x)))
    assert np.max(np.abs(out.values - np.cos(k * x) / np.sqrt(k))) < 1e-11


def test_theta_dual_realization_cross_check():
    # q = sqrt(a(x)) |xi|^{-1/2} factorizes in 1-D: compare with the
    # paraproduct-of-filtered-field route
    x = GRID.axes()[0]
    a = Field(GRID, 1.0 + 0.2 * np.cos(x))
    eta = field_from_function(GRID, lambda xx: 0.03 * np.cos(xx))
    q = symmetrizer_symbol(a, eta)
    zs = Field(GRID, np.cos(11 * x) + 0.5 * np.sin(5 * x))
    general = paradiff_apply(q, zs)
    from paradiff_reference import separable_apply

    sqrt_a = Field(GRID, np.sqrt(a.values))

    def inv_sqrt_mod(km):
        k2 = np.sum(km ** 2, axis=0)
        return np.where(k2 > 0, np.maximum(k2, 1e-300) ** -0.25, 0.0)

    factored = separable_apply(sqrt_a, inv_sqrt_mod, zs).values.real
    assert np.max(np.abs(general.values - factored)) < 1e-8


def test_decoupling_flat_cases():
    a, A = decoupling_symbols(1.0, [0.0], [1.0])
    assert a == pytest.approx(-1.0) and A == pytest.approx(1.0)
    h = 0.7
    for k in (1.0, 3.0):
        a, A = decoupling_symbols(h ** 2, [0.0], [k])
        assert a == pytest.approx(-h * k) and A == pytest.approx(h * k)


def test_decoupling_2d_substitution():
    a, A = decoupling_symbols(1.0, [1.0, 0.0], [1.0, 0.0])
    assert a == pytest.approx(0.5 * (-1j - np.sqrt(3.0)))
    assert A == pytest.approx(0.5 * (-1j + np.sqrt(3.0)))
    assert (a + A) == pytest.approx(-1j)
    assert (a * A) == pytest.approx(-1.0)


def test_decoupling_rejects_degenerate():
    with pytest.raises(EllipticityError):
        decoupling_symbols(0.25, [1.0], [1.0])


@given(st.floats(0.3, 4.0), st.floats(-0.9, 0.9), st.floats(-5.0, 5.0),
       st.floats(0.2, 5.0))
@settings(max_examples=50, deadline=None)
def test_decoupling_vieta_and_signs(alpha, beta_scale, xi1, xi2):
    # beta from the coefficient structure: |beta| <= 2 sqrt(alpha) * factor < 2 sqrt(alpha)
    xi = np.array([xi1, xi2])
    if np.linalg.norm(xi) < 1e-3:
        return
    beta = beta_scale * 2.0 * np.sqrt(alpha) * xi / np.linalg.norm(xi)
    a, A = decoupling_symbols(alpha, beta, xi)
    bdot = float(np.dot(beta, xi))
    assert abs((a + A) - (-1j * bdot)) < 1e-12 * max(1.0, abs(bdot))
    assert abs(a * A - (-alpha * np.dot(xi, xi))) < 1e-12 * max(1.0, alpha * np.dot(xi, xi))
    assert a.real < 0.0 < A.real


def test_decoupling_from_domain_traces():
    eta = field_from_function(GRID, lambda x: 0.05 * np.cos(x))
    dom = straighten(eta, DNOParams(zpoints=24))
    a, A = decoupling_symbols(dom.alpha[0], [b[0] for b in dom.beta], [3.0])
    assert np.all(a.real < 0.0) and np.all(A.real > 0.0)
    bdot = dom.beta[0][0] * 3.0
    assert np.max(np.abs(a + A + 1j * bdot)) < 1e-12
    assert np.max(np.abs(a * A + dom.alpha[0] * 9.0)) < 1e-11


def test_symmetrized_energy_rest_and_scaling():
    zero = Field(GRID, np.zeros(GRID.shape))
    pair0 = SymmetrizedPair(Us=(zero,), theta_s=(zero,))
    assert symmetrized_energy(pair0, POU) == 0.0
    x = GRID.axes()[0]
    u = Field(GRID, np.cos(x))
    t = Field(GRID, np.sin(2 * x))
    e1 = symmetrized_energy(SymmetrizedPair((u,), (t,)), POU)
    e4 = symmetrized_energy(SymmetrizedPair((2.0 * u,), (2.0 * t,)), POU)
    assert e4 == pytest.approx(4.0 * e1, rel=1e-12)


def test_symmetrized_pair_assembly():
    state = make_state(lambda x: 0.02 * np.cos(x), lambda x: 0.02 * np.sin(x))
    sol = solved(state, PARAMS)
    a, _ = taylor_coefficient(state, sol, PARAMS)
    pair = symmetrized_pair(state, trace_velocities(state, sol), a, 2.0)
    assert len(pair.Us) == 1 and len(pair.theta_s) == 1
    assert symmetrized_energy(pair, POU) > 0.0
