"""Boussinesq's canal by reflection.

A canal 0 <= y <= w with vertical walls needs no machinery of its own: data
extended evenly across the walls is 2w-periodic in y and does not decay, so
it is an ordinary Cauchy problem on the whole strip.  These tests run such
data through plain ``integrate`` and check that the flow keeps the
reflection symmetry, so that the no-flux wall conditions d_y eta = d_y psi = 0
hold at y = 0 and y = w without being imposed.
"""

import numpy as np
import pytest

from wavestrip.core import SurfaceState
from wavestrip.dno import DNOParams
from wavestrip.grid import Field, field_from_function, make_grid, spectral_gradient
from wavestrip.stepping import StepConfig, integrate

WIDTH = 1.0
CANAL = make_grid([2 * np.pi, 2 * WIDTH], [64, 8])  # y-period 2w: the doubled canal
DNO = DNOParams(h=1.0, zpoints=24)
SCHEMES = {
    "rk4": StepConfig(dt=0.02, dno=DNO),
    "parabolic-duhamel": StepConfig(dt=0.02, epsilon=0.01,
                                    scheme="parabolic-duhamel", dno=DNO),
}
T = 0.1


def canal_state(grid, eta_fn, psi_fn):
    return SurfaceState(eta=field_from_function(grid, eta_fn),
                        psi=field_from_function(grid, psi_fn))


def even_state():
    # cos(pi y / w) profiles: even about y = 0 and, by the 2w period, about y = w
    cy = lambda y: np.cos(np.pi * y / WIDTH)
    return canal_state(
        CANAL,
        lambda x, y: 0.05 * np.cos(x) + 0.03 * np.sin(2 * x) * cy(y) + 0.01 * cy(y) ** 2,
        lambda x, y: 0.04 * np.sin(x) * cy(y) + 0.02 * np.cos(3 * x))


@pytest.fixture(scope="module", params=list(SCHEMES))
def even_run(request):
    traj = integrate(even_state(), T, SCHEMES[request.param])
    assert traj.status == "ok"
    return traj


def parity_defect(u: Field) -> float:
    ny = u.grid.points[1]
    mirror = u.values[:, (-np.arange(ny)) % ny]  # y_j -> -y_j
    return float(np.max(np.abs(u.values - mirror)))


def test_even_data_stays_even(even_run):
    assert len(even_run.states) == 6
    for s in even_run.states:
        assert parity_defect(s.eta) <= 1e-13
        assert parity_defect(s.psi) <= 1e-13


def test_walls_carry_no_normal_slope(even_run):
    walls = [0, CANAL.points[1] // 2]  # y = 0 and y = w
    for s in even_run.states:
        for u in (s.eta, s.psi):
            dy = spectral_gradient(u)[1].values
            assert np.max(np.abs(dy[:, walls])) <= 1e-12


def test_y_independent_canal_equals_1d_run():
    line = make_grid([2 * np.pi], [64])
    eta = lambda x, *_: 0.05 * np.cos(x) + 0.02 * np.sin(2 * x)
    psi = lambda x, *_: 0.03 * np.sin(x)
    cfg = SCHEMES["rk4"]
    run_2d = integrate(canal_state(CANAL, eta, psi), T, cfg)
    run_1d = integrate(canal_state(line, eta, psi), T, cfg)
    assert run_2d.status == run_1d.status == "ok"
    for s2, s1 in zip(run_2d.states, run_1d.states, strict=True):
        for u2, u1 in ((s2.eta, s1.eta), (s2.psi, s1.psi)):
            assert np.max(np.abs(u2.values - u1.values[:, None])) <= 1e-13


def test_bump_on_long_canal_runs():
    grid = make_grid([4 * np.pi, 2 * WIDTH], [128, 8])
    bump = lambda x, y: (0.1 * np.exp(-(x - 2 * np.pi) ** 2)
                         * (1 + np.cos(np.pi * y / WIDTH)) / 2)  # against the wall y = 0
    state = canal_state(grid, bump, lambda x, y: np.zeros_like(x))
    traj = integrate(state, T, SCHEMES["rk4"])
    assert traj.status == "ok"
    a = [r.min_taylor for r in traj.records if np.isfinite(r.min_taylor)]
    assert a and min(a) > 0
