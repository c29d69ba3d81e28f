"""Workload definitions and seeded inputs for the wavestrip benchmark.

Every workload marches seeded random-phase surfaces to a fixed final time
with period 2*pi, g = h = 1 and dt = 0.02.  A seed expands into
``n_surfaces`` initial states; each run integrates all of them, so the
reported figures average over several surfaces rather than hanging on the
phases of one.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from types import ModuleType

import numpy as np

DEFAULT_SEED = 0
LAYERS = ("grid", "ulspaces", "paradiff", "dno", "core", "symmetrizer", "stepping")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    points: tuple[int, ...]
    modes: tuple[tuple[int, ...], ...]  # wavevectors of the random-phase sum
    amplitude: float                    # max |grad eta| = max |grad psi|
    zpoints: int
    final_time: float
    n_surfaces: int
    step: dict = field(default_factory=dict)  # extra StepConfig fields
    dt: float = 0.02

    @property
    def n_steps(self) -> int:
        return int(round(self.final_time / self.dt))

    @property
    def scheme(self) -> str:
        return self.step.get("scheme", "rk4")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="rk4_1d",
        why="plain RK4 time marching in 1-D; almost all time is in the dno "
            "strip solves and paradiff, symmetrizer and ulspaces do no work",
        points=(256,), modes=((1,), (2,), (3,), (4,)), amplitude=0.1,
        zpoints=32, final_time=0.1, n_surfaces=6,
    ),
    Workload(
        name="rk4_2d",
        why="the same dno layer on a 32x32 grid, where the per-mode inverse "
            "stack, solver build memory and 2-D FFTs dominate",
        points=(32, 32),
        modes=((1, 0), (0, 1), (1, 1), (1, -1), (2, 0), (0, 2)),
        amplitude=0.1, zpoints=24, final_time=0.1, n_surfaces=3,
    ),
    Workload(
        name="duhamel_sym_1d",
        why="parabolic Duhamel fixed point with symmetrized energy and UL "
            "norms: many solves on nearly equal surfaces, and the only "
            "workload running paradiff, symmetrizer and ulspaces",
        points=(256,), modes=((1,), (2,), (3,), (4,)), amplitude=0.05,
        zpoints=32, final_time=0.1, n_surfaces=3,
        step={"scheme": "parabolic-duhamel", "epsilon": 0.01,
              "symmetrized_s": 1.0, "ul_norm_s": (1.0,)},
    ),
)}


@dataclass
class Setup:
    """The imported package and the inputs of one workload."""

    mods: dict[str, ModuleType]
    states: list
    cfg: object


def random_phase_sum(mods, grid, modes, amplitude, rng) -> np.ndarray:
    """Sum of cos(k.x + phase) over ``modes``, scaled to max slope ``amplitude``.

    The slope rather than the height is fixed because it sets the strip
    solver's GMRES iteration count, so seeds differ in phases only and not
    in how hard the surface is to solve.
    """
    meshes = grid.meshes()
    vals = np.zeros(grid.shape)
    for k in modes:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        vals += np.cos(sum(kc * x for kc, x in zip(k, meshes)) + phase)
    slope = np.sqrt(sum(g.values ** 2 for g in
                        mods["grid"].spectral_gradient(mods["grid"].Field(grid, vals))))
    return vals * (amplitude / float(np.max(slope)))


def import_package() -> dict[str, ModuleType]:
    """Import every wavestrip module afresh (earlier imports are dropped)."""
    for name in [m for m in sys.modules if m == "wavestrip" or m.startswith("wavestrip.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"wavestrip.{name}") for name in LAYERS}


def build(w: Workload, seed: int) -> Setup:
    """Import wavestrip and build the grid, initial states and StepConfig."""
    mods = import_package()
    grid = mods["grid"].make_grid([2.0 * np.pi] * len(w.points), w.points)
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(w.n_surfaces):
        eta = random_phase_sum(mods, grid, w.modes, w.amplitude, rng)
        psi = random_phase_sum(mods, grid, w.modes, w.amplitude, rng)
        states.append(mods["core"].SurfaceState(
            eta=mods["grid"].Field(grid, eta), psi=mods["grid"].Field(grid, psi),
            g=1.0, h=1.0))
    dno = mods["dno"].DNOParams(h=1.0, zpoints=w.zpoints)
    cfg = mods["stepping"].StepConfig(dt=w.dt, dno=dno, **w.step)
    return Setup(mods=mods, states=states, cfg=cfg)


def timed_setup(w: Workload, seed: int, repeats: int) -> tuple[list[float], Setup]:
    """Build ``repeats`` times; return every wall time and the last build."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        setup = build(w, seed)
        times.append(time.perf_counter() - t0)
    return times, setup
