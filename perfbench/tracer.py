"""Spans around the public entry points of each wavestrip layer.

The tracer wraps functions from the outside: a name imported with
``from ... import`` is replaced in every module that holds it, and the
strip solver and partition of unity are wrapped on their classes.  Spans
(name, start, end, parent, extras) are kept in memory; self time is a span's
duration minus the durations of its children, which in one thread lie inside
it and do not overlap.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import scipy.fft

# (defining module, attribute, span name)
FUNCTIONS = (
    ("grid", "dealiased_product", "grid.dealiased_product"),
    ("grid", "spectral_gradient", "grid.spectral_gradient"),
    ("dno", "straighten_adaptive", "dno.straighten"),
    ("dno", "solve_laplace", "dno.solve_laplace"),
    ("dno", "dno_solve", "dno.dno_solve"),
    ("dno", "surface_flux", "dno.surface_flux"),
    ("core", "ww_rhs", "core.ww_rhs"),
    ("core", "taylor_coefficient", "core.taylor"),
    ("core", "hamiltonian", "core.hamiltonian"),
    ("core", "trace_velocities", "core.trace_velocities"),
    ("stepping", "integrate", "stepping.integrate"),
    ("stepping", "rk4_step", "stepping.advance"),
    ("stepping", "parabolic_step", "stepping.advance"),
    ("stepping", "_diagnose", "stepping.diagnose"),
    ("paradiff", "paraproduct", "paradiff.paraproduct"),
    ("paradiff", "paradiff_apply", "paradiff.paradiff_apply"),
    ("symmetrizer", "symmetrized_pair", "symmetrizer.pair"),
    ("symmetrizer", "symmetrized_energy", "symmetrizer.energy"),
    ("ulspaces", "ul_sobolev_norm", "ulspaces.ul_norm"),
)
# (defining module, class, method, span name)
METHODS = (
    ("dno", "StripSolver", "__init__", "dno.solver_build"),
    ("dno", "StripSolver", "solve", "dno.solve"),
    ("dno", "StripSolver", "_matvec", "dno.matvec"),
    ("dno", "StripSolver", "_precond", "dno.precond"),
    ("ulspaces", "PartitionOfUnity", "__init__", "ulspaces.pou_build"),
)
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    failed: bool
    extra: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    fft_calls: int = 0
    _stack: list = field(default_factory=list)

    def wrap(self, name: str, fn, after=None):
        """Record a span per call; ``after(args, result)`` returns extras."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            failed, extra = True, {}
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                if after is not None:
                    extra = after(args, None if failed else result)
                spans[idx] = Span(name, start, end, parent, failed, extra)

        return traced

    def count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.fft_calls += 1
            return fn(*args, **kwargs)
        return counted

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


def _solve_extras(args, result):
    return {"iterations": args[0].last_iterations}


def _straighten_extras(args, result):
    if result is None:
        return {}
    return {"halvings": int(round(math.log2(args[1].delta / result.delta)))}


@contextmanager
def installed(tracer: Tracer, mods: dict):
    """Wrap every traced entry point of ``mods``; restore them on exit."""
    saved = []

    def replace(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    after = {"dno.solve": _solve_extras, "dno.straighten": _straighten_extras}
    for mod, attr, name in FUNCTIONS:
        original = getattr(mods[mod], attr)
        wrapped = tracer.wrap(name, original, after.get(name))
        for m in mods.values():
            if getattr(m, attr, None) is original:
                replace(m, attr, wrapped)
    for mod, cls_name, meth, name in METHODS:
        cls = getattr(mods[mod], cls_name)
        replace(cls, meth, tracer.wrap(name, getattr(cls, meth), after.get(name)))
    for attr in FFT_NAMES:
        replace(scipy.fft, attr, tracer.count_fft(getattr(scipy.fft, attr)))
    try:
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def _median_ms(values) -> float | None:
    return 1e3 * statistics.median(values) if values else None


def layer_metrics(tracer: Tracer, n_calls: int, n_steps: int,
                  fixed_point: bool) -> dict[str, tuple[float | None, str]]:
    """Per-layer figures from the spans of ``n_calls`` traced integrate calls.

    Counts are per integrate call (or per step where named so); ``_ms`` is
    the median per call of the span's duration, ``_self_ms`` of its self
    time.  A time is None when the layer was never called.
    """
    spans = tracer.spans
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(name):
        return _median_ms([spans[i].duration for i in idx(name)])

    def self_ms(name):
        return _median_ms([own[i] for i in idx(name)])

    def per_call(name):
        return len(idx(name)) / n_calls

    # nearest enclosing advance span and whether a span runs under the
    # Taylor pressure solve; parents always precede their children
    in_taylor = [False] * len(spans)
    advance_of = [-1] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            in_taylor[i] = in_taylor[s.parent]
            advance_of[i] = advance_of[s.parent]
        if s.name == "core.taylor":
            in_taylor[i] = True
        if s.name == "stepping.advance":
            advance_of[i] = i
    rhs_in_step = {i: 0 for i in idx("stepping.advance")}
    for i in idx("core.ww_rhs"):
        if advance_of[i] >= 0:
            rhs_in_step[advance_of[i]] += 1
    rhs_counts = list(rhs_in_step.values())
    its = [spans[i].extra["iterations"] for i in idx("dno.solve")]
    taylor_its = [spans[i].extra["iterations"] for i in idx("dno.solve") if in_taylor[i]]
    halvings = sum(spans[i].extra.get("halvings", 0) for i in idx("dno.straighten"))

    count, ms = "count", "ms"
    return {
        "dno.precond_calls": (per_call("dno.precond"), count),
        "dno.precond_ms": (dur("dno.precond"), ms),
        "dno.matvec_calls": (per_call("dno.matvec"), count),
        "dno.matvec_ms": (dur("dno.matvec"), ms),
        "dno.gmres_its_mean": (statistics.fmean(its) if its else 0.0, count),
        "dno.gmres_its_max": (float(max(its, default=0)), count),
        "dno.solve_calls": (per_call("dno.solve"), count),
        "dno.solve_self_ms": (self_ms("dno.solve"), ms),
        "dno.solve_failures": (sum(spans[i].failed for i in idx("dno.solve")) / n_calls, count),
        "dno.solver_build_calls": (per_call("dno.solver_build"), count),
        "dno.solver_build_ms": (dur("dno.solver_build"), ms),
        "dno.straighten_calls": (per_call("dno.straighten"), count),
        "dno.straighten_ms": (dur("dno.straighten"), ms),
        "dno.delta_halvings": (halvings / n_calls, count),
        "dno.surface_flux_ms": (dur("dno.surface_flux"), ms),
        "grid.fft_calls_per_step": (tracer.fft_calls / n_steps, "1/step"),
        "grid.dealiased_product_ms": (dur("grid.dealiased_product"), ms),
        "core.ww_rhs_calls": (per_call("core.ww_rhs"), count),
        "core.ww_rhs_self_ms": (self_ms("core.ww_rhs"), ms),
        "core.taylor_calls": (per_call("core.taylor"), count),
        "core.taylor_ms": (dur("core.taylor"), ms),
        "core.taylor_gmres_its": (statistics.fmean(taylor_its) if taylor_its else 0.0, count),
        "core.hamiltonian_ms": (dur("core.hamiltonian"), ms),
        # integrate hands each step its first RHS, so a step costs one more
        "stepping.rhs_per_step": (1.0 + statistics.fmean(rhs_counts) if rhs_counts else 0.0,
                                  "1/step"),
        "stepping.fixed_point_iters_per_step": (
            statistics.fmean(rhs_counts) if fixed_point and rhs_counts else 0.0, "1/step"),
        "stepping.diagnose_self_ms": (self_ms("stepping.diagnose"), ms),
        "stepping.advance_self_ms": (self_ms("stepping.advance"), ms),
        "paradiff.paraproduct_calls": (per_call("paradiff.paraproduct"), count),
        "paradiff.paraproduct_ms": (dur("paradiff.paraproduct"), ms),
        "paradiff.paradiff_apply_calls": (per_call("paradiff.paradiff_apply"), count),
        "paradiff.paradiff_apply_ms": (dur("paradiff.paradiff_apply"), ms),
        "symmetrizer.pair_self_ms": (self_ms("symmetrizer.pair"), ms),
        "symmetrizer.energy_ms": (dur("symmetrizer.energy"), ms),
        "ulspaces.ul_norm_calls": (per_call("ulspaces.ul_norm"), count),
        "ulspaces.ul_norm_ms": (dur("ulspaces.ul_norm"), ms),
        "ulspaces.pou_build_ms": (dur("ulspaces.pou_build"), ms),
    }
