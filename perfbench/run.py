"""Time-to-solution benchmark of wavestrip's time-marching workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rk4_1d --seed 0 --seconds 30 --trace 0

One process runs one workload on one thread.  The seed expands into the
workload's initial surfaces (see workloads.py); whole rounds of integrate
calls, one per surface, repeat while they fit in ``--seconds``.  With
``--trace 0`` the last line of output is a JSON object with the end-to-end
metrics; with ``--trace 1`` every layer's entry points are wrapped and the
JSON carries the per-layer metrics.  Outputs are checked on every run, and a
result file with the environment goes to perfbench/results/.
"""

import os

# pin every thread pool before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "WAVESTRIP_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer, installed, layer_metrics  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 15
P90_MIN_SAMPLES = 100  # leaves ten samples beyond the 90th percentile

# end-to-end metrics carried in the JSON line of a --trace 0 run
END_TO_END = ("setup_s", "run_s", "step_ms_p50")
# per-layer metrics carried in the JSON line of a --trace 1 run; the times of
# paradiff, symmetrizer and ulspaces are printed but left out because those
# layers do no work on the RK4 workloads
PER_LAYER = (
    "dno.precond_calls", "dno.precond_ms", "dno.matvec_calls", "dno.matvec_ms",
    "dno.gmres_its_mean", "dno.gmres_its_max", "dno.solve_calls",
    "dno.solve_self_ms", "dno.solve_failures", "dno.solver_build_calls",
    "dno.solver_build_ms", "dno.solver_build_peak_mb", "dno.straighten_calls",
    "dno.straighten_ms", "dno.delta_halvings", "dno.surface_flux_ms",
    "grid.fft_calls_per_step", "grid.dealiased_product_ms", "core.ww_rhs_calls",
    "core.ww_rhs_self_ms", "core.taylor_calls", "core.taylor_ms",
    "core.taylor_gmres_its", "core.hamiltonian_ms", "stepping.rhs_per_step",
    "stepping.fixed_point_iters_per_step", "stepping.diagnose_self_ms",
    "stepping.advance_self_ms", "paradiff.paraproduct_calls",
    "paradiff.paradiff_apply_calls", "ulspaces.ul_norm_calls", "trace.overhead_s",
)


@dataclass
class Call:
    """One integrate call: its wall time, step times and diagnostics."""

    surface: int
    seconds: float
    step_seconds: list
    records: list
    scheduled: int
    completed: int
    cause: str = ""          # why steps were left unrun, "" when none were
    final: object = None     # final SurfaceState, None after an exception


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    setup_times: list
    calls: list
    failures: list = field(default_factory=list)   # failed output checks
    probe: str = ""                                # "" when the probe passed
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def scheduled(self) -> int:
        return sum(c.scheduled for c in self.calls)

    @property
    def unrun(self) -> int:
        return sum(c.scheduled - c.completed for c in self.calls)


def run_call(mods, integrate, w, cfg, surface, state) -> Call:
    solver_errors = (mods["dno"].EllipticSolveError, mods["dno"].StraighteningError,
                     mods["stepping"].CFLError)
    records, stamps = [], []

    def sink(rec):
        stamps.append(time.perf_counter())
        records.append(rec)

    final, cause = None, ""
    t0 = time.perf_counter()
    try:
        traj = integrate(state, w.final_time, cfg, sink=sink, keep_states=False)
        final = traj.final()
        if traj.status != "ok":
            cause = traj.status
    except solver_errors as exc:
        cause = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    completed = w.n_steps if not cause else max(len(records) - 1, 0)
    steps = [b - a for a, b in zip(stamps, stamps[1:])]
    return Call(surface, seconds, steps, records, w.n_steps, completed, cause, final)


def run_rounds(setup, w, integrate, seconds: float) -> list:
    """Whole rounds over the surfaces while the next one fits in ``seconds``."""
    calls = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for i, state in enumerate(setup.states):
            calls.append(run_call(setup.mods, integrate, w, setup.cfg, i, state))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > seconds:
            return calls


def call_peak_mb(setup, w) -> float:
    """tracemalloc peak of one more integrate call on the first surface."""
    tracemalloc.start()
    try:
        run_call(setup.mods, setup.mods["stepping"].integrate, w, setup.cfg, 0,
                 setup.states[0])
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def check_call(call: Call, w, initial) -> list:
    """Output checks on one call's diagnostics; returns the failures."""
    failures = []
    recs = call.records
    if not recs:
        return failures
    # rounding scale of the mass sum: the L1 norm of the initial elevation
    eta = initial.eta
    scale = float(abs(eta.values).sum()) * eta.grid.cell_volume
    drift = max(abs(r.mass - recs[0].mass) for r in recs)
    if drift > 1e-12 * scale:
        failures.append(f"surface {call.surface}: mass drifted by {drift:.3e}")
    taylor = [r.min_taylor for r in recs if r.min_taylor == r.min_taylor]
    if any(a <= 0.0 for a in taylor):
        failures.append(f"surface {call.surface}: min Taylor coefficient {min(taylor):.4g} <= 0")
    if w.scheme == "parabolic-duhamel":
        ham = [r.hamiltonian for r in recs]
        rises = [b - a for a, b in zip(ham, ham[1:]) if b > a]
        if rises:
            failures.append(f"surface {call.surface}: Hamiltonian rose by {max(rises):.3e}")
    return failures


def reference_values(mods, cfg, call: Call) -> dict:
    """The quantities compared against references.json for the default seed."""
    final = call.final
    sol = mods["dno"].dno_solve(final.eta, final.psi, cfg.dno)
    taylor = [r.min_taylor for r in call.records if r.min_taylor == r.min_taylor]
    return {
        "hamiltonian_T": call.records[-1].hamiltonian,
        "min_taylor_last": taylor[-1],  # last monitored step
        "gpsi_norm_T": mods["grid"].norm_l2(sol.gpsi),
    }


def check_references(values: dict, stored: dict) -> list:
    failures = []
    for key, ref in stored.items():
        got = values[key]
        if not abs(got - ref["value"]) <= ref["tol"]:
            failures.append(f"reference {key}: {got!r} differs from {ref['value']!r} "
                            f"by more than {ref['tol']:.2e}")
    return failures


def probe(mods, state) -> str:
    """dno_solve + taylor_coefficient at DNOParams(); the failure, or ""."""
    dno = mods["dno"]
    params = dno.DNOParams(h=state.h)
    try:
        sol = dno.dno_solve(state.eta, state.psi, params)
        mods["core"].taylor_coefficient(state, sol, params)
    except (dno.EllipticSolveError, dno.StraighteningError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


def solver_build_peak_mb(mods, cfg, state) -> float:
    """tracemalloc peak of one StripSolver build on ``state``'s domain."""
    dno = mods["dno"]
    dom = dno.straighten_adaptive(state.eta, cfg.dno)
    tracemalloc.start()
    try:
        dno.StripSolver(dom, tol=cfg.dno.tol, maxiter=cfg.dno.maxiter)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def measure(w, seed: int, seconds: float, trace: bool) -> Outcome:
    setup_times, setup = workloads.timed_setup(w, seed, SETUP_REPEATS)
    mods = setup.mods
    if not pathlib.Path(mods["grid"].__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"wavestrip was imported from {mods['grid'].__file__}, not {SRC}")
    out = Outcome(setup_times=setup_times, calls=[])
    if trace:
        # a warm-up round, then untraced and traced rounds in turn, so that
        # the overhead compares warm calls made at nearly the same time
        t0 = time.perf_counter()
        run_rounds(setup, w, mods["stepping"].integrate, 0.0)
        tracer, untraced, pairs = Tracer(), [], 0
        while True:
            untraced += run_rounds(setup, w, mods["stepping"].integrate, 0.0)
            with installed(tracer, mods):
                out.calls += run_rounds(setup, w, mods["stepping"].integrate, 0.0)
            pairs += 1
            elapsed = time.perf_counter() - t0
            if elapsed + (elapsed / (pairs + 0.5)) > seconds:
                break
        out.spans = tracer.spans
        out.layers = layer_metrics(tracer, len(out.calls), out.scheduled,
                                   w.scheme == "parabolic-duhamel")
        out.layers["trace.overhead_s"] = (
            statistics.median(c.seconds for c in out.calls)
            - statistics.median(c.seconds for c in untraced), "s")
    else:
        out.calls = run_rounds(setup, w, mods["stepping"].integrate, seconds)

    for call in out.calls:
        out.failures += check_call(call, w, setup.states[call.surface])
    if seed == workloads.DEFAULT_SEED:
        stored = json.loads(REFERENCES.read_text())[w.name]
        first = out.calls[0]
        if first.final is None:
            out.failures.append(f"reference: surface 0 did not finish ({first.cause})")
        else:
            out.failures += check_references(reference_values(mods, setup.cfg, first), stored)
    finals = [c.final for c in out.calls if c.final is not None]
    out.probe = probe(mods, finals[-1] if finals else setup.states[0])
    if trace:
        out.layers["dno.solver_build_peak_mb"] = (
            solver_build_peak_mb(mods, setup.cfg, setup.states[0]), "MB")
        out.layers["stepping.integrate_peak_mb"] = (call_peak_mb(setup, w), "MB")
    return out


def best_of_rounds(out: Outcome) -> tuple[list, list]:
    """Each surface's fastest call time, and the fastest time of each of its steps.

    A shared host's speed drifts by 20-60 % over spans of seconds to
    minutes; the fastest of a surface's repeats is the one least slowed by
    other load.
    """
    calls, steps = {}, {}
    for c in out.calls:
        calls[c.surface] = min(calls.get(c.surface, c.seconds), c.seconds)
        for k, s in enumerate(c.step_seconds):
            steps[c.surface, k] = min(steps.get((c.surface, k), s), s)
    return list(calls.values()), list(steps.values())


def end_to_end(out: Outcome) -> dict:
    """Every user-facing figure; END_TO_END names the ones in the JSON line."""
    steps = [s for c in out.calls for s in c.step_seconds]
    best_calls, best_steps = best_of_rounds(out)
    attempted = out.scheduled + 1  # + the probe
    failed = out.unrun + bool(out.probe)
    drifts = [abs(c.records[-1].hamiltonian - c.records[0].hamiltonian)
              / c.records[0].hamiltonian for c in out.calls if c.records]
    figures = {
        "setup_s": (statistics.median(out.setup_times), "s"),
        "run_s": (statistics.median(best_calls), "s"),
        "step_ms_p50": (1e3 * statistics.median(best_steps), "ms"),
        "step_ms_p90": (1e3 * statistics.quantiles(steps, n=10)[8]
                        if len(steps) >= P90_MIN_SAMPLES else None, "ms"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (failed / attempted, "1"),
        "energy_drift": (statistics.median(drifts) if drifts else None, "1"),
    }
    return figures


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "WAVESTRIP_THREADS")},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(w, seed: int, trace: bool, out: Outcome, figures: dict, env: dict) -> None:
    steps = sum(len(c.step_seconds) for c in out.calls)
    print(f"workload {w.name}  seed {seed}  trace {int(trace)}  surfaces {w.n_surfaces}  "
          f"integrate calls {len(out.calls)}  steps {steps}  final time {w.final_time}")
    print("env " + json.dumps(env))
    notes = {
        "setup_s": f"median of {len(out.setup_times)} builds",
        "run_s": f"median over {w.n_surfaces} surfaces of the fastest of their calls",
        "step_ms_p50": f"median over {w.n_surfaces * w.n_steps} steps of the fastest repeat",
        "rss_mb": "ru_maxrss at the end of the run",
        "step_ms_p90": f"{steps} steps" + ("" if steps >= P90_MIN_SAMPLES
                                           else f", needs {P90_MIN_SAMPLES}"),
        "fail_frac": "steps and the default-parameter probe",
        "energy_drift": "|H(T)-H(0)|/H(0), median over calls",
    }
    if not trace:
        for name, (value, unit) in figures.items():
            print(f"  {name:<14} {_fmt(value):>12} {unit:<3} {notes.get(name, '')}")
    else:
        for name, (value, unit) in out.layers.items():
            print(f"  {name:<36} {_fmt(value):>12} {unit}")
    print("probe DNOParams(): " + (out.probe or "ok"))
    for failure in out.failures:
        print("check failed: " + failure)
    if not out.failures:
        print(f"checks passed on {len(out.calls)} calls")


def write_result(w, seed: int, trace: bool, out: Outcome, figures: dict, env: dict) -> None:
    result = {
        "workload": w.name, "seed": seed, "default_seed": workloads.DEFAULT_SEED,
        "trace": int(trace), "env": env,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in out.layers.items()},
        "probe": out.probe, "check_failures": out.failures,
        "calls": [{"surface": c.surface, "seconds": c.seconds, "completed": c.completed,
                   "scheduled": c.scheduled, "cause": c.cause} for c in out.calls],
    }
    if out.spans:
        names = sorted({s.name for s in out.spans})
        code = {n: i for i, n in enumerate(names)}
        t0 = out.spans[0].start
        result["spans"] = {
            "columns": ["name", "start_s", "end_s", "parent", "failed"],
            "names": names,
            "rows": [[code[s.name], s.start - t0, s.end - t0, s.parent, int(s.failed)]
                     for s in out.spans],
        }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wavestrip" / "__init__.py").is_file():
        print(f"error: wavestrip sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]
    seed, trace = args.seed, bool(args.trace)

    out = measure(w, seed, args.seconds, trace)
    figures = end_to_end(out)
    env = environment()
    report(w, seed, trace, out, figures, env)
    write_result(w, seed, trace, out, figures, env)
    chosen = PER_LAYER if trace else END_TO_END
    source = out.layers if trace else figures
    line = {
        "correct": not out.failures,
        "attempted": out.scheduled,
        "failed": min(out.unrun + len(out.failures), out.scheduled),
        "metrics": {k: {"value": source[k][0], "unit": source[k][1]} for k in chosen},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
