"""Self-tests of the benchmark: tracing completeness, span nesting, smoke runs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run  # pins the thread pools before numpy is imported

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from tracer import Tracer, installed, layer_metrics  # noqa: E402


def short(w):
    """The workload cut to two surfaces and one Taylor-monitor period."""
    return replace(w, n_surfaces=2, final_time=5 * w.dt)


def traced_run(w, seed=1):
    setup = workloads.build(w, seed)
    tracer = Tracer()
    with installed(tracer, setup.mods):
        calls = run.run_rounds(setup, w, setup.mods["stepping"].integrate, 0.0)
    layers = layer_metrics(tracer, len(calls), sum(c.scheduled for c in calls),
                           w.scheme == "parabolic-duhamel")
    return setup, calls, tracer, {k: v for k, (v, _) in layers.items()}


@pytest.fixture(scope="module")
def rk4_trace():
    return traced_run(short(workloads.WORKLOADS["rk4_1d"]))


def test_rk4_counts_are_complete(rk4_trace):
    setup, calls, _, m = rk4_trace
    steps = calls[0].scheduled
    assert all(c.completed == steps for c in calls)
    assert m["core.ww_rhs_calls"] == 4 * steps + 1
    assert m["dno.straighten_calls"] == m["core.ww_rhs_calls"]
    assert m["dno.solve_calls"] == m["core.ww_rhs_calls"] + m["core.taylor_calls"]
    assert m["stepping.rhs_per_step"] == 4.0
    assert m["stepping.fixed_point_iters_per_step"] == 0.0
    assert m["paradiff.paraproduct_calls"] == 0.0
    assert m["ulspaces.ul_norm_calls"] == 0.0
    assert m["dno.matvec_calls"] >= m["dno.solve_calls"] * m["dno.gmres_its_mean"]
    assert m["grid.fft_calls_per_step"] > 0


def test_spans_nest(rk4_trace):
    _, _, tracer, _ = rk4_trace
    spans = tracer.spans
    assert all(s is not None for s in spans)
    assert min(tracer.self_times()) >= 0.0
    for s in spans:
        assert s.end >= s.start
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
        else:
            assert s.name == "stepping.integrate"
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s.parent, []).append(i)
    for siblings in children.values():
        for a, b in zip(siblings, siblings[1:]):
            assert spans[a].end <= spans[b].start


def test_tracer_restores_entry_points():
    setup = workloads.build(short(workloads.WORKLOADS["rk4_1d"]), 1)
    mods = setup.mods
    before = (mods["core"].ww_rhs, mods["stepping"].ww_rhs, mods["dno"].StripSolver.solve)
    with installed(Tracer(), mods):
        assert mods["stepping"].ww_rhs is not before[1]
        assert mods["core"].ww_rhs is mods["stepping"].ww_rhs
    assert (mods["core"].ww_rhs, mods["stepping"].ww_rhs,
            mods["dno"].StripSolver.solve) == before


def test_seed_fixes_inputs():
    w = workloads.WORKLOADS["rk4_2d"]
    a, b, c = (workloads.build(w, s).states for s in (3, 3, 4))
    assert all((x.eta.values == y.eta.values).all() for x, y in zip(a, b))
    assert not (a[0].eta.values == c[0].eta.values).all()
    grid = workloads.import_package()["grid"]
    slope = grid.spectral_gradient(a[0].eta)
    assert (sum(g.values ** 2 for g in slope) ** 0.5).max() == pytest.approx(w.amplitude)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_workload(name):
    w = short(workloads.WORKLOADS[name])
    setup, calls, _, m = traced_run(w)
    for call in calls:
        assert call.cause == ""
        assert len(call.step_seconds) == w.n_steps
        assert run.check_call(call, w, setup.states[call.surface]) == []
    if w.scheme == "parabolic-duhamel":
        assert m["stepping.fixed_point_iters_per_step"] >= 1.0
        assert m["stepping.rhs_per_step"] == 1.0 + m["stepping.fixed_point_iters_per_step"]
        assert m["paradiff.paraproduct_calls"] == w.n_steps + 1
        assert m["ulspaces.ul_norm_calls"] > 0


def test_command_prints_metrics_and_fails_without_sources(tmp_path):
    root = pathlib.Path(run.ROOT)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "rk4_1d",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] > 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in bench["per_layer"]] == list(run.PER_LAYER)

    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    bare = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170, env=env)
    assert bare.returncode != 0
    assert "correct" not in bare.stdout
