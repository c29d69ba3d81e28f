"""Regenerate references.json: reference outputs for the default seed.

    python3 perfbench/make_references.py

For each workload the first surface of the default seed is integrated to
the final time with the workload's settings, and again with one setting
changed: zpoints - 8, a GMRES tolerance 100 times looser, or half the time
step.  The stored tolerance of each quantity is ten times the largest of the
three changes, i.e. of the solver's own error estimates in z, in its Krylov
solves and in time.  (On these smooth surfaces the z and Krylov errors sit at
rounding level, so the time step sets the tolerance.)  A change that keeps
the solver as accurate as it is passes; a wrong answer does not.
"""

import json
import sys
from dataclasses import replace

import run  # pins the thread pools before numpy is imported

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

COARSER_BY = 8
LOOSER_BY = 100.0


def values_at(w, zpoints: int, tol_factor: float = 1.0, dt_factor: float = 1.0) -> dict:
    w = replace(w, zpoints=zpoints, dt=dt_factor * w.dt)
    setup = workloads.build(w, workloads.DEFAULT_SEED)
    cfg = replace(setup.cfg, dno=replace(setup.cfg.dno, tol=tol_factor * setup.cfg.dno.tol))
    call = run.run_call(setup.mods, setup.mods["stepping"].integrate, w, cfg,
                        0, setup.states[0])
    if call.cause:
        raise RuntimeError(f"{w.name} at zpoints={zpoints}: {call.cause}")
    return run.reference_values(setup.mods, cfg, call)


def main() -> None:
    refs = {}
    for name, w in workloads.WORKLOADS.items():
        fine = values_at(w, w.zpoints)
        coarse = values_at(w, w.zpoints - COARSER_BY)
        loose = values_at(w, w.zpoints, tol_factor=LOOSER_BY)
        halved = values_at(w, w.zpoints, dt_factor=0.5)
        refs[name] = {}
        for key, value in fine.items():
            changes = {"zpoints": value - coarse[key], "gmres_tol": value - loose[key],
                       "dt": value - halved[key]}
            refs[name][key] = {"value": value,
                               "tol": 10.0 * max(abs(c) for c in changes.values()),
                               "changes": changes}
        print(name, json.dumps(refs[name]))
    run.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")


if __name__ == "__main__":
    main()
