"""Guards on what the package promises: its module docstrings name only
things it ships, no module under src/ reaches into the tests, no module of
src/ or tests/ imports a name it does not use, only the paradifferential
layer touches the full complex lattice and paradiff, the settable values do
not grow, every name and call shape the benchmark in perfbench/ reads
still exists, and importing the package builds no per-grid table."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest
import scipy.fft

import wavestrip
from wavestrip.dno import DNOParams
from wavestrip.stepping import StepConfig

SRC = pathlib.Path(wavestrip.__file__).parent
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ["wavestrip"] + [f"wavestrip.{m.name}" for m in pkgutil.iter_modules([str(SRC)])]
TESTS = pathlib.Path(__file__).parent
TEST_MODULES = {p.stem for p in TESTS.glob("*.py")}


def _attribute(obj, name):
    """getattr, counting dataclass fields without a default (no class attribute)."""
    fields = getattr(obj, "__dataclass_fields__", {})
    return fields[name] if name in fields else getattr(obj, name, None)


def _resolves(dotted: str, module) -> bool:
    """``dotted`` is an attribute path from ``module``, from another wavestrip
    module or the package itself, or from scipy.fft."""
    head, *rest = dotted.split(".")
    roots = [module, scipy.fft] + [importlib.import_module(m) for m in MODULES]
    for root in roots:
        obj = _attribute(root, head)
        for name in rest:
            obj = _attribute(obj, name)
        if obj is not None:
            return True
    return False


@pytest.mark.parametrize("name", MODULES)
def test_module_docstring_names_exist(name):
    module = importlib.import_module(name)
    # ``ParaSymbol.eval(xis)`` names ParaSymbol.eval
    named = [m.split("(")[0].strip()
             for m in re.findall(r"``(.+?)``", module.__doc__ or "", re.S)]
    missing = [n for n in named if not _resolves(n, module)]
    assert not missing, f"{name} docstring names {missing}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_does_not_import_tests(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        for n in names:
            top = n.split(".")[0]
            assert top != "tests" and top not in TEST_MODULES, f"{path.name} imports {n}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_src_has_no_unused_imports(path):
    # a static scan: a name counts as used when the module reads it anywhere
    # or lists it in __all__
    tree = ast.parse(path.read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    assert not imported - used, f"{path.name} imports {sorted(imported - used)} unused"


# the full complex lattice transforms; the Fourier multipliers of every
# other module run on the rfft half spectrum (grid.apply_half_symbols)
FULL_LATTICE = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}
PARADIFF_USERS = {"paradiff.py", "symmetrizer.py"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_paradiff_uses_the_full_lattice(path):
    # a static scan: the paraproduct kernel, a convolution in frequency, is
    # the one user of the full lattice, and only the paradifferential layer
    # (paradiff and the symmetrizer built on it) imports paradiff
    tree = ast.parse(path.read_text())
    fft_modules = {"scipy.fft", "numpy.fft"}
    owners = {"np.fft"} | fft_modules
    uses, imports_paradiff = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            owners |= {a.asname or a.name for a in node.names if a.name in fft_modules}
            imports_paradiff |= any(a.name == "wavestrip.paradiff" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module in fft_modules:
                uses |= names & FULL_LATTICE
            if node.module in ("scipy", "numpy"):
                owners |= {a.asname or a.name for a in node.names if a.name == "fft"}
            imports_paradiff |= node.module == "wavestrip.paradiff" or (
                node.module == "wavestrip" and "paradiff" in names)
    uses |= {f"{ast.unparse(n.value)}.{n.attr}" for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in FULL_LATTICE
             and ast.unparse(n.value) in owners}
    if path.name != "paradiff.py":
        assert not uses, f"{path.name} uses {sorted(uses)}"
    if path.name not in PARADIFF_USERS:
        assert not imports_paradiff, f"{path.name} imports wavestrip.paradiff"


# Raise only together with a CHANGES.md line that names the new option and
# the two values of it in use outside the tests (or the failure path that
# only it reaches).
MAX_SETTABLE_VALUES = 21


def _settable_values() -> list[str]:
    """Dataclass fields with defaults and parameters with defaults of every
    function and method defined in the modules under wavestrip; an alias
    (one object under two names) counts once."""
    seen, found = set(), []
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != name or id(obj) in seen:
                continue
            seen.add(id(obj))
            functions = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                if is_dc:
                    found += [f"{obj.__qualname__}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING]
                # a dataclass __init__ repeats the fields
                functions = [v for k, v in vars(obj).items()
                             if inspect.isfunction(v) and not (is_dc and k == "__init__")]
            for fn in functions:
                found += [f"{fn.__qualname__}({p.name})"
                          for p in inspect.signature(fn).parameters.values()
                          if p.default is not inspect.Parameter.empty]
    return found


def test_settable_values_do_not_grow():
    found = _settable_values()
    assert len(found) <= MAX_SETTABLE_VALUES, \
        f"{len(found)} settable values, at most {MAX_SETTABLE_VALUES}: {found}"


def _perfbench_module(name: str):
    """perfbench/<name>.py loaded from its file.  tracer and workloads
    import no wavestrip module at load time, so the package under test is
    the one these tests imported."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # the dataclass decorator looks the module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_traces_only_what_the_package_ships():
    tracer = _perfbench_module("tracer")
    for mod, attr, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"wavestrip.{mod}")
        assert callable(getattr(module, attr, None)), f"wavestrip.{mod}.{attr}"
    for mod, cls, meth, _ in tracer.METHODS:
        owner = getattr(importlib.import_module(f"wavestrip.{mod}"), cls, None)
        assert callable(getattr(owner, meth, None)), f"wavestrip.{mod}.{cls}.{meth}"


def test_benchmark_workloads_build_their_step_config():
    # as workloads.build does, without its fresh import of the package
    for w in _perfbench_module("workloads").WORKLOADS.values():
        cfg = StepConfig(dt=w.dt, dno=DNOParams(h=1.0, zpoints=w.zpoints), **w.step)
        assert cfg.dno.zpoints == w.zpoints


@pytest.mark.parametrize("module, name, args, kwargs", [
    ("dno", "StripSolver", 1, ("tol", "maxiter")),
    ("dno", "straighten_adaptive", 2, ()),
    ("dno", "dno_solve", 3, ()),
    ("core", "taylor_coefficient", 3, ()),
])
def test_benchmark_calls_bind(module, name, args, kwargs):
    # the argument shapes of the calls perfbench/run.py makes
    fn = getattr(importlib.import_module(f"wavestrip.{module}"), name)
    inspect.signature(fn).bind(*range(args), **dict.fromkeys(kwargs))


def test_import_builds_no_table():
    # the benchmark's setup_s times imports, so the per-grid tables are
    # built on first use; a fresh interpreter sees the import alone
    code = ("import wavestrip.stepping\n"
            "from wavestrip import dno, paradiff\n"
            "assert len(paradiff._PAIR_TABLES) == 0\n"
            "assert len(dno._STRAIGHTENING_TABLES) == 0\n"
            "assert len(dno._LIFT_TABLES) == 0\n")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": path})
