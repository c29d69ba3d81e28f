"""Guards on what the package promises: its module docstrings name only
things it ships, no module under src/ reaches into the tests, and no module
imports a name it does not use."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest
import scipy.fft

import wavestrip

SRC = pathlib.Path(wavestrip.__file__).parent
MODULES = ["wavestrip"] + [f"wavestrip.{m.name}" for m in pkgutil.iter_modules([str(SRC)])]
TEST_MODULES = {p.stem for p in pathlib.Path(__file__).parent.glob("*.py")}


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
    # ``ParaSymbol.eval(x_meshes, xis)`` names ParaSymbol.eval
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
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
