"""Names that code outside the package relies on.

``dirspace.__all__`` is the public API.  ``perfbench/tracer.py`` wraps the
functions listed in its ``TARGETS`` to time each layer; a target that no
longer resolves drops out of the benchmark silently, so a deletion under
``src/`` is checked against that list here, with the list read from
perfbench as it stands.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dirspace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SRC = Path(dirspace.__file__).resolve().parent


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name", dirspace.__all__)
def test_public_name_resolves(name):
    assert hasattr(dirspace, name)


@pytest.mark.parametrize(
    "module, path",
    [pytest.param(module, path, id=metric) for metric, module, path, _ in _tracer_targets()],
)
def test_traced_target_resolves(module, path):
    owner = importlib.import_module(f"dirspace.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)


def test_cli_import_loads_no_heavy_scipy_modules():
    # the benchmark's setup_s times a fresh `import dirspace.cli`; each of
    # these subpackages costs tens of milliseconds to import
    code = "import sys, dirspace.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    packages = {".".join(name.split(".")[:2]) for name in loaded.split()}
    assert packages & {"scipy.sparse", "scipy.fft", "scipy.signal", "scipy.integrate"} == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_function_level_imports(path):
    # imports sit at module level, so the import graph is read off the headers
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines = [n.lineno for n in ast.walk(func) if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not lines, f"{path.name}: import inside {func.name} at line(s) {lines}"


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda path: path.name
)
def test_module_imports_are_used(path):
    # a name imported at module level and never read is a leftover of a deletion
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


_SYMBOL_STATE = {"params", "kind", "monotone_flag"}


def _writes_symbol_state(target):
    # obj.params = ..., obj.params[...] = ..., obj.params[...][...] = ..., and tuple targets
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_symbol_state(t) for t in target.elts)
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr in _SYMBOL_STATE


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_symbol_state_is_written_only_by_the_constructor(path):
    # SymbolSeq is a value: kind and params are set in __init__ and never
    # written again, by the class itself or by any other module, and the
    # read-only monotone_flag is never assigned
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "SymbolSeq":
            init = next(f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__init__")
            allowed = {id(n) for n in ast.walk(init)}
    bad = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        bad += [node.lineno for t in targets if _writes_symbol_state(t)]
    assert not bad, f"{path.name}: symbol state written at line(s) {bad}"
