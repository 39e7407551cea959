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
import json
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


_LOADED_SCIPY = """
import json, sys
from dirspace import cli

def loaded():
    return sorted({".".join(name.split(".")[:2]) for name in sys.modules if name.startswith("scipy.")})

steps = {"import": loaded()}
powerlog = {"kind": "powerlog", "alpha": 1.0, "beta": 1.5}
cli.run({"command": "classify", "symbol": powerlog, "kind": "hankel"})
cli.run({"command": "rkt", "symbol": powerlog, "t_grid": [0.5], "n": 64})
steps["widom"] = loaded()
cli.run({"command": "sections", "symbol": powerlog, "n_grid": [16]})
steps["sections"] = loaded()
print(json.dumps(steps))
"""


def test_cli_import_loads_no_heavy_scipy_modules():
    # the benchmark's setup_s times a fresh `import dirspace.cli` plus one job.
    # The package reads scipy.linalg and scipy.special as attributes of
    # `scipy`, whose __getattr__ imports a submodule on first access, so the
    # Widom route (README's classify config, an rkt probe) loads neither; the
    # other subpackages cost tens of milliseconds each and are never needed
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", _LOADED_SCIPY], env=env, capture_output=True, text=True, check=True)
    steps = json.loads(out.stdout)
    never = {"scipy.sparse", "scipy.fft", "scipy.signal", "scipy.integrate"}
    for step in ("import", "widom"):
        assert set(steps[step]) & (never | {"scipy.linalg", "scipy.special"}) == set(), step
    # the first Golub-Kahan-Lanczos solve loads scipy.linalg
    assert "scipy.linalg" in steps["sections"]
    assert set(steps["sections"]) & never == set()


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
