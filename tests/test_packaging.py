"""What ``pip install -e .[test]`` must bring for the suite to run."""

import ast
import re
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"


def _array(text, section, key):
    """The quoted strings of ``key = [...]`` in the TOML table ``[section]``,
    read without tomllib, which arrives only in Python 3.11."""
    table = re.search(rf"^\[{re.escape(section)}\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    assert table, f"pyproject.toml has no [{section}] table"
    array = re.search(rf"^{key}\s*=\s*\[(.*?)\]", table.group(1), re.M | re.S)
    assert array, f"[{section}] has no {key} array"
    return re.findall(r'"([^"]*)"', array.group(1))


def _declared_modules():
    # a requirement's distribution name, which for every dependency here is
    # also its top-level module name
    text = PYPROJECT.read_text(encoding="utf-8")
    reqs = _array(text, "project", "dependencies") + _array(text, "project.optional-dependencies", "test")
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_") for req in reqs}


def test_third_party_test_imports_are_declared():
    local = {"dirspace"} | {path.stem for path in TESTS.glob("*.py")}
    imported = {}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                imported.setdefault(name.split(".")[0], path.name)
    third_party = {top: where for top, where in imported.items() if top not in sys.stdlib_module_names | local}
    undeclared = {top: where for top, where in third_party.items() if top not in _declared_modules()}
    assert not undeclared, f"imported by tests but not in dependencies or the test extra: {undeclared}"


_FAILING_PROPERTY = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(st.integers(0, 10))
def test_fails(x):
    assert x < 0
"""


def test_failing_property_test_shows_its_example(tmp_path):
    # under the suite's warning filters, a failing @given test must print
    # its falsifying example rather than an INTERNALERROR from the plugin
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
