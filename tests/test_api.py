"""Names that code outside the package relies on.

``dirspace.__all__`` is the public API.  ``perfbench/tracer.py`` wraps the
functions listed in its ``TARGETS`` to time each layer; a target that no
longer resolves drops out of the benchmark silently, so a deletion under
``src/`` is checked against that list here, with the list read from
perfbench as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dirspace

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
