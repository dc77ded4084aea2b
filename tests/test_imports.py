"""The import graph README's layout table describes, checked at runtime:
each module is imported alone in a fresh interpreter, and the `singvc.*`
modules that import loads are exactly the module and what it imports."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import singvc

# the directory holding the `singvc` package this process imports
ROOT = str(Path(singvc.__file__).resolve().parent.parent)

CHILD = """\
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2])
print(json.dumps({"file": sys.modules["singvc"].__file__,
                  "loaded": sorted(m[len("singvc."):] for m in sys.modules if m.startswith("singvc."))}))
"""

GRAPH = {
    "singvc": set(),
    "singvc.errors": {"errors"},
    "singvc.metrics": {"errors", "metrics"},
    "singvc.featio": {"errors", "featio"},
    "singvc.tensor": {"errors", "tensor"},
    "singvc.features": {"errors", "rng", "features"},
}


def loaded_by(name: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD, ROOT, name],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


class TestImportGraph:
    @pytest.mark.parametrize("name", sorted(GRAPH))
    def test_module_loads_only_what_it_imports(self, name):
        child = loaded_by(name)
        assert Path(child["file"]).resolve() == Path(singvc.__file__).resolve()
        assert set(child["loaded"]) == GRAPH[name]
