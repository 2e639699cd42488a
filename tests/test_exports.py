"""Every name the benchmark and the panel script import from dais resolves.

The files are parsed, not run, so trimming the package's exports cannot
silently break ``bench/`` or ``scripts/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
CONSUMERS = sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _dais_imports(path):
    """(module, name) for each ``from dais[.mod] import name``; name None for ``import dais[.mod]``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "dais":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "dais"]
    return found


@pytest.mark.parametrize("path", CONSUMERS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_consumer_imports_resolve(path):
    for module_name, name in _dais_imports(path):
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # a submodule, as ``from dais import cli``
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name} imports {name} from {module_name}, which has no such name")


def test_consumers_import_from_dais():
    # guards the parse: the benchmark and the panel script do import the package
    names = {name for path in CONSUMERS for _, name in _dais_imports(path)}
    assert {"run_sweep", "dais_bound_mc", "reversible_forward", "cli"} <= names
