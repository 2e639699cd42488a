"""Every name the benchmark and the panel script import from dais resolves.

The files are parsed, not run, so trimming the package's exports cannot
silently break ``bench/`` or ``scripts/``.  README's sentences on the test
oracles, on the helpers the package does not export and on custom targets
are checked against the package as well (the helper sentence names every
public function or class that a test imports from a package module and
that is not exported), and every package module and
script must use each name it imports and each definition it makes; each
test module and benchmark file must use every name it imports.  A package
definition that only tests use must be one of the named test oracles, and
no oracle is a top-level export.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
MODULES = sorted(path for path in (ROOT / "src" / "dais").glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))
CONSUMERS = BENCH + SCRIPTS
TESTS = sorted((ROOT / "tests").glob("*.py"))


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


def _readme_names(sentence):
    """The backticked names inside the parentheses of README's sentence that matches ``sentence``."""
    text = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    found = re.search(sentence, text)
    assert found, f"README no longer has the sentence {sentence!r}"
    return re.findall(r"`(\w+)`", found.group(1))


def test_readme_test_only_helpers_stay_out_of_the_top_level():
    import dais

    oracles = _readme_names(r"Test oracles, the definitions that only tests call \((.*?)\), live in their modules")
    helpers = _readme_names(r"Helpers and types that the package uses but does not export \((.*?)\) are imported")
    assert sorted(oracles) == sorted(TEST_ORACLES), "README's oracle sentence must name exactly TEST_ORACLES"
    assert not set(oracles) & set(helpers), "README names an oracle among the package's helpers"
    modules = [importlib.import_module(f"dais.{info.name}") for info in pkgutil.iter_modules(dais.__path__)]
    for name in oracles + helpers:
        assert not hasattr(dais, name), f"{name} is exported from the top-level dais package"
        assert any(hasattr(module, name) for module in modules), f"no dais module defines {name}"
    # every public function or class that a test imports from a dais module, and that is neither a
    # top-level export, an oracle nor the CLI's entry point, is a helper the sentence names
    imported = set()
    for module, name in {pair for path in TESTS for pair in _dais_imports(path)}:
        skip = name is None or name.startswith("_") or hasattr(dais, name) or name in TEST_ORACLES
        if module.startswith("dais.") and not skip and (module, name) != ("dais.cli", "main"):
            value = getattr(importlib.import_module(module), name)
            if inspect.isfunction(value) or inspect.isclass(value):
                imported.add(name)
    assert not imported - set(helpers), f"README's helper sentence leaves out {sorted(imported - set(helpers))}"


def _readme_paragraph(opening):
    """README's paragraph that contains ``opening``, on one line."""
    paragraphs = (ROOT / "README.md").read_text(encoding="utf-8").split("\n\n")
    found = [" ".join(p.split()) for p in paragraphs if opening in " ".join(p.split())]
    assert len(found) == 1, f"README has {len(found)} paragraphs with {opening!r}"
    return found[0]


def test_readme_custom_target_sentence_matches_the_interface():
    import dais

    text = _readme_paragraph("Custom targets implement `AnnealedTarget`")
    methods = re.search(r"Custom targets implement `AnnealedTarget` \((.*?)\)", text).group(1)
    assert set(re.findall(r"`(\w+)`", methods)) == dais.AnnealedTarget.__abstractmethods__
    callables = set(re.findall(r"`([a-z_]\w*)\(", text))  # `N(0, sigma_eps)` is notation, not a call
    assert {"blr_target", "noisy_gradient"} <= callables
    for name in callables:
        assert callable(getattr(dais, name, None)), f"README calls {name}, which dais does not export"


@pytest.mark.parametrize("path", MODULES + SCRIPTS + TESTS + BENCH, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    # the repository has no linter; this parse catches an import whose last use was removed
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"{path.name} never uses {sorted(imported - used)}"


def _definitions(tree):
    """Module-level functions and classes, and every method not named as a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            methods = [item.name for item in node.body if isinstance(item, ast.FunctionDef)]
            yield from (name for name in methods if not (name.startswith("__") and name.endswith("__")))


def _referenced(*folders):
    """Each name, attribute and imported name in the files under ``folders``; re-exports in
    ``__init__.py`` are not uses."""
    used = set()
    for folder in folders:
        for path in (ROOT / folder).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    used |= {alias.name.split(".")[-1] for alias in node.names}
    return used


def test_every_definition_is_referenced():
    # the dead-code companion of the import check: a definition in the package
    # or a script (not counted itself) needs one use by name in the package,
    # its tests, the benchmark or the scripts, as a name, an attribute or an
    # imported name
    used = _referenced("src", "tests", "bench", "scripts")
    dead = [f"{path.name}: {name}" for path in MODULES + SCRIPTS
            for name in _definitions(ast.parse(path.read_text(encoding="utf-8"))) if name not in used]
    assert not dead, f"defined but never referenced: {dead}"


# package definitions that only tests call, each an independent oracle for what the program runs
TEST_ORACLES = {
    "blr_grad": "the annealed gradient from the raw data, against the target's sufficient-statistic gradient",
    "expected_bound": "E[L] from Gaussian identities, against sampled bounds and the exact gap",
    "keyed_generator": "a freshly keyed stream per seed, against the reversible chain's re-keyed `seed_noise` draws",
    "stochastic_penalty": "the closed-form noise floor K eta^2 tr(Sigma_eps) / 2, against the noisy sweeps",
}


def test_test_only_definitions_are_the_named_oracles():
    # a public function whose last caller outside the tests is deleted must go with it, or join the oracles
    import dais

    used = _referenced("src", "bench", "scripts")
    test_only = {name for path in MODULES for name in _definitions(ast.parse(path.read_text(encoding="utf-8")))
                 if name not in used}
    assert test_only == set(TEST_ORACLES)
    exported = sorted(name for name in TEST_ORACLES if hasattr(dais, name))
    assert not exported, f"test oracles exported from the top-level dais package: {exported}"
