"""The demos only use names the package exports, and demos 01, 02, 03 and
05 run."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
               .glob("*.py"))


def _equilib_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "equilib":
            for alias in node.names:
                yield node.module, alias.name


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    names = list(_equilib_imports(path))
    assert names, f"{path.name} imports nothing from equilib"
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), \
            f"{path.name}: {module} has no {name}"


# the demos that run in the suite, each with text its output must contain
DEMO_OUTPUT = {
    "01_catalog_families.py": ["standard normal", "max|U_tilde + ln f|"],
    "02_roundtrip_transforms.py": [
        "Poisson lattice causal round trip: mode at x = 2,",
        "Poisson lattice stochastic round trip: mode at x = 2,"],
    "03_maxent_and_diagnostics.py": ["iterations=",
                                     "infeasible target rejected"],
    "05_decompose_samples.py": ["fitted intensity slope"],
}


@pytest.mark.parametrize("name", sorted(DEMO_OUTPUT))
def test_demo_runs(capsys, name):
    runpy.run_path(str(DEMOS[0].with_name(name)), run_name="__main__")
    out = capsys.readouterr().out
    for text in DEMO_OUTPUT[name]:
        assert text in out
