"""The demos only use names the package exports, and demo 01 runs."""

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


def test_catalog_demo_runs(capsys):
    demo = DEMOS[0].with_name("01_catalog_families.py")
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert "standard normal" in out and "max|U_tilde + ln f|" in out
