"""Consistency of the package's export lists."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import harmstable

# every submodule but the command-line front end is a library module
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(harmstable.__path__) if info.name != "cli"
)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module(f"harmstable.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, missing


def test_package_exports_are_the_union_of_submodule_exports():
    union = {}
    for name in LIBRARY_MODULES:
        module = importlib.import_module(f"harmstable.{name}")
        union.update((attr, getattr(module, attr)) for attr in module.__all__)
    assert len(set(harmstable.__all__)) == len(harmstable.__all__)
    assert set(harmstable.__all__) == set(union)
    for attr, obj in union.items():
        assert getattr(harmstable, attr) is obj, attr


def test_readme_imports_are_exported():
    # every name a README python block imports from the package is public
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    imported = [
        alias.name
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "harmstable"
        for alias in node.names
    ]
    assert imported
    missing = [name for name in imported if name not in harmstable.__all__]
    assert not missing, missing
