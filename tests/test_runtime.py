"""The runtime stays stdlib-only: every absolute import in the package
names a standard-library module."""

import ast
import sys
from pathlib import Path

import macrobox

PACKAGE = Path(macrobox.__file__).parent


def _absolute_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {f"{path.name}: {name}" for path in sources
               for name in _absolute_imports(path) - sys.stdlib_module_names}
    assert not foreign


def test_guard_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nfrom numpy.linalg import eigvalsh\nfrom . import boxes\n")
    assert _absolute_imports(probe) - sys.stdlib_module_names == {"numpy"}
