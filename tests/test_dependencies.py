"""The package depends on numpy and the standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "falsecall"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def test_every_import_is_relative_numpy_or_standard_library():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{source.name}: {module}" for module in modules
                        if module.split(".")[0] not in ALLOWED]
    assert outside == []
