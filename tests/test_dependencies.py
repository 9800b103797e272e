"""The package depends on numpy and the standard library alone, and its
modules share only the private names listed here."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "falsecall"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
MODULES = {source.stem for source in PACKAGE.glob("*.py")}
#: The private names one package module takes from another.  A name leaves
#: this list when it becomes public or stops crossing a module boundary.
SHARED_PRIVATE = {"_atomic_output", "_json_safe", "_shown", "_knn_vote_table"}


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


def test_private_names_cross_modules_only_where_listed():
    crossings = set()
    for source in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            for alias in node.names:
                if node.module is None and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    crossings.add((alias.name, source.name))
        crossings |= {(node.attr, source.name) for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules and node.attr.startswith("_")}
    assert {name for name, _ in crossings} == SHARED_PRIVATE, sorted(crossings)


def test_import_starts_no_process_machinery():
    # run_multi_seed imports its pool lazily; importing the package stays cheap.
    probe = ("import sys, falsecall.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True)
    assert done.stdout.strip() == "[]"
