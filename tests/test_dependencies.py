"""The package has no runtime dependencies: every absolute import in
``src/cremona`` names a standard-library module.  Test oracles such as
sympy stay in the tests."""
import ast
import sys
from pathlib import Path

import cremona

PACKAGE = Path(cremona.__file__).parent


def absolute_imports(path: Path) -> set[str]:
    """The top-level names of the modules ``path`` imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {path.name: sorted(absolute_imports(path) - sys.stdlib_module_names)
               for path in modules}
    assert {name: found for name, found in foreign.items() if found} == {}


def test_foreign_imports_are_seen(tmp_path):
    # both import forms are read; relative imports are the package's own
    probe = tmp_path / "probe.py"
    probe.write_text("import os, sympy.core\nfrom numpy import array\nfrom . import poly\n")
    assert absolute_imports(probe) - sys.stdlib_module_names == {"sympy", "numpy"}
