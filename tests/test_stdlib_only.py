"""The library imports nothing outside the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"


def test_library_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        # depth of the module's own package below src/, e.g. 1 for gradedlie/x.py
        depth = len(path.relative_to(PACKAGE.parent).parts) - 1
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            elif isinstance(node, ast.ImportFrom):
                assert node.level <= depth, f"{path.name}:{node.lineno} leaves the package"
                continue
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {top!r}, not in the standard library"
