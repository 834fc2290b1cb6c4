"""The library never divides with `/`: entries stay ints and Fractions, so
no float can enter through a true division."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"


def test_library_has_no_true_division():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                assert not isinstance(node.op, ast.Div), \
                    f"{path.name}:{node.lineno} divides with '/'; use Fraction or //"
