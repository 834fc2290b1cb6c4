"""Only liealg reads the stored bracket table `brackets`, which holds the
pairs i < j; every other module reads `ordered_brackets`, which holds both
orders.  So the i < j storage, and the sign that gives the other order, are
known in one module."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"

OWNER = "liealg.py"


def _bracket_reads(path):
    """Line of every `.brackets` attribute in the module."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "brackets"]


def test_only_liealg_reads_the_stored_brackets():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / OWNER in modules
    for path in modules:
        if path.name != OWNER:
            assert not _bracket_reads(path), \
                f"{path.name}:{_bracket_reads(path)} reads .brackets; read ordered_brackets"
    assert _bracket_reads(PACKAGE / OWNER)


def test_scan_catches_attribute_reads_only(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def f(alg, brackets):\n"
                   "    x = alg.ordered_brackets.get((0, 1))\n"
                   "    y = alg.brackets.get((0, 1))\n"
                   "    return sorted(p for p in getattr(alg, 'x').brackets), brackets\n")
    assert _bracket_reads(src) == [3, 4]
