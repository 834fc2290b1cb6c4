"""The integer rule (an int or an int subclass, never a bool) is spelled
once, in `groups._is_integer`; every other module calls it.  A module that
asks `isinstance(x, bool)` itself writes a second copy of the rule."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"

OWNER = "groups.py"


def _names_bool(node):
    if isinstance(node, ast.Tuple):
        return any(_names_bool(elt) for elt in node.elts)
    return isinstance(node, ast.Name) and node.id == "bool"


def _bool_checks(path):
    """Line of every isinstance(<x>, bool) call, bool alone or in a tuple."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2
            and _names_bool(node.args[1])]


def test_only_groups_spells_the_integer_rule():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / OWNER in modules
    for path in modules:
        if path.name != OWNER:
            assert not _bool_checks(path), \
                f"{path.name}:{_bool_checks(path)} checks for bool; use groups._is_integer"
    assert _bool_checks(PACKAGE / OWNER)


def test_scan_catches_bool_checks_only(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("def f(x, flag: bool) -> bool:\n"
                   "    a = isinstance(x, int)\n"
                   "    b = isinstance(x, bool)\n"
                   "    c = isinstance(x, (int, bool))\n"
                   "    return type(x) is bool or bool(a) or isinstance(flag, str)\n")
    assert _bool_checks(src) == [3, 4]
