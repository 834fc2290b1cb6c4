"""The library never coerces with the builtin `int`: int(2.7) is 2, int(True)
is 1 and int(" 3") is 3, so a call would let a wrong entry through silently.
Integers are taken by a type check instead (`groups._integer`).  The only
exceptions read text that a regular expression has already matched as
ASCII digits.  Naming `int` as a type (an annotation, an isinstance check,
a type comparison) is not a coercion; calling it, or handing it to map,
filter or a key=/type= argument that calls it, is."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"

ALLOWED = {("groups.py", "_int_text"), ("groups.py", "_parse_free_token")}


def _is_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def _coerces(node):
    if not isinstance(node, ast.Call):
        return False
    if _is_int(node.func):
        return True
    if isinstance(node.func, ast.Name) and node.func.id in ("map", "filter"):
        if node.args and _is_int(node.args[0]):
            return True
    return any(kw.arg in ("key", "type", "default_factory") and _is_int(kw.value)
               for kw in node.keywords)


def _int_coercions(path):
    """(function, line) of every call that coerces with the builtin int."""
    tree = ast.parse(path.read_text(), str(path))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _coerces(node):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_library_does_not_coerce_with_int():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    allowed_seen = set()
    for path in modules:
        for function, line in _int_coercions(path):
            assert (path.name, function) in ALLOWED, \
                f"{path.name}:{line} coerces with int in {function}; take integers with groups._integer"
            allowed_seen.add((path.name, function))
    assert allowed_seen == ALLOWED


def test_scan_catches_calls_and_function_values(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text("from typing import Dict\n"
                   "KINDS: Dict[int, str] = {int: 'an integer'}\n"
                   "def f(x: int) -> int:\n"
                   "    if isinstance(x, (int, str)) and type(x) is int:\n"
                   "        return int(x)\n"
                   "    sorted(x, key=int)\n"
                   "    return list(map(int, x))\n")
    assert _int_coercions(src) == [("f", 5), ("f", 6), ("f", 7)]
