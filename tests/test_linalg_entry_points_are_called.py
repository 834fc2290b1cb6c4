"""Every public function of `gradedlie.linalg` is called by another module of
the package, so that an entry point nothing uses does not come back.  A call
is `f(...)` after `from .linalg import f` (or `as g`), or `linalg.f(...)`
after `from . import linalg`.  `rank` is the one exception: the package does
not call it, but it is the tests' exact rank oracle and the rank behind a
planned injectivity check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"

ALLOWED = {"rank"}


def _public_functions(path):
    tree = ast.parse(path.read_text(), str(path))
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _linalg_calls(path):
    """The names of the linalg functions that the module at path calls."""
    tree = ast.parse(path.read_text(), str(path))
    functions, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "linalg":
                functions.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module is None:
                modules.update(a.asname or a.name for a in node.names if a.name == "linalg")
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in functions:
                called.add(functions[f.id])
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id in modules):
                called.add(f.attr)
    return called


def uncalled_entry_points(package):
    """The public functions of package/linalg.py that no other module of the
    package calls."""
    called = set()
    for path in sorted(package.glob("*.py")):
        if path.name != "linalg.py":
            called |= _linalg_calls(path)
    return _public_functions(package / "linalg.py") - called


def test_every_linalg_entry_point_has_a_caller():
    assert ALLOWED <= _public_functions(PACKAGE / "linalg.py")
    assert uncalled_entry_points(PACKAGE) == ALLOWED


def test_scan_reads_both_import_forms(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "def direct(): pass\ndef renamed(): pass\ndef dotted(): pass\n"
        "def imported_only(): pass\ndef unused(): pass\ndef _private(): pass\n")
    (tmp_path / "user.py").write_text(
        "from . import linalg\n"
        "from .linalg import direct, imported_only, renamed as other\n"
        "def f():\n"
        "    direct()\n"
        "    other()\n"
        "    linalg.dotted()\n"
        "    x.unused()\n")
    assert uncalled_entry_points(tmp_path) == {"imported_only", "unused"}
