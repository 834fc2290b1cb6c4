"""Every public function of `gradedlie.linalg` is called by another module of
the package, and every private function of `linalg` and `sparse` is called
somewhere in the package, so that a function nothing uses does not come
back.  A call is `f(...)` after `from .linalg import f` (or `as g`), or
`linalg.f(...)` after `from . import linalg`, and inside a module `f(...)`
for its own f.  `rank` is the one exception: the package does not call it,
but it is the tests' exact rank oracle and the rank behind a planned
injectivity check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradedlie"

ALLOWED = {"rank"}

KERNELS = ("linalg", "sparse")


def _functions(path):
    tree = ast.parse(path.read_text(), str(path))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _public_functions(path):
    return {name for name in _functions(path) if not name.startswith("_")}


def _calls(path, module):
    """The names of the functions of the package module `module` that the
    module at path calls; at module's own path, every name called bare."""
    tree = ast.parse(path.read_text(), str(path))
    own = path.stem == module
    functions, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == module:
                functions.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module is None:
                modules.update(a.asname or a.name for a in node.names if a.name == module)
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and (own or f.id in functions):
                called.add(functions.get(f.id, f.id))
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
            called |= _calls(path, "linalg")
    return _public_functions(package / "linalg.py") - called


def uncalled_private_functions(package):
    """The private functions of package/linalg.py and package/sparse.py,
    as module.name, that no module of the package calls, their own
    included."""
    out = set()
    for module in KERNELS:
        called = set()
        for path in sorted(package.glob("*.py")):
            called |= _calls(path, module)
        private = {name for name in _functions(package / f"{module}.py") if name.startswith("_")}
        out |= {f"{module}.{name}" for name in private - called}
    return out


def test_every_linalg_entry_point_has_a_caller():
    assert ALLOWED <= _public_functions(PACKAGE / "linalg.py")
    assert uncalled_entry_points(PACKAGE) == ALLOWED


def test_every_private_kernel_function_has_a_caller():
    assert uncalled_private_functions(PACKAGE) == set()


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


def test_scan_finds_private_functions_nothing_calls(tmp_path):
    (tmp_path / "linalg.py").write_text(
        "def _inside(): pass\ndef _dotted(): pass\ndef _imported(): pass\n"
        "def _unused(): pass\ndef _referenced(): pass\n"
        "def public():\n"
        "    _inside()\n"
        "    return _referenced\n")
    (tmp_path / "sparse.py").write_text(
        "def _kernel(): pass\ndef _uncalled(): pass\n")
    (tmp_path / "user.py").write_text(
        "from . import linalg\n"
        "from .sparse import _kernel as k, _uncalled\n"
        "from .linalg import _imported\n"
        "def f():\n"
        "    linalg._dotted()\n"
        "    _imported()\n"
        "    k()\n"
        "    _unused()\n")
    assert uncalled_private_functions(tmp_path) == {
        "linalg._unused", "linalg._referenced", "sparse._uncalled"}
