"""Algebra definition files and friends.

An algebra file is JSON with top-level keys ``group``, ``basis`` and
``brackets`` (plus optional ``name``/``description``): the group block picks
a backend, each basis entry carries a name and a degree literal, and each
bracket entry gives 0-based indices i < j with exact coefficients: JSON
integers or rational strings, never floats.  Matrix-span files and
relabeling files for coarsening checks use the same literal conventions.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .groups import GroupElement, GroupError, GroupSpec, _is_integer
from .liealg import (EndoMatrix, GradedLieAlgebra, LieAlgebraError, ValidationReport,
                     _coefficient, validate)


class AlgebraFileError(ValueError):
    """A file is missing, malformed, or violates the schema."""

    def __init__(self, path, message: str):
        super().__init__(f"{path}: {message}")
        self.path = str(path)
        self.message = message


class ValidationFailure(AlgebraFileError):
    """The file parsed but the algebra fails validation."""

    def __init__(self, path, report: ValidationReport):
        details = "; ".join(f"{c.name}: {c.witness}" for c in report.failures())
        super().__init__(path, f"algebra fails validation ({details})")
        self.report = report


def _load_json(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise AlgebraFileError(path, "file not found")
    try:
        obj = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(path, f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise AlgebraFileError(path, "top level must be an object")
    return obj


def _require(obj: dict, key: str, path, where: str = "top level"):
    if key not in obj:
        raise AlgebraFileError(path, f"missing key {key!r} at {where}")
    return obj[key]


_JSON_KINDS = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, path, where: str):
    """value, if it is a JSON integer, string, list or object as kind asks;
    an integer follows groups._is_integer, so JSON true or false is not."""
    if not (_is_integer(value) if kind is int else isinstance(value, kind)):
        raise AlgebraFileError(path, f"{where} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def _typed_list(value, kind: type, path, where: str) -> list:
    """value, if it is a JSON list whose entries are all of the given kind."""
    return [_typed(x, kind, path, f"{where}[{pos}]")
            for pos, x in enumerate(_typed(value, list, path, where))]


def load_group_spec(obj: dict, path="<inline>") -> GroupSpec:
    _typed(obj, dict, path, "group block")
    kind = _require(obj, "kind", path, "group block")
    try:
        if kind == "finite":
            table = _typed_list(_require(obj, "table", path, "group block"), list, path,
                                "group.table")
            names = obj.get("names")
            return GroupSpec.finite(
                [_typed_list(row, int, path, f"group.table[{r}]") for r, row in enumerate(table)],
                None if names is None else _typed_list(names, str, path, "group.names"))
        if kind == "free":
            return GroupSpec.free(_group_rank(obj, path))
        if kind == "free_abelian":
            return GroupSpec.free_abelian(_group_rank(obj, path))
        if kind == "free_product_cyclic":
            return GroupSpec.free_product_cyclic(_typed_list(
                _require(obj, "orders", path, "group block"), int, path, "group.orders"))
    except GroupError as exc:
        raise AlgebraFileError(path, f"bad group block: {exc}") from None
    raise AlgebraFileError(path, f"unknown group kind {kind!r}")


def _group_rank(obj: dict, path) -> int:
    return _typed(_require(obj, "rank", path, "group block"), int, path, "group block rank")


def load_algebra(path) -> GradedLieAlgebra:
    """Parse an algebra file without validating the Lie/grading axioms;
    coefficients go through liealg._coefficient, so a float is refused."""
    obj = _load_json(path)
    group = load_group_spec(_require(obj, "group", path), path)

    basis = _typed(_require(obj, "basis", path), list, path, "basis")
    names: List[str] = []
    degrees: List[GroupElement] = []
    for pos, entry in enumerate(basis):
        where = f"basis[{pos}]"
        _typed(entry, dict, path, where)
        name = _typed(_require(entry, "name", path, where), str, path, f"{where}.name")
        # a word renders as its letters' names joined by spaces, and
        # parse_word splits on whitespace and reads a leading "[" as indices
        if name.split() != [name] or name.startswith("["):
            raise AlgebraFileError(path, f"{where}.name must be non-empty, without "
                                         f"whitespace and not start with '[', got {name!r}")
        names.append(name)
        try:
            degrees.append(group.parse(_require(entry, "degree", path, where)))
        except GroupError as exc:
            raise AlgebraFileError(path, f"{where}: {exc}") from None
    if len(set(names)) != len(names):
        raise AlgebraFileError(path, "basis names are not distinct")

    brackets: Dict[Tuple[int, int], List[Tuple[int, Fraction]]] = {}
    for pos, entry in enumerate(_typed(obj.get("brackets", []), list, path, "brackets")):
        where = f"brackets[{pos}]"
        _typed(entry, dict, path, where)
        i = _typed(_require(entry, "i", path, where), int, path, f"{where}.i")
        j = _typed(_require(entry, "j", path, where), int, path, f"{where}.j")
        if (i, j) in brackets:
            raise AlgebraFileError(path, f"{where}: duplicate pair ({i},{j})")
        terms = []
        raw_terms = _typed(_require(entry, "terms", path, where), list, path, f"{where}.terms")
        for tpos, term in enumerate(raw_terms):
            twhere = f"{where}.terms[{tpos}]"
            _typed(term, dict, path, twhere)
            k = _typed(_require(term, "k", path, twhere), int, path, f"{twhere}.k")
            raw = _require(term, "coeff", path, twhere)
            try:
                terms.append((k, _coefficient(raw)))
            except LieAlgebraError as exc:
                raise AlgebraFileError(path, f"{twhere}: bad coefficient {raw!r}: {exc}") from None
        brackets[(i, j)] = terms

    try:
        return GradedLieAlgebra(group, degrees, brackets, names)
    except ValueError as exc:
        raise AlgebraFileError(path, str(exc)) from None


def parse_algebra(path) -> GradedLieAlgebra:
    """Parse and validate; raises ValidationFailure with the full report if
    the data is not a graded Lie algebra."""
    alg = load_algebra(path)
    report = validate(alg)
    if not report.passed:
        raise ValidationFailure(path, report)
    return alg


def parse_word(alg: GradedLieAlgebra, text: Union[str, list]) -> Tuple[int, ...]:
    """A word is an index list like "[2,0,1]" (of groups._is_integer
    entries) or space-separated basis names like "f h e"."""
    if isinstance(text, str):
        text = text.strip()
    if isinstance(text, str) and not text.startswith("["):
        tokens = []
        for name in text.split():
            if name not in alg.names:
                raise AlgebraFileError("<word>", f"unknown basis name {name!r}")
            tokens.append(alg.names.index(name))
    else:
        try:
            tokens = json.loads(text) if isinstance(text, str) else text
        except json.JSONDecodeError:
            tokens = None
        if not isinstance(tokens, list) or not all(map(_is_integer, tokens)):
            raise AlgebraFileError("<word>", f"bad index list {text!r}")
    for i in tokens:
        if not 0 <= i < alg.n:
            raise AlgebraFileError("<word>", f"basis index {i} out of range")
    return tuple(tokens)


def load_mats(path, alg: GradedLieAlgebra) -> List[EndoMatrix]:
    """Matrix-span file: {"mats": [{"label", "degree", "rows"}, ...]} with
    degrees in the algebra's group and entries read by EndoMatrix.build
    (coefficients: JSON integers or rational strings, never floats)."""
    obj = _load_json(path)
    mats = []
    seen: Dict[str, int] = {}
    for pos, entry in enumerate(_typed(_require(obj, "mats", path), list, path, "mats")):
        where = f"mats[{pos}]"
        _typed(entry, dict, path, where)
        label = _typed(entry.get("label", f"m{pos}"), str, path, f"{where}.label")
        if label in seen:
            raise AlgebraFileError(path, f"{where}.label {label!r} repeats mats[{seen[label]}]")
        seen[label] = pos
        try:
            degree = alg.group.parse(_require(entry, "degree", path, where))
        except GroupError as exc:
            raise AlgebraFileError(path, f"{where}: {exc}") from None
        rows = _typed_list(_require(entry, "rows", path, where), list, path, f"{where}.rows")
        try:
            mat = EndoMatrix.build(rows, degree, label)
        except LieAlgebraError as exc:
            raise AlgebraFileError(path, f"{where}: bad matrix entry: {exc}") from None
        if len(mat.rows) != alg.n or any(len(r) != alg.n for r in mat.rows):
            raise AlgebraFileError(path, f"{where}: matrix is not {alg.n}x{alg.n}")
        mats.append(mat)
    return mats


def load_relabel(path, alg: GradedLieAlgebra) -> Dict[GroupElement, GroupElement]:
    """Relabel file: {"group": <coarse group block>, "map": [{"from": <fine
    literal>, "to": <coarse literal>}, ...]}."""
    obj = _load_json(path)
    coarse = load_group_spec(_require(obj, "group", path), path)
    mapping: Dict[GroupElement, GroupElement] = {}
    degrees = set(alg.degrees)
    for pos, entry in enumerate(_typed(_require(obj, "map", path), list, path, "map")):
        where = f"map[{pos}]"
        _typed(entry, dict, path, where)
        try:
            fine = alg.group.parse(_require(entry, "from", path, where))
            to = coarse.parse(_require(entry, "to", path, where))
        except GroupError as exc:
            raise AlgebraFileError(path, f"{where}: {exc}") from None
        if fine in mapping:
            raise AlgebraFileError(path, f"{where}: duplicate fine degree "
                                         f"{alg.group.format(fine)}")
        if fine not in degrees:
            raise AlgebraFileError(path, f"{where}: fine degree {alg.group.format(fine)} "
                                         "is not a degree of the algebra")
        mapping[fine] = to
    return mapping
