"""Graded Lie algebras presented by homogeneous structure constants.

An algebra is a graded alphabet (alphabet.GradedAlphabet: a finite
homogeneous basis with names and degrees in a group backend) plus a sparse
table of exact rational structure constants stored for i < j only, plus the
same table read in both orders; the diagonal is identically zero.  No other
module reads the stored form.  Validation, the bilinear bracket, the
(graded) center, inner derivations and the graded-Lie-subspace check on
endomorphism spans all live here.  The alphabet's names (GradedAlphabet,
LieAlgebraError and the index and scalar rules) are importable from here
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import compress
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import sparse
from .alphabet import (GradedAlphabet, LieAlgebraError, _check_basis_indices, _check_indices,
                       _coefficient)
from .groups import GroupElement, GroupSpec, _degree_classes, commute
from .linalg import _exact_entry, _integer_row
from .sparse import _accumulate, _sparse_add, _sparse_scale

LieVector = Dict[int, Fraction]


class GradedSpanError(LieAlgebraError):
    """An endomorphism violates its declared degree or block structure."""


class GradedLieAlgebra(GradedAlphabet):
    """Structure-constant presentation of a graded Lie algebra: a graded
    alphabet (its basis) plus brackets.

    brackets maps pairs (i, j) with i < j to the expansion of [e_i, e_j] as
    (k, coefficient) terms; ordered_brackets holds every nonzero ordered
    pair, in row-major order, with the stored terms, negated when i > j.
    A coefficient is an int, a Fraction or a string, never a float or a bool.
    Instances are immutable after construction.
    """

    def __init__(self, group: GroupSpec, degrees: Sequence[GroupElement],
                 brackets: Mapping[Tuple[int, int], Iterable],
                 names: Optional[Sequence[str]] = None):
        super().__init__(group, names, degrees)
        n = self.n
        table: Dict[Tuple[int, int], Tuple[Tuple[int, Fraction], ...]] = {}
        for (i, j), terms in brackets.items():
            _check_indices("bracket pair index", i, j)
            if not (0 <= i < n and 0 <= j < n):
                raise LieAlgebraError(f"bracket pair ({i},{j}) out of range for n={n}")
            if i >= j:
                raise LieAlgebraError(
                    f"bracket pair ({i},{j}) must satisfy i < j; the other order is implied")
            if isinstance(terms, Mapping):
                terms = terms.items()
            acc: Dict[int, Fraction] = {}
            for k, c in terms:
                _check_indices("bracket target index", k)
                if not 0 <= k < n:
                    raise LieAlgebraError(f"bracket target index {k} out of range for n={n}")
                _accumulate(acc, k, _coefficient(c))
            clean = tuple(sorted(acc.items()))
            if clean:
                table[(i, j)] = clean
        self.brackets = table
        ordered = dict(table)
        for (i, j), terms in table.items():
            ordered[(j, i)] = tuple((k, -c) for k, c in terms)
        self.ordered_brackets = dict(sorted(ordered.items()))

    def bracket_basis(self, i: int, j: int) -> List[Tuple[int, Fraction]]:
        """[e_i, e_j] for arbitrary order of i and j; [e_i, e_i] = 0."""
        if type(i) is not int or type(j) is not int:
            _check_indices("basis index", i, j)
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise LieAlgebraError(f"basis index out of range: ({i},{j})")
        return list(self.ordered_brackets.get((i, j), ()))

    @cached_property
    def _support_products(self) -> Dict[Tuple[int, int], Optional[int]]:
        """The ordered pairs (p, q) of distinct degrees, by their positions in
        _degree_index, whose components have a nonzero bracket, sorted; each
        maps to the position of deg_p * deg_q, None if no letter has it."""
        index, position = self._degree_index
        degrees = list(index)
        pairs = sorted({(position[i], position[j]) for i, j in self.ordered_brackets})
        return {(p, q): index.get(degrees[p] * degrees[q]) for p, q in pairs}

    def components(self) -> List[Tuple[GroupElement, List[int]]]:
        """Homogeneous components as (degree, basis indices), in first
        appearance order; equal degrees fold into one component."""
        return _degree_classes(self.degrees)


# -- vectors ------------------------------------------------------------------

def basis_vector(i: int) -> LieVector:
    return {i: Fraction(1)}


def vec_add(x: LieVector, y: LieVector) -> LieVector:
    return _sparse_add(x, y)


def vec_scale(c, x: LieVector) -> LieVector:
    return _sparse_scale(_coefficient(c), x)


def bracket(alg: GradedLieAlgebra, x: Mapping[int, Fraction],
            y: Mapping[int, Fraction]) -> LieVector:
    """Bilinear extension of the basis bracket, read off ordered_brackets.
    Every index of x, then of y, is checked before any product, and a
    coefficient other than an int or a Fraction is read by _coefficient."""
    n = alg.n
    exact = True
    for v in (x, y):
        for i, c in v.items():
            if type(i) is not int or not 0 <= i < n:
                _check_basis_indices(n, i)
            if type(c) is not Fraction and type(c) is not int:
                _coefficient(c)
                exact = False
    if not exact:
        x, y = ({i: _coefficient(c) for i, c in v.items()} for v in (x, y))
    return _bracket(alg.ordered_brackets, x, y)


def _bracket(table: Mapping[Tuple[int, int], Sequence[Tuple[int, Fraction]]],
             x: LieVector, y: LieVector) -> LieVector:
    """bracket by the ordered bracket table, on vectors whose indices are in
    range and whose coefficients are ints or Fractions."""
    out: LieVector = {}
    for i, xi in x.items():
        for j, yj in y.items():
            f = xi * yj
            for k, c in table.get((i, j), ()):
                _accumulate(out, k, f * c)
    return out


# -- validation ---------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass
class ValidationReport:
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]


def validate(alg: GradedLieAlgebra) -> ValidationReport:
    """Check stored-form normalization, grading compatibility and the Jacobi
    identity on every basis triple.  Failures are report entries with a
    concrete witness, never exceptions."""
    checks = [_check_normalization(alg), _check_grading(alg), _check_jacobi(alg)]
    return ValidationReport(checks)


def _check_normalization(alg: GradedLieAlgebra) -> CheckResult:
    for (i, j), terms in alg.brackets.items():
        if not (0 <= i < j < alg.n):
            return CheckResult("normalization", False, f"bad pair ({i},{j})")
        ks = [k for k, _ in terms]
        if ks != sorted(set(ks)):
            return CheckResult("normalization", False, f"unsorted terms at ({i},{j})")
        if any(c == 0 for _, c in terms):
            return CheckResult("normalization", False, f"stored zero coefficient at ({i},{j})")
        if any(not 0 <= k < alg.n for k in ks):
            return CheckResult("normalization", False, f"target out of range at ({i},{j})")
    return CheckResult("normalization", True)


def _check_grading(alg: GradedLieAlgebra) -> CheckResult:
    # [e_i,e_j] != 0 forces deg e_k = (deg e_i)(deg e_j); by antisymmetry the
    # same expansion is -[e_j,e_i], so (deg e_j)(deg e_i) must match too.
    for (i, j), terms in sorted(alg.brackets.items()):
        dij = alg.degree(i) * alg.degree(j)
        dji = alg.degree(j) * alg.degree(i)
        for k, _ in terms:
            if alg.degree(k) != dij:
                return CheckResult(
                    "grading", False,
                    f"deg {alg.name(k)} != deg {alg.name(i)} * deg {alg.name(j)} "
                    f"for bracket ({alg.name(i)},{alg.name(j)})")
            if alg.degree(k) != dji:
                return CheckResult(
                    "grading", False,
                    f"degrees of {alg.name(i)} and {alg.name(j)} do not commute "
                    f"but [{alg.name(i)},{alg.name(j)}] is nonzero")
    return CheckResult("grading", True)


def _check_jacobi(alg: GradedLieAlgebra) -> CheckResult:
    # basis vectors and their brackets need none of bracket's input checks
    table = alg.ordered_brackets
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            for k in range(j + 1, alg.n):
                ei, ej, ek = basis_vector(i), basis_vector(j), basis_vector(k)
                total = vec_add(
                    vec_add(_bracket(table, _bracket(table, ei, ej), ek),
                            _bracket(table, _bracket(table, ej, ek), ei)),
                    _bracket(table, _bracket(table, ek, ei), ej))
                if total:
                    return CheckResult(
                        "jacobi", False,
                        f"({alg.name(i)},{alg.name(j)},{alg.name(k)})")
    return CheckResult("jacobi", True)


# -- center and derivations -----------------------------------------------------

def _ad_kernel(alg: GradedLieAlgebra) -> Tuple[List[int], List[LieVector]]:
    """One elimination of the maps ad e_i, component by component: the
    letters whose maps are kept, in index order, and center's relations.

    Each ad e_i is a sparse integer vector, entry (k, j) keyed k*n + j and
    scaled by the common denominator D of the structure constants, with a
    tag 1 at key n*n + i.  It is reduced on the kept rows of its component
    (in components() order, letters in index order); a map with an entry
    below n*n left is kept.  Otherwise the tags left are a relation
    sum_t x_t ad e_t = 0, divided by the tag at i: the canonical null space
    vector of column i, which holds 1 at i and 0 at every other map not
    kept.  A map is kept iff it is not in the span of the earlier maps,
    and maps of different degrees have disjoint entries, so the kept maps
    are also the greedy independent subset of all of them, in index order."""
    n = alg.n
    tag = n * n
    den = math.lcm(*(c.denominator for terms in alg.brackets.values() for _, c in terms))
    ads: Dict[int, Dict[int, int]] = {}
    for (i, j), terms in alg.ordered_brackets.items():
        ad = ads.setdefault(i, {})
        for k, c in terms:
            ad[k * n + j] = c.numerator * (den // c.denominator)
    kept: List[int] = []
    relations: List[LieVector] = []
    for _, idxs in alg.components():
        basis: list = []
        for i in idxs:
            v = sparse._sparse_reduce(basis, {**ads.get(i, {}), tag + i: 1})
            p = min(v)
            if p < tag:
                basis.append((p, v, i))
                kept.append(i)
            else:
                relations.append({k - tag: Fraction(x, v[tag + i]) for k, x in sorted(v.items())})
    return sorted(kept), relations


def center(alg: GradedLieAlgebra) -> List[LieVector]:
    """Homogeneous basis of {x : [x, L] = 0}: the relations among the maps
    ad e_i found by _ad_kernel, per component, so every returned vector is
    homogeneous.  Per component it is the canonical null space basis of the
    reduced row echelon form of the system [x, e_j] = 0, one vector per map
    in the span of the maps before it, so it depends only on the maps."""
    return _ad_kernel(alg)[1]


@dataclass(frozen=True)
class EndoMatrix:
    """Exact matrix acting on the basis of L, optionally with a declared
    degree d, in which case it must map each component L_g into L_{dg}.
    build takes entries by the structure-coefficient rule of GradedLieAlgebra.
    Both block checks read the entries by _cells."""

    rows: Tuple[Tuple[Fraction, ...], ...]
    degree: Optional[GroupElement] = None
    label: Optional[str] = None

    @staticmethod
    def build(rows: Sequence[Sequence], degree: Optional[GroupElement] = None,
              label: Optional[str] = None) -> "EndoMatrix":
        return EndoMatrix(tuple(tuple(map(_coefficient, row)) for row in rows),
                          degree, label)

    def flatten(self) -> List[Fraction]:
        return [x for row in self.rows for x in row]

    def _cells(self, who: str) -> Dict[int, Fraction]:
        """The nonzero entries, read by the exact-scalar rule and keyed by the
        flat index r*n + c in row-major order.  A refused entry raises naming
        who and its place.  Read after _check_block_shape."""
        n = len(self.rows)
        flat = self.flatten()
        if not set(map(type, flat)) <= {int, Fraction}:
            # reads the other exact scalars, refuses the rest where they stand
            flat = [_exact_entry(x, f"{who} entry ({p // n},{p % n})")
                    for p, x in enumerate(flat)]
        return {p: flat[p] for p in compress(range(n * n), flat)}


def check_block_invariant(alg: GradedLieAlgebra, mat: EndoMatrix) -> None:
    """Raise GradedSpanError unless mat respects its declared degree: every
    nonzero entry (r, c) has deg e_r = mat.degree * deg e_c.  The first entry
    outside its block, in row-major order, is the one named.  Entries are
    read by the exact-scalar rule, as is_graded_lie_subspace reads them."""
    who = mat.label or "matrix"
    _check_block_shape(alg, mat, who)
    _check_block_entries(alg, mat, who, mat._cells(who), {})


def _check_block_shape(alg: GradedLieAlgebra, mat: EndoMatrix, who: str) -> None:
    """Raise GradedSpanError, naming mat as who, unless it has a declared
    degree in the algebra's group and n x n entries."""
    if mat.degree is None:
        raise GradedSpanError(f"{who} has no declared degree")
    if not isinstance(mat.degree, GroupElement) or mat.degree.spec != alg.group:
        raise GradedSpanError(f"{who} has a declared degree that is not an element of the "
                              "algebra's group")
    if len(mat.rows) != alg.n or any(len(r) != alg.n for r in mat.rows):
        raise GradedSpanError(f"{who} is not {alg.n}x{alg.n}")


def _check_block_entries(alg: GradedLieAlgebra, mat: EndoMatrix, who: str,
                         cells: Mapping[int, Fraction],
                         wants: Dict[GroupElement, List[int]]) -> None:
    """Raise GradedSpanError at the first of the cells r*n + c, the nonzero
    entries of mat in row-major order as _cells keys them, with
    deg e_r != mat.degree * deg e_c.
    The product is formed once per distinct column degree and compared by
    its position among the distinct degrees (-1 outside them); that row is
    kept in wants under mat.degree, for the other matrices of one call."""
    if not cells:
        return
    n = alg.n
    index, position = alg._degree_index
    want = wants.get(mat.degree)
    if want is None:
        want = wants[mat.degree] = [index.get(mat.degree * d, -1) for d in index]
    for p in cells:
        r, c = divmod(p, n)
        if position[r] != want[position[c]]:
            raise GradedSpanError(f"{who} has entry ({r},{c}) outside its degree block")


def inner_derivations(alg: GradedLieAlgebra) -> List[EndoMatrix]:
    """The adjoint maps ad e_i with declared degree deg e_i, thinned to a
    linearly independent set.  Column j of ad e_i holds [e_i, e_j], read off
    ordered_brackets; the maps that vanish (no nonzero bracket) are left out.

    The maps are kept greedily in index order, as _ad_kernel keeps them: a
    map is kept iff it is not in the span of the maps before it.  Only the
    kept maps are made dense."""
    n = alg.n
    zero = Fraction(0)
    dense = {i: [[zero] * n for _ in range(n)] for i in _ad_kernel(alg)[0]}
    for (i, j), terms in alg.ordered_brackets.items():
        rows = dense.get(i)
        if rows:
            for k, c in terms:
                rows[k][j] = c
    return [EndoMatrix(tuple(map(tuple, rows)), alg.degree(i), f"ad {alg.name(i)}")
            for i, rows in dense.items()]


@dataclass
class GradedSpanReport:
    ok: bool
    witness: Optional[Tuple[int, int]] = None
    reason: Optional[str] = None

    def witness_labels(self, mats: Sequence[EndoMatrix]) -> Optional[Tuple[str, str]]:
        if self.witness is None:
            return None
        i, j = self.witness
        return (mats[i].label or f"mats[{i}]", mats[j].label or f"mats[{j}]")


def is_graded_lie_subspace(alg: GradedLieAlgebra,
                           mats: Sequence[EndoMatrix]) -> GradedSpanReport:
    """Decide whether the span of the given homogeneous endomorphisms is a
    graded Lie algebra under the commutator.

    For each pair: if the declared degrees do not commute the commutator must
    vanish; otherwise a nonzero commutator must lie in the span of the listed
    matrices of the product degree.  The first offending pair is the witness.
    Every matrix passes check_block_invariant first, read on its nonzero
    entries, with the positions it wants formed once per distinct declared
    degree; an unlabelled matrix is named mats[i] in a refusal, as
    witness_labels names it.  Each matrix is scaled to integers once (its
    nonzero entries times the lcm of their denominators), which changes
    neither answer, and held as sparse rows; a commutator is a sparse
    product, keyed by the flat index r*n + c.  The commute test and the
    product of two declared degrees are formed once per pair of distinct
    degrees, when a nonzero commutator first meets it.  The matrices of one degree are brought to a
    sparse echelon basis once per call, when a commutator first lands at
    that degree, and a commutator is in their span iff reducing it by that
    basis leaves nothing.
    """
    n = alg.n
    flats, ints = [], []
    wants: Dict[GroupElement, List[int]] = {}
    for i, mat in enumerate(mats):
        who = mat.label or f"mats[{i}]"
        _check_block_shape(alg, mat, who)
        cells = mat._cells(who)
        _check_block_entries(alg, mat, who, cells, wants)
        nonzero = dict(zip(cells, _integer_row(list(cells.values()))))
        rows: List[Dict[int, int]] = [{} for _ in range(n)]
        for p, x in nonzero.items():
            rows[p // n][p % n] = x
        flats.append(nonzero)
        ints.append(rows)
    classes = _degree_classes([m.degree for m in mats])
    where = {d: t for t, (d, _) in enumerate(classes)}
    cls = [where[m.degree] for m in mats]
    # unordered pair of degree classes -> class of their product (-1 if no
    # matrix has it), or None if the degrees do not commute
    targets: Dict[Tuple[int, int], Optional[int]] = {}
    bases: Dict[int, list] = {}
    for i1 in range(len(mats)):
        for i2 in range(i1 + 1, len(mats)):
            comm: Dict[int, int] = {}
            for a, b, sign in ((ints[i1], ints[i2], 1), (ints[i2], ints[i1], -1)):
                for r, row in enumerate(a):
                    at = r * n
                    for k, x in row.items():
                        x *= sign
                        for c, y in b[k].items():
                            comm[at + c] = comm.get(at + c, 0) + x * y
            comm = {p: x for p, x in comm.items() if x}
            if not comm:
                continue
            lo, hi = sorted((cls[i1], cls[i2]))
            if (lo, hi) not in targets:
                d, e = classes[lo][0], classes[hi][0]
                # commuting degrees have one product in either order
                targets[lo, hi] = where.get(d * e, -1) if lo == hi or commute(d, e) else None
            target = targets[lo, hi]
            if target is None:
                return GradedSpanReport(
                    False, (i1, i2),
                    "degrees do not commute but the commutator is nonzero")
            basis = bases.get(target)
            if basis is None:
                pool = [flats[i] for i in classes[target][1]] if target >= 0 else []
                basis = bases[target] = sparse._sparse_echelon(pool)
            if sparse._sparse_reduce(basis, comm):
                return GradedSpanReport(
                    False, (i1, i2),
                    "commutator escapes the span at the product degree")
    return GradedSpanReport(True)
