"""Support, universal grading group presentation, abelianization, and
coarsening checks.

The universal grading group is generated by the support with one relation
s1*s2 = s3 per ordered support pair whose components bracket nonzero.  Only
its abelianization is decided here, from the integer Smith form of the
distinct relation columns; the group itself is emitted as a presentation and
nothing more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .groups import GroupElement, _degree_classes
from .liealg import GradedLieAlgebra, LieAlgebraError
from .linalg import row_hnf, smith_normal_form


class CoarseningError(ValueError):
    """The relabeling is not a total map from the support to group elements."""


def support(alg: GradedLieAlgebra) -> List[GroupElement]:
    """Deduplicated basis degrees, in first-appearance order."""
    return list(alg._degree_index[0])


@dataclass
class Presentation:
    """Generators labeled by support normal forms, each label once;
    relations are label triples (s1, s2, s3) meaning s1*s2 = s3."""

    generators: List[str]
    relations: List[Tuple[str, str, str]]


def universal_presentation(alg: GradedLieAlgebra) -> Presentation:
    """One relation per ordered pair (s1, s2) of support degrees whose
    components have a nonzero bracket, in the order of the support; both
    orders of a pair appear, and a pair of components with many nonzero
    brackets gives one relation.

    The pairs and their products are the algebra's _support_products, read
    off ordered_brackets once per algebra; only the labels are formed here."""
    supp = support(alg)
    labels = [alg.group.format(deg) for deg in supp]
    relations: List[Tuple[str, str, str]] = []
    for (a, b), p in alg._support_products.items():
        if p is None:
            raise LieAlgebraError(
                f"bracket lands outside the support at degree "
                f"{alg.group.format(supp[a] * supp[b])}; validate the algebra first")
        relations.append((labels[a], labels[b], labels[p]))
    return Presentation(labels, relations)


@dataclass
class AbelianizationData:
    """The abelianized universal group as Z^free_rank x prod Z/d_i, with the
    image of each generator as free coordinates followed by torsion
    coordinates (each reduced into [0, d_i))."""

    generators: List[str]
    free_rank: int
    invariant_factors: List[int]
    images: List[Tuple[int, ...]]

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.invariant_factors)
        return " x ".join(parts) if parts else "1"

    def image_of(self, label: str) -> Tuple[int, ...]:
        try:
            return self.images[self.generators.index(label)]
        except ValueError:
            raise LieAlgebraError(f"no generator {label!r}") from None


def abelianize(pres: Presentation) -> AbelianizationData:
    """Write each relation additively as the column s1 + s2 - s3, take the
    Smith form of the distinct relation columns, in order of first
    appearance, and read off the invariant factors and the generator images.
    A repeated column spans nothing new, so the relation lattice, the group
    and the free coordinates are those of all the columns; the torsion
    coordinates are a choice of basis, read off U, which depends on the
    column order.  The free block of the images is Hermite-normalized so
    equal inputs give identical output.  Every relation is checked on the
    images afterwards.  A repeated generator label, a relation that is not a
    triple and a relation with an unknown label raise LieAlgebraError naming
    the label or the relation, before any elimination."""
    gens = pres.generators
    s = len(gens)
    pos = {g: p for p, g in enumerate(gens)}
    if len(pos) < s:
        repeated = next(g for p, g in enumerate(gens) if pos[g] != p)
        raise LieAlgebraError(f"generator {repeated!r} is listed more than once")
    # relation r is the column e_a + e_b - e_c: e_b if c = a, e_a if c = b,
    # else keyed by (a, b, c) with a <= b.  A repeated column spans nothing
    # new, so each distinct one is kept once, in order of first appearance.
    columns: Dict[Tuple[int, ...], None] = {}
    for r, rel in enumerate(pres.relations):
        if not isinstance(rel, (tuple, list)) or len(rel) != 3:
            raise LieAlgebraError(f"relation {r} is not a triple of generator labels: {rel!r}")
        try:
            a, b, c = pos[rel[0]], pos[rel[1]], pos[rel[2]]
        except KeyError as exc:
            raise LieAlgebraError(
                f"relation {r} uses unknown generator {exc.args[0]!r}") from None
        if c == a:
            columns[(b,)] = None
        elif c == b:
            columns[(a,)] = None
        else:
            columns[(a, b, c) if a <= b else (b, a, c)] = None
    # N[gen][column]
    N = [[0] * len(columns) for _ in range(s)]
    for k, col in enumerate(columns):
        if len(col) == 1:
            N[col[0]][k] = 1
        else:
            a, b, c = col
            N[a][k] += 1
            N[b][k] += 1
            N[c][k] = -1

    snf = smith_normal_form(N)
    nonzero = [d for d in snf.diag if d != 0]
    rank = len(nonzero)
    factors = [d for d in nonzero if d >= 2]
    free_rank = s - rank

    # row i of U is the i-th coordinate functional on the quotient
    torsion_rows = [i for i in range(rank) if snf.diag[i] >= 2]
    free_block = [snf.U[i] for i in range(rank, s)]
    free_block = row_hnf(free_block) if free_block else []

    images = []
    for j in range(s):
        free_coords = tuple(free_block[i][j] for i in range(free_rank))
        tors_coords = tuple(snf.U[i][j] % snf.diag[i] for i in torsion_rows)
        images.append(free_coords + tors_coords)

    data = AbelianizationData(list(gens), free_rank, factors, images)
    _check_images(pres, data)
    return data


def _check_images(pres: Presentation, data: AbelianizationData) -> None:
    # every relation must hold additively on the reported images
    image = dict(zip(data.generators, data.images))
    r = data.free_rank
    for s1, s2, s3 in pres.relations:
        a, b, c = image[s1], image[s2], image[s3]
        for t in range(r):
            if a[t] + b[t] - c[t] != 0:
                raise ArithmeticError(
                    f"abelianization postcondition failed on relation {s1}*{s2}={s3}")
        for t, d in enumerate(data.invariant_factors):
            if (a[r + t] + b[r + t] - c[r + t]) % d != 0:
                raise ArithmeticError(
                    f"abelianization postcondition failed on relation {s1}*{s2}={s3}")


def image_collisions(data: AbelianizationData) -> List[Tuple[str, str]]:
    """Pairs of generators whose abelianized images coincide."""
    out = []
    for i in range(len(data.generators)):
        for j in range(i + 1, len(data.generators)):
            if data.images[i] == data.images[j]:
                out.append((data.generators[i], data.generators[j]))
    return out


@dataclass
class AbelianVerdict:
    is_abelian: bool
    data: AbelianizationData
    collisions: List[Tuple[str, str]]


def is_abelian_presentation(pres: Presentation) -> AbelianVerdict:
    """Raw-presentation entry point: the abelianization realizes the labels
    iff no two generator images coalesce."""
    data = abelianize(pres)
    collisions = image_collisions(data)
    return AbelianVerdict(not collisions, data, collisions)


def is_abelian_grading(alg: GradedLieAlgebra) -> AbelianVerdict:
    """True iff the support keeps pairwise-distinct images in the
    abelianized universal group, i.e. no homogeneous components coalesce."""
    return is_abelian_presentation(universal_presentation(alg))


# -- coarsenings ---------------------------------------------------------------

@dataclass
class Coarsening:
    """A surjective relabeling of the fine support onto coarse degrees, with
    the induced component merges."""

    support_map: List[Tuple[GroupElement, GroupElement]]  # fine degree -> coarse
    merges: List[Tuple[GroupElement, List[GroupElement]]]  # coarse degree -> fine degrees


@dataclass
class CoarseningReport:
    ok: bool
    coarsening: Optional[Coarsening] = None
    witness: Optional[Tuple[int, int]] = None
    reason: Optional[str] = None


def coarsening_check(alg: GradedLieAlgebra,
                     relabel: Mapping[GroupElement, GroupElement]) -> CoarseningReport:
    """Verify that merging components along the relabeling yields a valid
    grading: for every nonzero basis bracket the coarse labels must satisfy
    p(deg e_i) * p(deg e_j) = p(deg e_i * deg e_j).  A relabeling that is
    not total or has a label that is not a group element raises
    CoarseningError, and a bracket whose degree product the relabeling does
    not cover (a product outside the support, so an algebra that does not
    validate) LieAlgebraError; compatibility failures are reported with the
    offending pair.

    Each ordered pair of support degrees whose components bracket nonzero
    (the keys of _support_products) is checked once, with one coarse
    product.  The bracket pairs are the keys of ordered_brackets, which are
    exactly the nonzero ordered pairs in row-major order, and the witness is
    the first of them whose pair of degrees fails."""
    supp = support(alg)
    for deg in supp:
        if deg not in relabel:
            raise CoarseningError(
                f"relabeling misses support degree {alg.group.format(deg)}")
        if not isinstance(relabel[deg], GroupElement):
            raise CoarseningError(f"coarse label of {alg.group.format(deg)} is not a group "
                                  f"element: {relabel[deg]!r}")
    coarse = [relabel[deg] for deg in supp]
    if len({c.spec for c in coarse}) > 1:
        raise CoarseningError("coarse labels live in different groups")

    # pair of support positions -> None if its product is outside the
    # relabeling, else the two sides of the failing equation
    failures: Dict[Tuple[int, int], Optional[Tuple[GroupElement, GroupElement]]] = {}
    for (p, q), k in alg._support_products.items():
        if k is None:
            # outside the support; a relabeling may still name it
            try:
                rhs = relabel[supp[p] * supp[q]]
            except KeyError:
                failures[p, q] = None
                continue
        else:
            rhs = coarse[k]
        lhs = coarse[p] * coarse[q]
        if lhs != rhs:
            failures[p, q] = (lhs, rhs)
    if failures:
        position = alg._degree_index[1]
        i, j = next((i, j) for i, j in alg.ordered_brackets
                    if (position[i], position[j]) in failures)
        p, q = position[i], position[j]
        if failures[p, q] is None:
            raise LieAlgebraError(
                f"bracket lands outside the support at degree "
                f"{alg.group.format(supp[p] * supp[q])}; validate the algebra first")
        lhs, rhs = failures[p, q]
        spec = lhs.spec
        return CoarseningReport(
            False, witness=(i, j),
            reason=f"bracket ({alg.name(i)},{alg.name(j)}) needs "
                   f"{spec.format(lhs)} = {spec.format(rhs)}")

    merges = [(label, [supp[p] for p in fines]) for label, fines in _degree_classes(coarse)]
    return CoarseningReport(True, Coarsening(list(zip(supp, coarse)), merges))
