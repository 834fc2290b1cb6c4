"""Pins of the abelianized universal group on three gradings with torsion.

Torsion coordinates are a choice of basis in the torsion part, read off the
rows of Smith's U, so they depend on the order in which the relation columns
reach the Smith form.  These pins hold the images on three gradings of the
kind studied in Elduque & Kochetov, Gradings on Simple Lie Algebras (AMS
2013): the Pauli grading of sl2 by Z/2 x Z/2, the Pauli grading of
gl4 = M2 (x) M2 by (Z/2)^4, and the Cartan grading of sl4 coarsened to Z/6
by deg E_ij = i - j mod 6."""

import itertools

import pytest
from test_linalg import _matrix_lie_algebra

from gradedlie.groups import GroupSpec
from gradedlie.liealg import GradedLieAlgebra
from gradedlie.unigroup import is_abelian_grading, universal_presentation

# the Pauli matrices over Q, keyed by their degree in Z/2 x Z/2; each is a
# signed permutation matrix, and a product of two is +- the one of the sum
PAULI = {(0, 0): ((1, 0), (0, 1)), (1, 0): ((1, 0), (0, -1)),
         (0, 1): ((0, 1), (1, 0)), (1, 1): ((0, 1), (-1, 0))}


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _kron(a, b):
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def _elementary_abelian_2(rank):
    """(Z/2)^rank as a Cayley table, and the index of each bit vector."""
    elems = list(itertools.product((0, 1), repeat=rank))
    index = {e: k for k, e in enumerate(elems)}
    table = [[index[tuple(x ^ y for x, y in zip(a, b))] for b in elems] for a in elems]
    return GroupSpec.finite(table), index


def pauli(factors, traceless):
    """gl or sl of size 2^factors on the tensor products of Pauli matrices,
    graded by (Z/2)^(2 factors)."""
    group, index = _elementary_abelian_2(2 * factors)
    basis = {}
    for parts in itertools.product(sorted(PAULI), repeat=factors):
        deg = sum(parts, ())
        if traceless and not any(deg):
            continue
        mat = ((1,),)
        for p in parts:
            mat = _kron(mat, PAULI[p])
        basis[deg] = mat
    degs = list(basis)
    brackets = {}
    for p, q in itertools.combinations(range(len(degs)), 2):
        a, b = basis[degs[p]], basis[degs[q]]
        comm = [x - y for ra, rb in zip(_mul(a, b), _mul(b, a)) for x, y in zip(ra, rb)]
        if any(comm):
            k = degs.index(tuple(x ^ y for x, y in zip(degs[p], degs[q])))
            flat = [x for row in basis[degs[k]] for x in row]
            c = next(x // y for x, y in zip(comm, flat) if y)
            assert comm == [c * y for y in flat]
            brackets[(p, q)] = [(k, c)]
    return GradedLieAlgebra(group, [group.element(index[d]) for d in degs], brackets)


def cartan_mod(n, m, traceless):
    """gl_n or sl_n with E_ij in degree i - j of Z/m, the diagonal in degree 0."""
    alg = _matrix_lie_algebra(n, traceless)
    group = GroupSpec.free_product_cyclic([m])
    degs = [group.generator(0, sum(k * x for k, x in enumerate(d.data)) % m)
            for d in alg.degrees]
    return GradedLieAlgebra(group, degs, alg.brackets)


# the abelianized group, and the image of each support label
TORSION = {
    "pauli_sl2": (lambda: pauli(1, True), "Z/2 x Z/2",
                  {"1": (1, 0), "2": (1, 1), "3": (0, 1)}),
    "pauli_gl4": (lambda: pauli(2, False), "Z x Z/2 x Z/2 x Z/2 x Z/2 x Z/2",
                  {"0": (1, 0, 0, 0, 0, 0), "1": (0, 0, 0, 0, 1, 0), "2": (0, 0, 0, 1, 0, 0),
                   "3": (0, 0, 0, 1, 1, 0), "4": (0, 1, 0, 0, 0, 0), "5": (0, 1, 1, 0, 1, 0),
                   "6": (0, 1, 1, 1, 0, 0), "7": (0, 1, 1, 1, 1, 0), "8": (0, 1, 1, 1, 1, 1),
                   "9": (0, 1, 0, 1, 0, 1), "10": (0, 1, 0, 0, 1, 1), "11": (0, 1, 0, 0, 0, 1),
                   "12": (0, 0, 1, 1, 1, 1), "13": (0, 0, 0, 1, 0, 1), "14": (0, 0, 0, 0, 1, 1),
                   "15": (0, 0, 0, 0, 0, 1)}),
    "sl4_mod6": (lambda: cartan_mod(4, 6, True), "Z/6",
                 {"[[0,5]]": (1,), "[[0,4]]": (2,), "[[0,3]]": (3,), "[[0,1]]": (5,),
                  "[[0,2]]": (4,), "1": (0,)}),
}


@pytest.mark.parametrize("name", list(TORSION))
def test_torsion_coordinates_pinned(name):
    build, group, images = TORSION[name]
    alg = build()
    verdict = is_abelian_grading(alg)
    data = verdict.data
    assert data.generators == universal_presentation(alg).generators == list(images)
    assert (data.describe(), dict(zip(data.generators, data.images))) == (group, images)
    assert (verdict.is_abelian, verdict.collisions) == (True, [])
