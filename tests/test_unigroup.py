import random

import pytest
from conftest import FIXTURES, load
from test_linalg import _matrix_lie_algebra
from test_pbw import s5_graded_sum

from gradedlie import unigroup
from gradedlie.groups import GroupSpec
from gradedlie.liealg import LieAlgebraError
from gradedlie.unigroup import (AbelianizationData, CoarseningError,
                                Presentation, abelianize, coarsening_check,
                                is_abelian_grading, is_abelian_presentation,
                                support, universal_presentation)


# -- support -----------------------------------------------------------------------

def test_support_sl2(sl2):
    assert [sl2.group.format(d) for d in support(sl2)] == ["[1]", "[0]", "[-1]"]


def test_support_c2c2(c2c2):
    assert support(c2c2) == [c2c2.group.generator(0), c2c2.group.generator(1)]


def test_support_folds_repeated_degrees(trivial2):
    assert len(support(trivial2)) == 1
    assert support(trivial2)[0].is_identity()


# -- presentation ------------------------------------------------------------------

def test_presentation_sl2_has_six_relations(sl2):
    pres = universal_presentation(sl2)
    assert pres.generators == ["[1]", "[0]", "[-1]"]
    assert len(pres.relations) == 6
    assert ("[1]", "[0]", "[1]") in pres.relations
    assert ("[0]", "[1]", "[1]") in pres.relations
    assert ("[1]", "[-1]", "[0]") in pres.relations


def test_presentation_abelian_algebra_free(c2c2, free3):
    assert universal_presentation(c2c2).relations == []
    assert universal_presentation(free3).relations == []


def test_presentation_heisenberg(heisenberg):
    pres = universal_presentation(heisenberg)
    assert len(pres.relations) == 2
    assert ("[1,0]", "[0,1]", "[1,1]") in pres.relations
    assert ("[0,1]", "[1,0]", "[1,1]") in pres.relations


def presentation_by_definition(alg):
    """The support labels, and one relation s1*s2 = s3 for every ordered
    pair of components with some nonzero bracket_basis(i, j) between them."""
    comps = alg.components()
    label = {deg: alg.group.format(deg) for deg, _ in comps}
    relations = [(label[deg_a], label[deg_b], label[deg_a * deg_b])
                 for deg_a, idxs_a in comps for deg_b, idxs_b in comps
                 if any(alg.bracket_basis(i, j) for i in idxs_a for j in idxs_b)]
    return list(label.values()), relations


def test_presentation_matches_all_ordered_pairs_definition():
    algebras = {path.stem: load(path.stem) for path in sorted(FIXTURES.glob("*.alg"))}
    for n in (3, 4):
        algebras[f"gl{n}"] = _matrix_lie_algebra(n, False)
        algebras[f"sl{n}"] = _matrix_lie_algebra(n, True)
    algebras["s5_sum"] = s5_graded_sum()
    assert len(algebras) == 12
    for name, alg in algebras.items():
        pres = universal_presentation(alg)
        assert (pres.generators, pres.relations) == presentation_by_definition(alg), name


# -- abelianization ------------------------------------------------------------------

def test_abelianize_sl2(sl2):
    data = abelianize(universal_presentation(sl2))
    assert data.describe() == "Z"
    assert data.free_rank == 1 and data.invariant_factors == []
    assert data.image_of("[1]") == (1,)
    assert data.image_of("[0]") == (0,)
    assert data.image_of("[-1]") == (-1,)


def test_abelianize_no_relations():
    pres = Presentation(["a", "b"], [])
    data = abelianize(pres)
    assert data.describe() == "Z^2"
    assert data.images == [(1, 0), (0, 1)]


def test_abelianize_idempotent_generator_dies():
    pres = Presentation(["s"], [("s", "s", "s")])
    data = abelianize(pres)
    assert data.describe() == "1"
    assert data.images == [()]


def test_abelianize_torsion():
    # a*a = 1-slot: force 2a = 0 via a+a-e and e idempotent
    pres = Presentation(["e", "a"], [("e", "e", "e"), ("a", "a", "e")])
    data = abelianize(pres)
    assert data.describe() == "Z/2"
    assert data.image_of("e") == (0,)
    assert data.image_of("a") == (1,)


def test_abelianize_images_satisfy_relations_randomized():
    # independent recomputation of every relation on the reported images
    rng = random.Random(9)
    labels = ["a", "b", "c", "d"]
    for _ in range(40):
        rels = []
        for _ in range(rng.randrange(6)):
            s1, s2 = rng.choice(labels), rng.choice(labels)
            s3 = rng.choice(labels)
            rels.append((s1, s2, s3))
        data = abelianize(Presentation(labels, rels))
        r = data.free_rank
        for s1, s2, s3 in rels:
            a, b, c = data.image_of(s1), data.image_of(s2), data.image_of(s3)
            assert all(a[t] + b[t] - c[t] == 0 for t in range(r))
            for t, d in enumerate(data.invariant_factors):
                assert (a[r + t] + b[r + t] - c[r + t]) % d == 0


def test_torsion_coordinates_canonical():
    rng = random.Random(15)
    for _ in range(40):
        labels = ["a", "b", "c"]
        rels = [(rng.choice(labels), rng.choice(labels), rng.choice(labels))
                for _ in range(rng.randrange(1, 5))]
        data = abelianize(Presentation(labels, rels))
        r = data.free_rank
        for img in data.images:
            for t, d in enumerate(data.invariant_factors):
                assert 0 <= img[r + t] < d


# -- abelian-grading decision -----------------------------------------------------------

def test_is_abelian_sl2_and_c2c2(sl2, c2c2):
    verdict = is_abelian_grading(sl2)
    assert verdict.is_abelian and verdict.collisions == []
    verdict = is_abelian_grading(c2c2)
    assert verdict.is_abelian
    assert verdict.data.describe() == "Z^2"
    assert verdict.data.images == [(1, 0), (0, 1)]


def test_is_abelian_false_on_synthetic_collision():
    # a + b = c and 2a = c force a = b in the abelianization
    pres = Presentation(["a", "b", "c"], [("a", "b", "c"), ("a", "a", "c")])
    verdict = is_abelian_presentation(pres)
    assert not verdict.is_abelian
    assert ("a", "b") in verdict.collisions


def test_free_abelian_support_stays_distinct(heisenberg):
    verdict = is_abelian_grading(heisenberg)
    assert verdict.is_abelian
    assert len(set(verdict.data.images)) == 3


# -- coarsenings ---------------------------------------------------------------------------

def parity_relabel(sl2):
    z2 = GroupSpec.finite([[0, 1], [1, 0]], names=["even", "odd"])
    one, zero, minus = support(sl2)
    return {one: z2.element(1), zero: z2.element(0), minus: z2.element(1)}, z2


def test_coarsening_parity_valid(sl2):
    relabel, z2 = parity_relabel(sl2)
    report = coarsening_check(sl2, relabel)
    assert report.ok
    got = {sl2.group.format(f): z2.format(c)
           for f, c in report.coarsening.support_map}
    assert got == {"[1]": "odd", "[0]": "even", "[-1]": "odd"}
    merged = {z2.format(c): len(fs) for c, fs in report.coarsening.merges}
    assert merged == {"odd": 2, "even": 1}


def test_coarsening_identity_valid(all_algebras):
    for alg in all_algebras.values():
        relabel = {d: d for d in support(alg)}
        report = coarsening_check(alg, relabel)
        assert report.ok
        assert all(f == c for f, c in report.coarsening.support_map)


def test_coarsening_composition(sl2):
    relabel, z2 = parity_relabel(sl2)
    first = coarsening_check(sl2, {d: d for d in support(sl2)})
    assert first.ok
    composed = {f: relabel[c] for f, c in first.coarsening.support_map}
    assert coarsening_check(sl2, composed).ok


def test_coarsening_invalid_with_witness(sl2):
    z = GroupSpec.free_abelian(1)
    one, zero, minus = support(sl2)
    relabel = {one: z.parse([1]), zero: z.parse([0]), minus: z.parse([1])}
    report = coarsening_check(sl2, relabel)
    assert not report.ok
    assert report.witness == (0, 2)  # the (e, f) bracket
    assert "[2] = [0]" in report.reason


def test_coarsening_non_total_raises(sl2):
    z = GroupSpec.free_abelian(1)
    one, zero, minus = support(sl2)
    with pytest.raises(CoarseningError, match="misses"):
        coarsening_check(sl2, {one: z.parse([1]), zero: z.parse([0])})


def test_coarsening_mixed_backends_raise(sl2):
    z = GroupSpec.free_abelian(1)
    z2 = GroupSpec.finite([[0, 1], [1, 0]])
    one, zero, minus = support(sl2)
    with pytest.raises(CoarseningError, match="different groups"):
        coarsening_check(sl2, {one: z.parse([1]), zero: z2.element(0),
                               minus: z.parse([1])})


def test_coarsening_refuses_a_label_that_is_not_a_group_element(sl2):
    # a raw AttributeError before
    with pytest.raises(CoarseningError) as got:
        coarsening_check(sl2, {d: 5 for d in support(sl2)})
    assert str(got.value) == "coarse label of [1] is not a group element: 5"


# -- pinned transform-dependent outputs ------------------------------------------------

def test_abelianization_pinned_with_torsion_images():
    # non-unit pivots and one divisibility repair in the Smith form: Z/2 x Z/4
    pres = Presentation(list("abcdef"),
                        [("c", "f", "f"), ("b", "b", "c"), ("d", "e", "f"), ("c", "c", "e"),
                         ("f", "c", "f"), ("d", "d", "b"), ("a", "a", "c")])
    assert abelianize(pres) == AbelianizationData(
        generators=["a", "b", "c", "d", "e", "f"], free_rank=0, invariant_factors=[2, 4],
        images=[(1, 0), (0, 2), (0, 0), (0, 3), (0, 0), (0, 3)])
    verdict = is_abelian_presentation(pres)
    assert not verdict.is_abelian and verdict.collisions == [("c", "e"), ("d", "f")]


def test_is_abelian_gl5_pinned():
    # the 21 x 180 relation matrix; the root e_i - e_j maps to -(x_2..x_5)
    gl5 = _matrix_lie_algebra(5, False)
    pres = universal_presentation(gl5)
    assert (len(pres.generators), len(pres.relations)) == (21, 180)
    verdict = is_abelian_grading(gl5)
    assert verdict.is_abelian and verdict.collisions == []
    assert verdict.data.describe() == "Z^4"
    for label, image in zip(verdict.data.generators, verdict.data.images):
        vec = gl5.group.parse(label).data
        assert image == tuple(-x for x in vec[1:]), label


# -- malformed raw presentations --------------------------------------------------------

@pytest.fixture
def no_elimination(monkeypatch):
    """Fail the test if abelianize reaches the Smith form."""
    def refuse(rows):
        raise AssertionError("the presentation reached the elimination")
    monkeypatch.setattr(unigroup, "smith_normal_form", refuse)


@pytest.mark.parametrize("pres, message", [
    (Presentation(["a", "a"], []), "generator 'a' is listed more than once"),
    (Presentation(["a", "a"], [("a", "a", "a")]), "generator 'a' is listed more than once"),
    (Presentation(["a", "b", "c", "b"], [("a", "b", "c")]),
     "generator 'b' is listed more than once"),
    (Presentation(["a", "b"], [("a", "b", "a"), ("a", "b")]),
     r"relation 1 is not a triple of generator labels: \('a', 'b'\)"),
    (Presentation(["a", "b"], [("a", "b", "a", "b")]), "relation 0 is not a triple"),
    (Presentation(["a", "b"], ["aba"]), "relation 0 is not a triple"),
    (Presentation(["a", "b"], [7]), "relation 0 is not a triple"),
    (Presentation(["a", "b"], [("a", "b", "a"), ("a", "c", "b")]),
     "relation 1 uses unknown generator 'c'"),
], ids=["repeated, no relations", "repeated, one relation", "repeated later",
        "pair", "quadruple", "string", "int", "unknown label"])
def test_malformed_presentation_is_refused_before_elimination(no_elimination, pres, message):
    for entry in (abelianize, is_abelian_presentation):
        with pytest.raises(LieAlgebraError, match=message):
            entry(pres)


def test_image_of_an_unknown_label_names_it():
    data = abelianize(Presentation(["a"], []))
    assert data.image_of("a") == (1,)
    with pytest.raises(LieAlgebraError, match="no generator 'b'"):
        data.image_of("b")
