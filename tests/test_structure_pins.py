"""Pins of the structure outputs the benchmark renders, and property tests
of the abelianization against sympy's Smith form and against the Smith form
of the full relation matrix.

The pins cover the universal group and its abelianization, the abelian
verdict, the embedding check and the graded-span check on the ad maps of
gl3, sl3, gl4, sl4 and the S5-graded sum, plus graded-span cases that fail.
A long output is pinned by the SHA-256 of its repr."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors
from test_linalg import _full_relation_matrix, _matrix_lie_algebra
from test_pbw import s5_graded_sum
from test_structure_checks import ad_maps

from gradedlie.liealg import GradedSpanReport, is_graded_lie_subspace
from gradedlie.linalg import row_hnf, smith_normal_form
from gradedlie.pbw import embed_check
from gradedlie.unigroup import (AbelianizationData, Presentation, abelianize, image_collisions,
                                is_abelian_grading, is_abelian_presentation,
                                universal_presentation)

ALGEBRAS = {"gl3": lambda: _matrix_lie_algebra(3, False),
            "sl3": lambda: _matrix_lie_algebra(3, True),
            "gl4": lambda: _matrix_lie_algebra(4, False),
            "sl4": lambda: _matrix_lie_algebra(4, True),
            "s5": s5_graded_sum}

# generators, relations, the group, and the digest of
# repr((generators, relations, describe(), images))
UNIVERSAL = {"gl3": (7, 30, "Z^2", "e3d15a9cb23d1659"),
             "sl3": (7, 30, "Z^2", "e3d15a9cb23d1659"),
             "gl4": (13, 84, "Z^3", "aba5217f89c787e5"),
             "sl4": (13, 84, "Z^3", "aba5217f89c787e5"),
             "s5": (7, 6, "Z^5", "9a1e4947a456a6b0")}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def algebras():
    return {name: build() for name, build in ALGEBRAS.items()}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_universal_group_and_abelianization_pinned(algebras, name):
    pres = universal_presentation(algebras[name])
    data = abelianize(pres)
    gens, rels, group, digest = UNIVERSAL[name]
    assert (len(pres.generators), len(pres.relations), data.describe()) == (gens, rels, group)
    assert _digest((pres.generators, pres.relations, data.describe(), data.images)) == digest


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_abelian_verdict_embedding_and_graded_span_pinned(algebras, name):
    alg = algebras[name]
    verdict = is_abelian_grading(alg)
    assert (verdict.is_abelian, verdict.collisions) == (True, [])
    assert verdict.data == abelianize(universal_presentation(alg))
    report = embed_check(alg)
    assert (report.independent, report.pair_failures) == (True, [])
    assert is_graded_lie_subspace(alg, ad_maps(alg)) == GradedSpanReport(True)


@pytest.mark.parametrize("name, drop, witness, labels", [
    ("gl3", {6, 7}, (0, 2), ("ad e0", "ad e2")),
    ("sl3", {7}, (1, 4), ("ad e1", "ad e4")),
])
def test_graded_span_failures_pinned(algebras, name, drop, witness, labels):
    # without ad E_00 and ad E_11 (gl3) or ad H_1 (sl3), [ad E_01, ad E_10]
    # escapes the span at degree 0
    alg = algebras[name]
    mats = [m for i, m in enumerate(ad_maps(alg)) if i not in drop]
    report = is_graded_lie_subspace(alg, mats)
    assert report == GradedSpanReport(False, witness,
                                      "commutator escapes the span at the product degree")
    assert report.witness_labels(mats) == labels


# -- the abelianization against sympy ---------------------------------------------------

def _group_by_sympy(pres: Presentation) -> str:
    s = len(pres.generators)
    pos = {g: p for p, g in enumerate(pres.generators)}
    cols = []
    for s1, s2, s3 in pres.relations:
        col = [0] * s
        col[pos[s1]] += 1
        col[pos[s2]] += 1
        col[pos[s3]] -= 1
        cols.append(col)
    factors = []
    if s and cols:
        rows = Matrix([[col[r] for col in cols] for r in range(s)])
        factors = [abs(int(d)) for d in invariant_factors(rows, domain=ZZ) if d != 0]
    free = s - len(factors)
    parts = ["Z"] if free == 1 else [f"Z^{free}"] if free > 1 else []
    parts += [f"Z/{d}" for d in factors if d >= 2]
    return " x ".join(parts) if parts else "1"


@st.composite
def presentations(draw):
    labels = [f"g{i}" for i in range(draw(st.integers(0, 8)))]
    label = st.sampled_from(labels) if labels else st.nothing()
    relations = draw(st.lists(st.tuples(label, label, label), max_size=20 if labels else 0))
    return Presentation(labels, relations)


@settings(max_examples=150, deadline=None, database=None)
@given(presentations())
def test_abelianization_matches_sympy_smith_form(pres):
    data = abelianize(pres)
    assert data.describe() == _group_by_sympy(pres)
    verdict = is_abelian_presentation(pres)
    distinct = len(set(verdict.data.images)) == len(pres.generators)
    assert verdict.is_abelian == distinct
    assert verdict.collisions == [
        (a, b) for i, (a, x) in enumerate(zip(pres.generators, verdict.data.images))
        for b, y in zip(pres.generators[i + 1:], verdict.data.images[i + 1:]) if x == y]


# -- the abelianization against the full relation matrix ------------------------------

def _read_off_full_matrix(pres: Presentation):
    """Free rank, invariant factors and generator images read off the Smith
    form of the matrix with one column per relation, repeats included: the
    free block Hermite-normalized, each torsion coordinate reduced mod d_i."""
    form = smith_normal_form(_full_relation_matrix(pres))
    rank = sum(1 for d in form.diag if d)
    free = row_hnf(form.U[rank:]) if len(pres.generators) > rank else []
    torsion = [i for i in range(rank) if form.diag[i] >= 2]
    images = [tuple(row[j] for row in free) + tuple(form.U[i][j] % form.diag[i] for i in torsion)
              for j in range(len(pres.generators))]
    return len(pres.generators) - rank, [form.diag[i] for i in torsion], images


@st.composite
def universal_like_presentations(draw):
    """Random presentations where some relations also come in the other
    order, as a universal presentation lists commuting pairs."""
    pres = draw(presentations())
    swapped = [(b, a, c) for a, b, c in pres.relations if draw(st.booleans())]
    return Presentation(pres.generators, pres.relations + swapped)


@settings(max_examples=200, deadline=None, database=None)
@given(universal_like_presentations())
def test_abelianization_matches_the_full_relation_matrix(pres):
    data = abelianize(pres)
    free_rank, factors, images = _read_off_full_matrix(pres)
    ref = AbelianizationData(list(pres.generators), free_rank, factors, images)
    assert data.describe() == ref.describe()
    assert (data.free_rank, data.invariant_factors) == (free_rank, factors)
    assert [im[:free_rank] for im in data.images] == [im[:free_rank] for im in images]
    assert image_collisions(data) == image_collisions(ref)
    image = dict(zip(data.generators, data.images))
    for s1, s2, s3 in pres.relations:
        a, b, c = image[s1], image[s2], image[s3]
        assert all(a[t] + b[t] == c[t] for t in range(free_rank))
        assert all((a[free_rank + t] + b[free_rank + t] - c[free_rank + t]) % d == 0
                   for t, d in enumerate(factors))
