"""The two tables an algebra keeps for its structure checks: `_integral`, the
same algebra on the basis D e_i with int structure constants, and
`_degree_products`, the position of the product of any two of its distinct
degrees.  Their readers (`embed_check`, `center`'s elimination and the
graded span check) must answer as they do on the `Fraction` table and with
the products formed in the call, and form no more group products on a
freshly built algebra than before."""

import math
import random
from fractions import Fraction

import pytest
from conftest import FIXTURES
from test_linalg import _matrix_lie_algebra
from test_structure_checks import (S3, ad_maps, graded_span_by_definition, rescaled,
                                   structure_algebras)

from gradedlie import pbw
from gradedlie.algfile import load_mats
from gradedlie.groups import GroupElement, GroupSpec
from gradedlie.liealg import (EndoMatrix, GradedLieAlgebra, GradedSpanError, GradedSpanReport,
                              center, inner_derivations, is_graded_lie_subspace, validate)
from gradedlie.pbw import EmbedReport, embed_check
from gradedlie.unigroup import universal_presentation

Z = GroupSpec.free_abelian(1)


def z_algebra(degrees):
    """An abelian algebra with one letter per listed degree in Z: the graded
    span check reads only its degrees."""
    return GradedLieAlgebra(Z, [Z.parse([d]) for d in degrees], {})


def noncommuting_bracket():
    """[x, y] = z with deg x and deg y not commuting in S3: not a graded Lie
    algebra, and embed_check fails both orders of (x, y)."""
    s, t = S3.element(2), S3.element(1)
    return GradedLieAlgebra(S3, [s, t, s * t], {(0, 1): [(2, 1)]}, ["x", "y", "z"])


def integral_algebras():
    """The 25 algebras of the structure checks, each also with its letters
    rescaled by non-integral rationals, and the invalid S3 bracket, plain
    and rescaled."""
    algebras = structure_algebras()
    assert len(algebras) == 25
    rng = random.Random(211)
    for name in list(algebras):
        alg = algebras[name]
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 9))
                  for _ in range(alg.n)]
        algebras[f"{name}_rescaled"] = rescaled(alg, scales, list(range(alg.n)))
    bad = noncommuting_bracket()
    algebras["noncommuting"] = bad
    algebras["noncommuting_rescaled"] = rescaled(bad, [Fraction(2, 3), Fraction(-5, 2), 1],
                                                 [0, 1, 2])
    return algebras


@pytest.fixture(scope="module")
def algebras():
    return integral_algebras()


def denominator(alg):
    return math.lcm(*(c.denominator for _, terms in alg.ordered_brackets.items()
                      for _, c in terms))


def _count_products(monkeypatch):
    """A list that gets one entry per product of two group elements."""
    calls = []
    mul = GroupElement.__mul__
    monkeypatch.setattr(GroupElement, "__mul__",
                        lambda self, other: calls.append(None) or mul(self, other))
    return calls


# -- the integral twin -------------------------------------------------------------------

def test_integral_holds_the_constants_times_the_common_denominator(algebras):
    above_one = 0
    for name, alg in algebras.items():
        twin = alg._integral
        assert twin is alg._integral and twin is not alg, name
        assert type(twin) is type(alg), name
        assert (twin.group, twin.names, twin.degrees, twin.n) == \
            (alg.group, alg.names, alg.degrees, alg.n), name
        d = denominator(alg)
        above_one += d > 1
        for mine, theirs in ((twin.ordered_brackets, alg.ordered_brackets),
                             (twin.brackets, alg.brackets)):
            assert list(mine) == list(theirs), name
            for pair, terms in theirs.items():
                assert mine[pair] == tuple((k, d * c) for k, c in terms), (name, pair)
                assert all(type(c) is int for _, c in mine[pair]), (name, pair)
        # the algebra's own tables are left as they were
        assert all(type(c) is Fraction for terms in alg.ordered_brackets.values()
                   for _, c in terms), name
    assert above_one >= 20


def test_integral_is_an_algebra_isomorphic_to_the_original(algebras):
    """D e_i satisfies the same identities: the twin validates iff the
    algebra does, and has the same center."""
    for name, alg in algebras.items():
        twin = alg._integral
        assert validate(twin).passed == validate(alg).passed, name
        assert center(twin) == center(alg), name


def test_integral_shares_a_commuting_table_already_filled():
    alg = _matrix_lie_algebra(3, False)
    table = alg._commuting
    assert alg._integral._commuting is table


def reference_embed_check(alg):
    """Every pair straightened on the algebra's own Fraction table."""
    failures = []
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            lhs = pbw._straighten(alg, {(j, i): -1, (i, j): 1})
            if lhs.terms != {(k,): c for k, c in alg.ordered_brackets.get((i, j), ())}:
                failures += [(i, j), (j, i)]
    return EmbedReport(True, sorted(failures))


def test_embed_check_on_the_twin_matches_the_fraction_table(algebras):
    failing = 0
    for name, alg in algebras.items():
        report = embed_check(alg)
        assert report == reference_embed_check(alg), name
        failing += bool(report.pair_failures)
    assert failing >= 4
    for name in ("noncommuting", "noncommuting_rescaled"):
        assert embed_check(algebras[name]).pair_failures == [(0, 1), (1, 0)], name


def test_embed_check_straightens_on_the_twin(monkeypatch, algebras):
    seen = []
    straighten = pbw._straighten

    def spy(alg, words):
        seen.append(alg)
        return straighten(alg, words)
    monkeypatch.setattr(pbw, "_straighten", spy)
    alg = algebras["gl3_rescaled"]
    embed_check(alg)
    assert len(seen) == alg.n * (alg.n - 1) // 2
    assert all(a is alg._integral for a in seen)


# -- the degree-product table -----------------------------------------------------------

def test_degree_products_hold_the_position_of_every_product(algebras):
    extra = {"z_gaps": z_algebra([1, 2, 4, 5]), "z_dense": z_algebra([0, 1, 2, 3, 3])}
    for name, alg in {**algebras, **extra}.items():
        index = alg._degree_index[0]
        table = alg._degree_products
        assert len(table) == len(index), name
        for d, p in index.items():
            assert len(table[p]) == len(index), name
            for e, q in index.items():
                assert table[p][q] == index.get(d * e, -1), (name, p, q)


def block_matrix(rng, alg, degree, label):
    """A random matrix inside the degree block of degree, about half its
    allowed entries nonzero."""
    n = alg.n
    rows = [[0] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if alg.degree(r) == degree * alg.degree(c) and rng.random() < 0.5:
                rows[r][c] = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 1, 2)))
    return EndoMatrix.build(rows, degree, label)


def span_cases(rng, alg, inside, outside):
    """Lists of random block matrices whose declared degrees are all inside
    the support, all outside it, or mixed, with the ad maps among them now
    and then; degrees repeat so that some commutators land in a pool."""
    cases = []
    for kind, pool in (("inside", inside), ("outside", outside), ("mixed", inside + outside)):
        if not pool:
            continue
        for _ in range(12):
            degrees = [rng.choice(pool) for _ in range(rng.randrange(1, 6))]
            if kind == "mixed" and inside and outside:
                degrees += [rng.choice(inside), rng.choice(outside)]
            mats = [block_matrix(rng, alg, d, f"m{t}") for t, d in enumerate(degrees)]
            if kind != "outside" and rng.random() < 0.3:
                mats += [m for m in ad_maps(alg) if any(map(any, m.rows))]
            cases.append((kind, rng.sample(mats, len(mats))))
    return cases


def test_graded_span_check_matches_the_definition_inside_and_outside_the_support(algebras):
    rng = random.Random(223)
    extra = {"z_gaps": z_algebra([1, 2, 4, 5]), "z_dense": z_algebra([0, 1, 2, 3, 3]),
             "z_wide": z_algebra([0, 1, 3, 4, 6, 7])}
    seen = {}
    for name, alg in {**algebras, **extra}.items():
        if not alg.n:
            continue
        support = list(alg._degree_index[0])
        products = {d * e for d in support for e in support} | {alg.group.identity()}
        products |= {d.inverse() for d in support}
        outside = sorted((d for d in products if d not in support), key=repr)
        for kind, mats in span_cases(rng, alg, support, outside):
            try:
                want = graded_span_by_definition(alg, mats)
            except GradedSpanError as exc:
                with pytest.raises(GradedSpanError) as got:
                    is_graded_lie_subspace(alg, mats)
                assert str(got.value) == str(exc), name
                continue
            report = is_graded_lie_subspace(alg, mats)
            assert report == want, (name, kind)
            key = (kind, report.reason)
            seen[key] = seen.get(key, 0) + 1
    for kind in ("inside", "outside", "mixed"):
        for reason in (None, "commutator escapes the span at the product degree"):
            assert seen.get((kind, reason), 0) >= 20, (kind, reason, seen)
    for kind in ("inside", "mixed"):
        reason = "degrees do not commute but the commutator is nonzero"
        assert seen.get((kind, reason), 0) >= 20, (kind, reason, seen)


def test_graded_span_check_on_the_free3_spans(free3):
    """Every declared degree of these spans lies outside the support of
    free3 (the identity and the quotients of two letters' degrees)."""
    support = free3._degree_index[0]
    for stem, ok in (("mats_free3_all9", False), ("mats_free3_sub4", True)):
        mats = load_mats(FIXTURES / f"{stem}.json", free3)
        assert not any(m.degree in support for m in mats), stem
        assert is_graded_lie_subspace(free3, mats).ok is ok, stem
        for drop in range(len(mats)):
            rest = mats[:drop] + mats[drop + 1:]
            assert is_graded_lie_subspace(free3, rest) == \
                graded_span_by_definition(free3, rest), (stem, drop)


def test_graded_span_check_falls_back_when_both_products_leave_the_support():
    """Degrees 1 and 2 of Z lie in the support {1, 2, 4, 5}, their product 3
    does not: the commute test and the product are formed in the call, and
    the commutator escapes unless a matrix of degree 3 spans it."""
    alg = z_algebra([1, 2, 4, 5])
    one, two, three = (Z.parse([k]) for k in (1, 2, 3))

    def unit(r, c, degree, label):
        rows = [[0] * 4 for _ in range(4)]
        rows[r][c] = 1
        return EndoMatrix.build(rows, degree, label)
    a = EndoMatrix.build([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]], one, "a")
    b = unit(2, 1, two, "b")  # e_1 (deg 2) -> e_2 (deg 4)
    assert is_graded_lie_subspace(alg, [a, b]) == GradedSpanReport(
        False, (0, 1), "commutator escapes the span at the product degree")
    # [a, b] = E_31 - E_20, both of degree 3: c spans it, and [a, c] =
    # -2 E_30 of degree 4 is the first to escape; d does not span it
    c = EndoMatrix.build([[0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 1, 0, 0]], three, "c")
    d = unit(3, 1, three, "d")
    for mats, witness in (([a, b, c], (0, 2)), ([a, b, d], (0, 1))):
        report = is_graded_lie_subspace(alg, mats)
        assert report == graded_span_by_definition(alg, mats)
        assert report == GradedSpanReport(
            False, witness, "commutator escapes the span at the product degree")


# -- group products on a fresh algebra --------------------------------------------------

@pytest.mark.parametrize("traceless", [False, True])
def test_graded_span_check_forms_one_product_per_ordered_pair_of_degrees(monkeypatch,
                                                                        traceless):
    """A fresh gl3 or sl3 with fresh ad maps: the table's 7 x 7 products and
    nothing else, where each call formed 94 before the table."""
    calls = _count_products(monkeypatch)
    for maps in (ad_maps, inner_derivations):
        alg = _matrix_lie_algebra(3, traceless)
        mats = maps(alg)
        calls.clear()
        assert is_graded_lie_subspace(alg, mats).ok
        assert len(calls) <= 49
    assert len(alg._degree_index[0]) == 7
    # once the table is filled, a call forms no product at all
    is_graded_lie_subspace(alg, ad_maps(alg))
    calls.clear()
    assert is_graded_lie_subspace(alg, ad_maps(alg)).ok
    assert calls == []


def test_universal_presentation_forms_one_product_per_support_pair(monkeypatch):
    calls = _count_products(monkeypatch)
    for name, alg in structure_algebras().items():
        calls.clear()
        universal_presentation(alg)
        assert len(calls) == len(alg._support_products), name
    alg = _matrix_lie_algebra(3, False)
    calls.clear()
    universal_presentation(alg)
    assert len(calls) == 30
