"""Acceptance suite: one test per criterion, exact arithmetic throughout
(zero tolerance everywhere; every comparison is == on Fractions, ints or
rendered strings).  Run with -v for one pass/fail line per criterion."""

import json
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from sympy import Matrix

import gradedlie as gl
from gradedlie.cli import main
from gradedlie.freelie import degree_product
from gradedlie.groups import GroupSpec, commute
from gradedlie.liealg import GradedLieAlgebra, validate
from gradedlie.linalg import rank, smith_normal_form
from gradedlie.pbw import SUElement, normalize, pbw_basis, su_mul
from gradedlie.unigroup import (Presentation, abelianize,
                                is_abelian_presentation,
                                universal_presentation)

from conftest import FIXTURES
from test_pbw import all_words, reduce_all_orders, reduce_random_order

ALG = lambda stem: str(FIXTURES / f"{stem}.alg")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def payload(out):
    """Text-mode output lines without the echo header and result trailer."""
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[-1].startswith("result: ")
    return lines[:-1]


def ok(n, text=""):
    print(f"criterion {n}: PASS {text}".rstrip())


# -- 1: the two-letter free-product example ------------------------------------------


def test_criterion_01_c2c2_example(c2c2, capsys):
    code, out = run_cli(capsys, "pbw-basis", "--algebra", ALG("c2c2_abelian"),
                        "--max-len", "4")
    assert code == 0
    monomials = payload(out)[:-1]  # drop the count line
    assert monomials == ["1", "x", "y", "x x", "y y", "x x x", "y y y",
                         "x x x x", "y y y y"]
    assert len(monomials) == 9

    code, out = run_cli(capsys, "mul", "--algebra", ALG("c2c2_abelian"),
                        "--word", "x", "--word", "y")
    assert code == 0
    assert payload(out) == ["0"]

    # multiplication table up to length 3 must match the polynomial algebra
    # in two variables modulo the vanishing mixed product
    basis3 = [m for m in pbw_basis(c2c2, 3)]

    def model_product(a, b):
        if not a:
            return SUElement.monomial(b)
        if not b:
            return SUElement.monomial(a)
        if set(a) != set(b):
            return SUElement.zero()
        return SUElement.monomial(a + b)

    for a in basis3:
        for b in basis3:
            got = su_mul(c2c2, SUElement.monomial(a), SUElement.monomial(b))
            assert got == model_product(a, b), (a, b)
    ok(1, "(free-product example: basis, killed product, full table)")


# -- 2: the endomorphism example over the free group -----------------------------------


def test_criterion_02_endomorphism_example(free3, capsys):
    code, out = run_cli(capsys, "graded-span-check", "--algebra",
                        ALG("free3_abelian"), "--mats",
                        str(FIXTURES / "mats_free3_all9.json"))
    assert code == 1
    assert "graded Lie subspace: false  witness (e12, e23)" in out

    code, out = run_cli(capsys, "graded-span-check", "--algebra",
                        ALG("free3_abelian"), "--mats",
                        str(FIXTURES / "mats_free3_sub4.json"))
    assert code == 0
    assert "graded Lie subspace: true" in out

    mats = gl.load_mats(FIXTURES / "mats_free3_all9.json", free3)
    report = gl.is_graded_lie_subspace(free3, mats)
    assert report.witness_labels(mats) == ("e12", "e23")
    ok(2, "(nine maps fail at (e12,e23); the 2x2 block span passes)")


# -- 3: classical limit for an integer grading ------------------------------------------


def test_criterion_03_classical_limit(sl2, capsys):
    monos = pbw_basis(sl2, 6)
    for d in range(7):
        assert sum(1 for m in monos if len(m) == d) == comb(d + 2, 2)
    assert sum(1 for m in monos if len(m) == 3) == 10
    assert sum(1 for m in monos if len(m) == 6) == 28

    got = normalize(sl2, (2, 0))
    assert got == SUElement({(0, 2): Fraction(1), (1,): Fraction(-1)})
    code, out = run_cli(capsys, "normalize", "--algebra", ALG("sl2"),
                        "--word", "f e")
    assert code == 0
    assert payload(out) == ["1 * e f + -1 * h"]
    ok(3, "(length-d counts C(d+2,2) through d=6; one straightening step)")


# -- 4: well-definedness of the straightening map ----------------------------------------


def test_criterion_04_confluence(all_algebras):
    for name, alg in all_algebras.items():
        memo = {}
        for length in range(5):
            for w in all_words(alg.n, length):
                if not gl.pbw.word_is_gas(alg, w):
                    continue
                assert normalize(alg, w) == reduce_all_orders(alg, w, memo), (name, w)

    rng = random.Random(481516)
    disagreements = 0
    checks = 0
    algebras = [a for a in all_algebras.values() if a.n > 0]
    while checks < 1000:
        for alg in algebras:
            for length in (5, 6, 7):
                w = tuple(rng.randrange(alg.n) for _ in range(length))
                if reduce_random_order(alg, w, rng) != normalize(alg, w):
                    disagreements += 1
                checks += 1
    assert disagreements == 0
    ok(4, f"(exhaustive orders to length 4; {checks} random orders at 5-7)")


# -- 5: rank of straightened words matches the basis count --------------------------------


def test_criterion_05_rank_equals_basis_count(all_algebras):
    for name, alg in all_algebras.items():
        if not 1 <= alg.n <= 3:
            continue
        basis = pbw_basis(alg, 4)
        coord = {m: p for p, m in enumerate(basis)}
        vectors = []
        for bound in range(5):
            for w in all_words(alg.n, bound):
                vec = [Fraction(0)] * len(basis)
                for mono, c in normalize(alg, w).terms.items():
                    vec[coord[mono]] = c
                vectors.append(vec)
            assert rank(vectors) == len(pbw_basis(alg, bound)), (name, bound)
    ok(5, "(image span rank = sorted-monomial count, lengths 0-4)")


# -- 6: enveloping the free graded Lie algebra ----------------------------------------------


def test_criterion_06_free_lie_ranks(capsys):
    expected_dims = {"trivial2": [2, 4, 8, 16, 32],
                     "c2c2_abelian": [2, 2, 2, 2, 2],
                     "free3_abelian": [3, 3, 3, 3, 3]}
    for stem, dims in expected_dims.items():
        code, out = run_cli(capsys, "witt-check", "--algebra", ALG(stem),
                            "--max-len", "5", "--format", "machine")
        assert code == 0, stem
        rows = [json.loads(l) for l in out.splitlines()]
        witt = [r for r in rows if r["record"] == "witt"]
        assert [r["monomial_dim"] for r in witt] == dims, stem
        assert [r["pbw_rank"] for r in witt] == dims, stem
        assert all(r["pass"] for r in witt)
        if stem == "trivial2":
            assert [r["lyndon_count"] for r in witt] == [2, 1, 2, 3, 6]
    ok(6, "(rank = dimension at lengths 1-5 on all three alphabets)")


# -- 7: universal grading group machinery ----------------------------------------------------


def test_criterion_07_universal_group(sl2, c2c2, capsys):
    data = abelianize(universal_presentation(sl2))
    assert data.describe() == "Z"
    assert [data.image_of(lbl) for lbl in data.generators] == [(1,), (0,), (-1,)]
    code, _ = run_cli(capsys, "is-abelian", "--algebra", ALG("sl2"))
    assert code == 0

    data = abelianize(universal_presentation(c2c2))
    assert data.describe() == "Z^2"
    assert data.images == [(1, 0), (0, 1)]
    code, _ = run_cli(capsys, "is-abelian", "--algebra", ALG("c2c2_abelian"))
    assert code == 0

    synthetic = Presentation(["a", "b", "c"], [("a", "b", "c"), ("a", "a", "c")])
    verdict = is_abelian_presentation(synthetic)
    assert not verdict.is_abelian and ("a", "b") in verdict.collisions

    # unimodularity is asserted inside every smith_normal_form call; check it
    # independently on the relation matrix of the sl2 presentation
    pres = universal_presentation(sl2)
    pos = {g: p for p, g in enumerate(pres.generators)}
    n_mat = [[0] * len(pres.relations) for _ in pres.generators]
    for r, (s1, s2, s3) in enumerate(pres.relations):
        n_mat[pos[s1]][r] += 1
        n_mat[pos[s2]][r] += 1
        n_mat[pos[s3]][r] -= 1
    form = smith_normal_form(n_mat)
    assert Matrix(form.U).det() in (1, -1) and Matrix(form.V).det() in (1, -1)
    ok(7, "(Z with images 1,0,-1; Z^2 distinct; synthetic collision false)")


# -- 8: the embedding into the enveloping algebra ---------------------------------------------


def test_criterion_08_embedding(all_algebras, capsys):
    for name, alg in all_algebras.items():
        report = gl.embed_check(alg)
        assert report.ok, name
        code, _ = run_cli(capsys, "embed-check", "--algebra", ALG(name))
        assert code == 0, name
        for i in range(alg.n):
            for j in range(alg.n):
                lhs = normalize(alg, (i, j)) - normalize(alg, (j, i))
                rhs = SUElement({(k,): c for k, c in alg.bracket_basis(i, j)})
                assert lhs == rhs
    ok(8, "(letter independence and bracket compatibility on every fixture)")


# -- 9: degree lift through the free abelian cover ---------------------------------------------


def test_criterion_09_degree_lift(c2c2, free3, capsys):
    for stem in ("c2c2_abelian", "free3_abelian"):
        code, out = run_cli(capsys, "psi-check", "--algebra", ALG(stem),
                            "--max-len", "5")
        assert code == 0, stem
        assert "violations: 0" in out

    # the partial product map is defined exactly on commuting referenced sets
    for alg in (c2c2, free3):
        degs = list(alg.degrees)
        for length in range(1, 5):
            for idxs in product(range(len(degs)), repeat=length):
                defined = degree_product(degs, list(idxs)) is not None
                pairwise = all(commute(degs[a], degs[b])
                               for a in idxs for b in idxs)
                assert defined == pairwise, idxs
    ok(9, "(zero lift violations to length 5; domain = pairwise commutation)")


# -- 10: validation negativity ------------------------------------------------------------------


def _sl2_mutated(entry, bump=1):
    group = GroupSpec.free_abelian(1)
    degrees = [group.parse([1]), group.parse([0]), group.parse([-1])]
    brackets = {(0, 1): {0: Fraction(-2)},
                (0, 2): {1: Fraction(1)},
                (1, 2): {2: Fraction(-2)}}
    (i, j), k = entry
    brackets[(i, j)][k] += bump
    return GradedLieAlgebra(group, degrees, brackets, names=["e", "h", "f"])


def _sl2_constant(alg, i, j, k):
    """The coefficient c of [e_i, e_j] = c*e_k, the bracket's only term."""
    terms = alg.bracket_basis(i, j)
    assert [t for t, _ in terms] == [k]
    return terms[0][1]


# Write [e,h] = a*e, [e,f] = b*h and [h,f] = c*f.  The only basis triple is
# (e,h,f), and its Jacobi sum [[e,h],f] + [[h,f],e] + [[f,e],h] is
# ab*h - cb*h + 0 = b(a - c)*h, so a mutation breaks Jacobi exactly when
# b(a - c) != 0.  sl2 has a = c = -2: +1 on a or on c gives b(a - c) = +-1,
# refused with witness (e,h,f); +1 on b gives [e,f] = 2h, which f -> f/2
# maps back onto sl2, so validate must accept it.  (Grading puts [e,f] in
# degree 0, where h is the only basis element, so no grading-compatible
# change to that slot can break Jacobi.)  The expected verdicts are pinned
# as well, so a wrong closed form cannot make the test agree with itself.
@pytest.mark.parametrize("entry, broken",
                         [(((0, 1), 0), True), (((0, 2), 1), False),
                          (((1, 2), 2), True)],
                         ids=["alpha_eh_e", "alpha_ef_h", "alpha_hf_f"])
def test_criterion_10_constant_mutation_breaks_jacobi(entry, broken):
    alg = _sl2_mutated(entry)
    a = _sl2_constant(alg, 0, 1, 0)
    b = _sl2_constant(alg, 0, 2, 1)
    c = _sl2_constant(alg, 1, 2, 2)
    assert (b * (a - c) != 0) == broken

    report = validate(alg)
    jacobi = next(check for check in report.checks if check.name == "jacobi")
    assert jacobi.passed == (not broken)
    if broken:
        assert jacobi.witness == "(e,h,f)"
        ok(10, f"(constant mutation {entry} refused with Jacobi witness)")
    else:
        assert report.passed
        ok(10, f"(constant mutation {entry} is sl2 rescaled and validates)")


def test_criterion_10_degree_mutation_breaks_grading():
    group = GroupSpec.free_abelian(1)
    degrees = [group.parse([1]), group.parse([0]), group.parse([-2])]
    brackets = {(0, 1): {0: Fraction(-2)}, (0, 2): {1: Fraction(1)},
                (1, 2): {2: Fraction(-2)}}
    report = validate(GradedLieAlgebra(group, degrees, brackets,
                                       names=["e", "h", "f"]))
    grading = next(c for c in report.checks if c.name == "grading")
    assert not grading.passed
    assert "(e,f)" in grading.witness
    ok(10, "(degree mutation refused with grading witness)")
