import random
from fractions import Fraction
from itertools import combinations, cycle

import pytest
from sympy import Matrix

import gradedlie as gl
from gradedlie.groups import GroupSpec, commute
from gradedlie.liealg import (EndoMatrix, GradedLieAlgebra, GradedSpanError,
                              LieAlgebraError, basis_vector, bracket, center,
                              check_block_invariant, inner_derivations,
                              is_graded_lie_subspace, validate, vec_add, vec_scale)
from gradedlie.linalg import nullspace

from conftest import FIXTURES


def raw_bracket_table(alg):
    """Dense [e_i, e_j] table rebuilt directly from the stored constants,
    independent of liealg.bracket."""
    n = alg.n
    table = [[{} for _ in range(n)] for _ in range(n)]
    for (i, j), terms in alg.brackets.items():
        table[i][j] = {k: c for k, c in terms}
        table[j][i] = {k: -c for k, c in terms}
    return table


def brute_jacobi_failures(alg):
    """Triple loop evaluating [[ei,ej],ek] + cyclic from the dense table."""
    table = raw_bracket_table(alg)
    n = alg.n
    bad = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cf in table[a][b].items():
                        for t, cf2 in table[m][c].items():
                            total[t] = total.get(t, Fraction(0)) + cf * cf2
                if any(v != 0 for v in total.values()):
                    bad.append((i, j, k))
    return bad


def sl2_raw():
    group = GroupSpec.free_abelian(1)
    degrees = [group.parse([1]), group.parse([0]), group.parse([-1])]
    brackets = {(0, 1): [(0, Fraction(-2))],
                (0, 2): [(1, Fraction(1))],
                (1, 2): [(2, Fraction(-2))]}
    return group, degrees, brackets


# -- construction ----------------------------------------------------------------

def test_rejects_wrong_order_pairs():
    group, degrees, _ = sl2_raw()
    with pytest.raises(LieAlgebraError, match="i < j"):
        GradedLieAlgebra(group, degrees, {(1, 0): [(0, 1)]})


def test_rejects_out_of_range():
    group, degrees, _ = sl2_raw()
    with pytest.raises(LieAlgebraError):
        GradedLieAlgebra(group, degrees, {(0, 5): [(0, 1)]})
    with pytest.raises(LieAlgebraError):
        GradedLieAlgebra(group, degrees, {(0, 1): [(9, 1)]})


@pytest.mark.parametrize("brackets", [
    {(0, 1): [(1.5, 1)]}, {(0, 1): [(True, 1)]}, {(0, 1): [(1.0, 1)]},
    {(0.0, 1): [(0, 1)]}, {(False, True): [(0, 1)]}],
    ids=["k-float", "k-bool", "k-integral-float", "i-float", "pair-bools"])
def test_rejects_non_integer_indices(brackets):
    group, degrees, _ = sl2_raw()
    with pytest.raises(LieAlgebraError, match="expected an integer"):
        GradedLieAlgebra(group, degrees, brackets)


def test_no_coercing_vector_constructor():
    # liealg.vector coerced its keys with int(): {1.5: 2} became {1: 2}
    assert not hasattr(gl.liealg, "vector")


def test_zero_coefficients_dropped():
    group, degrees, _ = sl2_raw()
    alg = GradedLieAlgebra(group, degrees, {(0, 1): [(0, 0)]})
    assert alg.brackets == {}


# -- validation against the brute-force oracle --------------------------------------

def test_validate_passes_all_fixtures(all_algebras):
    for name, alg in all_algebras.items():
        report = validate(alg)
        assert report.passed, (name, [c.witness for c in report.failures()])
        assert brute_jacobi_failures(alg) == []


def test_validate_catches_jacobi_break():
    group, degrees, brackets = sl2_raw()
    brackets[(0, 1)] = [(0, Fraction(-1))]  # [e,h] = -e
    alg = GradedLieAlgebra(group, degrees, brackets, names=["e", "h", "f"])
    report = validate(alg)
    jacobi = next(c for c in report.checks if c.name == "jacobi")
    assert not jacobi.passed
    assert jacobi.witness == "(e,h,f)"
    assert brute_jacobi_failures(alg) == [(0, 1, 2)]


def test_rescaling_ef_keeps_sl2_valid():
    # [e,f] = c*h stays a Lie algebra for every c (rescale f by 1/c), so
    # mutating that one constant never breaks Jacobi; the brute-force oracle
    # agrees with validate on it
    for c in (2, 3, -1, 7):
        group, degrees, brackets = sl2_raw()
        brackets[(0, 2)] = [(1, Fraction(c))]
        alg = GradedLieAlgebra(group, degrees, brackets, names=["e", "h", "f"])
        assert brute_jacobi_failures(alg) == []
        assert validate(alg).passed


def test_validate_catches_grading_break():
    group, degrees, brackets = sl2_raw()
    degrees[2] = group.parse([-2])  # deg f moves; [e,f]=h violates grading
    alg = GradedLieAlgebra(group, degrees, brackets, names=["e", "h", "f"])
    report = validate(alg)
    grading = next(c for c in report.checks if c.name == "grading")
    assert not grading.passed
    assert "(e,f)" in grading.witness


def test_validate_catches_noncommuting_degree_bracket():
    # nonzero bracket between components whose degrees do not commute can
    # never happen in a graded Lie algebra: antisymmetry puts the value in
    # two distinct components at once
    group = GroupSpec.free_product_cyclic([2, 2])
    g, h = group.generator(0), group.generator(1)
    degrees = [g, h, g * h]
    alg = GradedLieAlgebra(group, degrees, {(0, 1): [(2, Fraction(1))]})
    report = validate(alg)
    grading = next(c for c in report.checks if c.name == "grading")
    assert not grading.passed
    assert "commute" in grading.witness


def test_c2c2_abelian_fixture_validates(c2c2):
    assert validate(c2c2).passed
    assert c2c2.n == 2 and not c2c2.brackets


# -- bracket ------------------------------------------------------------------------

def test_bracket_fixture_values(sl2):
    e, h, f = basis_vector(0), basis_vector(1), basis_vector(2)
    assert bracket(sl2, e, f) == {1: Fraction(1)}
    assert bracket(sl2, h, e) == {0: Fraction(2)}
    assert bracket(sl2, e, e) == {}


def test_bracket_antisymmetry_and_bilinearity(all_algebras):
    rng = random.Random(29)
    for alg in all_algebras.values():
        if alg.n == 0:
            continue
        for _ in range(50):
            x = {rng.randrange(alg.n): Fraction(rng.randint(-3, 3)) for _ in range(2)}
            y = {rng.randrange(alg.n): Fraction(rng.randint(-3, 3)) for _ in range(2)}
            assert bracket(alg, x, y) == vec_scale(-1, bracket(alg, y, x))
            two_x = vec_scale(2, x)
            assert bracket(alg, two_x, y) == vec_scale(2, bracket(alg, x, y))


def test_bracket_jacobi_on_random_vectors(all_algebras):
    rng = random.Random(31)
    for alg in all_algebras.values():
        if alg.n == 0:
            continue
        rounds = 1000 // max(1, len(all_algebras) - 1)
        for _ in range(max(200, rounds)):
            vs = []
            for _ in range(3):
                vs.append({rng.randrange(alg.n): Fraction(rng.randint(-4, 4))
                           for _ in range(rng.randrange(1, 3))})
            x, y, z = vs
            total = vec_add(
                vec_add(bracket(alg, bracket(alg, x, y), z),
                        bracket(alg, bracket(alg, y, z), x)),
                bracket(alg, bracket(alg, z, x), y))
            assert total == {}


def test_bracket_degree_preservation(all_algebras):
    # homogeneous x, y with nonzero bracket give a homogeneous result of the
    # product degree
    for alg in all_algebras.values():
        for i in range(alg.n):
            for j in range(alg.n):
                out = bracket(alg, basis_vector(i), basis_vector(j))
                if not out:
                    continue
                want = alg.degree(i) * alg.degree(j)
                assert all(alg.degree(k) == want for k in out)


def test_bracket_index_out_of_range(sl2):
    with pytest.raises(LieAlgebraError):
        bracket(sl2, {5: Fraction(1)}, basis_vector(0))


# -- center -------------------------------------------------------------------------

def test_center_values(sl2, c2c2, heisenberg):
    assert center(sl2) == []
    assert center(c2c2) == [{0: Fraction(1)}, {1: Fraction(1)}]
    assert center(heisenberg) == [{2: Fraction(1)}]


def test_center_annihilated_and_matches_global_nullspace(all_algebras):
    for alg in all_algebras.values():
        vecs = center(alg)
        for v in vecs:
            for i in range(alg.n):
                assert bracket(alg, v, basis_vector(i)) == {}
        # independent oracle: one global solve over the whole basis
        rows = []
        for j in range(alg.n):
            for k in range(alg.n):
                rows.append([dict(alg.bracket_basis(i, j)).get(k, Fraction(0))
                             for i in range(alg.n)])
        global_dim = len(nullspace(rows, alg.n))
        assert len(vecs) == global_dim


def test_center_vectors_homogeneous(all_algebras):
    for alg in all_algebras.values():
        for v in center(alg):
            degs = {alg.degree(i) for i in v}
            assert len(degs) == 1


# -- inner derivations ----------------------------------------------------------------

def test_inner_derivations_fixture_values(sl2, c2c2, heisenberg):
    assert inner_derivations(c2c2) == []
    sl2_mats = inner_derivations(sl2)
    assert [sl2.group.format(m.degree) for m in sl2_mats] == ["[1]", "[0]", "[-1]"]
    assert len(inner_derivations(heisenberg)) == 2


def test_inner_derivations_are_graded_lie_subspace(all_algebras):
    for name, alg in all_algebras.items():
        mats = inner_derivations(alg)
        assert is_graded_lie_subspace(alg, mats).ok, name


def test_adjoint_matrix_matches_bracket(sl2):
    mats = inner_derivations(sl2)
    ad_e = mats[0]
    # column j of ad e holds [e, e_j]
    for j in range(sl2.n):
        col = {k: ad_e.rows[k][j] for k in range(sl2.n) if ad_e.rows[k][j] != 0}
        assert col == bracket(sl2, basis_vector(0), basis_vector(j))


# -- graded span check ------------------------------------------------------------------

def test_span_check_rejects_missing_degree(free3):
    with pytest.raises(GradedSpanError, match="no declared degree"):
        is_graded_lie_subspace(free3, [EndoMatrix.build([[1, 0, 0]] * 3 * 0 or
                                                        [[1, 0, 0], [0, 0, 0], [0, 0, 0]])])


def test_span_check_rejects_block_violation(free3):
    bad = EndoMatrix.build([[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                           free3.group.parse("a c^-1"), "bad")
    with pytest.raises(GradedSpanError, match="degree block"):
        is_graded_lie_subspace(free3, [bad])


def test_span_check_all_nine_unit_maps(free3):
    mats = gl.load_mats(FIXTURES / "mats_free3_all9.json", free3)
    report = is_graded_lie_subspace(free3, mats)
    assert not report.ok
    assert report.witness_labels(mats) == ("e12", "e23")


def test_span_check_two_by_two_block(free3):
    mats = gl.load_mats(FIXTURES / "mats_free3_sub4.json", free3)
    assert is_graded_lie_subspace(free3, mats).ok


def test_span_check_closure_failure(sl2):
    # {ad e, ad h} alone: [ad e, ad h] = -2 ad e stays inside, but
    # {ad e, ad f} leaks into the missing degree-0 slot
    mats = inner_derivations(sl2)
    assert is_graded_lie_subspace(sl2, [mats[0], mats[1]]).ok
    report = is_graded_lie_subspace(sl2, [mats[0], mats[2]])
    assert not report.ok
    assert report.witness == (0, 1)


def _reference_span_report(mats):
    """(ok, witness, reason) of the graded-span check, with commutators
    and span membership (by rank) over sympy's rationals."""
    for i1, i2 in combinations(range(len(mats)), 2):
        u, v = mats[i1], mats[i2]
        a, b = Matrix(u.rows), Matrix(v.rows)
        comm = a * b - b * a
        if not commute(u.degree, v.degree):
            if not comm.is_zero_matrix:
                return (False, (i1, i2),
                        "degrees do not commute but the commutator is nonzero")
            continue
        if comm.is_zero_matrix:
            continue
        pool = [Matrix(m.flatten()) for m in mats if m.degree == u.degree * v.degree]
        flat = comm.reshape(len(comm), 1)
        if Matrix.hstack(*pool, flat).rank() > (Matrix.hstack(*pool).rank() if pool else 0):
            return (False, (i1, i2), "commutator escapes the span at the product degree")
    return (True, None, None)


def _sl2_rescaled(a, b):
    """sl2 on the basis a*e, h, b*f: [ae, bf] = ab h."""
    group = GroupSpec.free_abelian(1)
    return GradedLieAlgebra(group, [group.parse(d) for d in ([1], [0], [-1])],
                            {(0, 1): [(0, -2)], (0, 2): [(1, a * b)], (1, 2): [(2, -2)]},
                            ["e", "h", "f"])


@pytest.mark.parametrize("a, b", [(Fraction(1, 2), Fraction(1, 3)),
                                  (Fraction(-3, 4), Fraction(5, 6))])
def test_span_check_on_rational_entries_matches_reference(free3, a, b):
    alg = _sl2_rescaled(a, b)
    assert validate(alg).passed
    ad_e, ad_h, ad_f = inner_derivations(alg)
    assert any(x.denominator > 1 for m in (ad_e, ad_f) for x in m.flatten())
    nine = gl.load_mats(FIXTURES / "mats_free3_all9.json", free3)
    scaled_nine = [EndoMatrix.build([[x * s for x in row] for row in m.rows], m.degree, m.label)
                   for m, s in zip(nine, cycle([a, b, a * b]))]
    cases = [
        (alg, [ad_e, ad_h, ad_f], (True, None, None)),
        (alg, [ad_e, ad_h], (True, None, None)),
        (alg, [ad_e, ad_f], (False, (0, 1), "commutator escapes the span at the product degree")),
        (free3, scaled_nine, _reference_span_report(nine)),
    ]
    for algebra, mats, expected in cases:
        report = is_graded_lie_subspace(algebra, mats)
        assert (report.ok, report.witness, report.reason) == expected
        assert _reference_span_report(mats) == expected
    assert cases[-1][2][2] == "degrees do not commute but the commutator is nonzero"


# -- the index rule in the bracket, and exact structure data ---------------------------

@pytest.mark.parametrize("x, y", [({1.5: 1}, {2: 1}), ({True: 1}, {2: 1}),
                                  ({0.0: 1}, {2: 1}), ({0: 1}, {2.0: 1})])
def test_bracket_refuses_non_integer_indices(sl2, x, y):
    with pytest.raises(LieAlgebraError, match="basis index: expected an integer"):
        bracket(sl2, x, y)


@pytest.mark.parametrize("x, y", [({0: 1.5}, {1: 1}), ({0: True}, {1: 1}),
                                  ({0: 1}, {1: 0.0}), ({0: 1}, {1: False})])
def test_bracket_reads_coefficients_by_the_exact_scalar_rule(sl2, x, y):
    # bracket(sl2, {0: 1.5}, {1: 1}) returned {0: -3.0}, and True was read as 1
    with pytest.raises(LieAlgebraError, match="coefficient must be an int, a Fraction or a string"):
        bracket(sl2, x, y)


def test_bracket_reads_strings_and_int_subclasses_as_exact_scalars(sl2):
    class Small(int):
        pass
    want = bracket(sl2, {0: Fraction(3, 2)}, {1: 1})
    assert want == {0: -3}
    assert bracket(sl2, {0: "3/2"}, {1: Small(1)}) == want


@pytest.mark.parametrize("i, j", [(True, 2), (0, False), (1.0, 2), (0, 2.0)])
def test_bracket_basis_refuses_non_integer_indices(sl2, i, j):
    with pytest.raises(LieAlgebraError, match="basis index: expected an integer"):
        sl2.bracket_basis(i, j)


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, False])
def test_structure_constants_refuse_floats_and_bools(coeff):
    group, degrees, _ = sl2_raw()
    with pytest.raises(LieAlgebraError, match="coefficient must be"):
        GradedLieAlgebra(group, degrees, {(0, 1): [(0, coeff)]})
    with pytest.raises(LieAlgebraError, match="coefficient must be"):
        EndoMatrix.build([[1, coeff], [0, 1]])


@pytest.mark.parametrize("coeff, value", [(-2, Fraction(-2)), (Fraction(1, 3), Fraction(1, 3)),
                                          ("1/10", Fraction(1, 10)), ("-0.5", Fraction(-1, 2))])
def test_structure_constants_take_ints_fractions_and_strings(coeff, value):
    group, degrees, _ = sl2_raw()
    alg = GradedLieAlgebra(group, degrees, {(0, 1): [(0, coeff)]})
    assert alg.brackets == {(0, 1): ((0, value),)}
    assert EndoMatrix.build([[coeff]]).rows == ((value,),)


def test_structure_constants_refuse_non_rational_strings():
    group, degrees, _ = sl2_raw()
    with pytest.raises(LieAlgebraError, match="not a rational number"):
        GradedLieAlgebra(group, degrees, {(0, 1): [(0, "nan")]})
    with pytest.raises(LieAlgebraError, match="not a rational number"):
        EndoMatrix.build([["1/0"]])


def test_bracket_basis_refuses_an_index_out_of_range(sl2):
    with pytest.raises(LieAlgebraError, match=r"basis index out of range: \(3,0\)"):
        sl2.bracket_basis(3, 0)
    assert sl2.bracket_basis(1, 1) == []


def test_graded_span_refuses_a_matrix_of_the_wrong_size(sl2):
    with pytest.raises(GradedSpanError, match="is not 3x3"):
        is_graded_lie_subspace(sl2, [EndoMatrix.build([[1]], sl2.degree(1), "tiny")])


@pytest.mark.parametrize("rows", [[[0] * 3] * 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                         ids=["zero", "identity"])
@pytest.mark.parametrize("degree", [5, GroupSpec.finite([[0, 1], [1, 0]]).element(0)],
                         ids=["int", "other group"])
def test_block_check_refuses_a_degree_outside_the_algebras_group(sl2, rows, degree):
    # a raw TypeError or BackendMismatch from the degree product before, and
    # the zero matrix passed
    mat = EndoMatrix.build(rows, degree, "m")
    for check in (check_block_invariant, lambda alg, m: is_graded_lie_subspace(alg, [m])):
        with pytest.raises(GradedSpanError) as got:
            check(sl2, mat)
        assert str(got.value) == \
            "m has a declared degree that is not an element of the algebra's group"
