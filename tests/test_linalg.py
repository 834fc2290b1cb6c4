import functools
import random
from fractions import Fraction

import pytest
from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from gradedlie import linalg, sparse, unigroup
from gradedlie.groups import GroupSpec
from gradedlie.liealg import GradedLieAlgebra, validate
from gradedlie.linalg import (SmithForm, _check_smith, _mat_mul, det_int,
                              in_span, independent_subset, nullspace, rank,
                              row_hnf, rref, smith_normal_form, solve)
from test_freelie import dense_witt_rows


def random_int_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


# -- rational elimination ---------------------------------------------------------

def test_rref_known():
    m, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert pivots == [0, 1]
    assert m[0] == [1, 0, -1]
    assert m[1] == [0, 1, 2]


def test_rank_known():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([]) == 0


def test_nullspace_annihilates():
    rng = random.Random(3)
    for _ in range(40):
        rows = random_int_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        ncols = len(rows[0])
        basis = nullspace(rows, ncols)
        assert len(basis) == ncols - rank(rows)
        for v in basis:
            for row in rows:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


def test_nullspace_no_constraints():
    basis = nullspace([], 3)
    assert len(basis) == 3


def test_solve_consistent_and_not():
    x = solve([[1, 1], [1, -1]], [3, 1])
    assert x == [2, 1]
    assert solve([[1, 1], [2, 2]], [1, 3]) is None


def test_in_span():
    vs = [[1, 0, 1], [0, 1, 1]]
    coeffs = in_span(vs, [2, 3, 5])
    assert coeffs == [2, 3]
    assert in_span(vs, [0, 0, 1]) is None
    assert in_span([], [0, 0]) == []
    assert in_span([], [1, 0]) is None


def test_independent_subset():
    vs = [[1, 0], [2, 0], [0, 1], [1, 1]]
    assert independent_subset(vs) == [0, 2]
    rng = random.Random(5)
    for _ in range(30):
        vs = random_int_matrix(rng, 6, 4)
        kept = independent_subset(vs)
        assert len(kept) == rank(vs)
        assert rank([vs[i] for i in kept]) == len(kept)


def test_independent_subset_keeps_greedy_order():
    # vector i is kept exactly when it raises the rank of vs[:i]; the order
    # decides which "ad e_i" labels the inner derivations carry
    rng = random.Random(11)
    cases = [[], [[]], [[0, 0, 0]] * 4]
    for _ in range(200):
        vs = random_int_matrix(rng, rng.randint(1, 8), rng.randint(1, 5), bound=2)
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randrange(len(vs)), rng.randrange(len(vs))
            vs.insert(rng.randint(0, len(vs)), [x - 2 * y for x, y in zip(vs[a], vs[b])])
        if rng.random() < 0.2:
            vs[rng.randrange(len(vs))] = [0] * len(vs[0])
        cases.append(vs)
    for vs in cases:
        assert independent_subset(vs) == [
            i for i in range(len(vs)) if rank(vs[:i + 1]) > rank(vs[:i])]


RAGGED = {
    "rank_short_row_after_zero_row": (rank, ([[0, 0], [1]],), "row 1 has 1 entries, expected 2"),
    "rank_short_row": (rank, ([[1, 2], [3]],), "row 1 has 1 entries, expected 2"),
    "rref": (rref, ([[1], [1, 2]],), "row 1 has 2 entries, expected 1"),
    "nullspace": (nullspace, ([[1, 2]], 1), "row 0 has 2 entries, expected 1"),
    "solve_long_rhs": (solve, ([[1, 2]], [1, 2]),
                       "right-hand side has 2 entries, expected 1"),
    "solve_short_rhs": (solve, ([[1, 2], [3, 4]], [1]),
                        "right-hand side has 1 entries, expected 2"),
    "solve_short_row": (solve, ([[1, 2], [3]], [1, 2]), "row 1 has 1 entries, expected 2"),
    "in_span_short_target": (in_span, ([[1, 0]], [1]), "vector 0 has 2 entries, expected 1"),
    "in_span_short_vector": (in_span, ([[1, 2], [1]], [1, 2]),
                             "vector 1 has 1 entries, expected 2"),
    "independent_subset": (independent_subset, ([[1, 2], [1]],),
                           "vector 1 has 1 entries, expected 2"),
}


@pytest.mark.parametrize("case", list(RAGGED))
def test_elimination_refuses_ragged_input(case):
    # each of these returned a wrong answer or raised a raw IndexError
    entry_point, args, message = RAGGED[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry_point(*args)


# -- the exact-scalar rule -----------------------------------------------------------

class Small(int):
    pass


# (entry point, arguments, error, message); each bad entry is at row 1, column 0
# of what the caller passed, and none of them was refused before
INEXACT = {
    "rref_underscore": (rref, ([[1, 2], ["1_0", 1]],), ValueError,
                        "row 1, entry 0 is not a rational number: '1_0'"),
    "rref_underflow": (rref, ([[1, 2], [1e-400, 1]],), TypeError,
                       "row 1, entry 0 must be an int, a Fraction or a string, got 0.0"),
    "rref_bool": (rref, ([[1, 2], [True, 2]],), TypeError,
                  "row 1, entry 0 must be an int, a Fraction or a string, got True"),
    "rank_zero_float_row": (rank, ([[1, 2], [0.0, 0]],), TypeError,
                            "row 1, entry 0 must be an int, a Fraction or a string, got 0.0"),
    "rank_false_row": (rank, ([[1, 2], [False, 0]],), TypeError,
                       "row 1, entry 0 must be an int, a Fraction or a string, got False"),
    "rank_empty_string": (rank, ([[1, 2], ["", 0]],), ValueError,
                          "row 1, entry 0 is not a rational number: ''"),
    "nullspace_exponent": (nullspace, ([[1, 2], ["1e3", 0]], 2), ValueError,
                           "row 1, entry 0 is not a rational number: '1e3'"),
    "nullspace_zero_denominator": (nullspace, ([[1, 2], ["1/0", 0]], 2), ValueError,
                                   "row 1, entry 0 is not a rational number: '1/0'"),
    "solve_none": (solve, ([[1, 2], [None, 1]], [0, 1]), TypeError,
                   "row 1, entry 0 must be an int, a Fraction or a string, got None"),
    "solve_rhs": (solve, ([[1, 2], [3, 1]], [0, 0.5]), TypeError,
                  "right-hand side entry 1 must be an int, a Fraction or a string, got 0.5"),
    "in_span_vector": (in_span, ([[1, 2], [1.0, 0]], [1, 2]), TypeError,
                       "vector 1, entry 0 must be an int, a Fraction or a string, got 1.0"),
    "in_span_target": (in_span, ([[1, 2], [1, 0]], [1, True]), TypeError,
                       "target entry 1 must be an int, a Fraction or a string, got True"),
    "independent_subset": (independent_subset, ([[1, 2], ["+1", 0]],), ValueError,
                           "vector 1, entry 0 is not a rational number: '+1'"),
}


@pytest.mark.parametrize("case", list(INEXACT))
def test_elimination_reads_entries_by_the_exact_scalar_rule(case):
    entry_point, args, error, message = INEXACT[case]
    with pytest.raises(error) as got:
        entry_point(*args)
    assert str(got.value) == message


def test_elimination_reads_strings_in_the_grammar_and_int_subclasses():
    assert rref([[" -2/4 ", "007.250"], [Small(2), 1]]) == \
        ([[1, 0], [0, 1]], [0, 1])
    assert rref([["-1/2", "29/4"]]) == ([[1, Fraction(-29, 2)]], [0])
    assert rank([["0", "0"], [0, Fraction(0)]]) == 0
    assert solve([[2, "1/3"]], ["5/6"]) == [Fraction(5, 12), 0]
    assert in_span([["1/2", 0], [0, Small(1)]], ["3", "-4"]) == [6, -4]
    assert independent_subset([[0, "0"], ["1/2", 1], [Small(1), 2]]) == [1]


def test_independent_subset_names_the_first_bad_entry_in_vector_order():
    # read on the transposed matrix, this named vector 1, entry 0
    with pytest.raises(ValueError) as got:
        independent_subset([[1, "x"], ["y", 0]])
    assert str(got.value) == "vector 0, entry 1 is not a rational number: 'x'"


@pytest.mark.parametrize("ncols", [True, 1.0, "1", None])
def test_nullspace_reads_ncols_by_the_integer_rule(ncols):
    # nullspace([], True) returned [[Fraction(1)]]
    with pytest.raises(TypeError, match="^ncols: expected an integer, got "):
        nullspace([], ncols)


def test_nullspace_refuses_a_negative_ncols():
    # nullspace([], -1) returned []
    with pytest.raises(ValueError, match="^ncols must not be negative, got -1$"):
        nullspace([], -1)
    assert nullspace([], Small(1)) == [[1]]


def test_sparse_echelon_decides_span_membership_like_in_span():
    rng = random.Random(61)
    seen = {True: 0, False: 0}
    for _ in range(300):
        width = rng.randrange(1, 9)

        def vector():
            return {k: rng.choice((-3, -1, 1, 2, 4)) for k in range(width) if rng.random() < 0.4}
        pool = [vector() for _ in range(rng.randrange(5))]
        if pool and rng.random() < 0.5:  # a combination of the pool, often in it
            target = {}
            for v in pool:
                f = rng.randint(-2, 2)
                for k, x in v.items():
                    sparse._accumulate(target, k, f * x)
        else:
            target = vector()
        basis = sparse._sparse_echelon(pool)
        assert len(basis) == rank([[v.get(k, 0) for k in range(width)] for v in pool])
        inside = not sparse._sparse_reduce(basis, target)
        want = in_span([[v.get(k, 0) for k in range(width)] for v in pool],
                       [target.get(k, 0) for k in range(width)]) is not None
        assert inside == want
        seen[inside] += 1
    assert min(seen.values()) >= 50, seen


# -- integer determinant -----------------------------------------------------------

def _det_fraction(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def test_det_int_against_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 6)
        m = random_int_matrix(rng, n, n)
        assert det_int(m) == _det_fraction(m)
    assert det_int([]) == 1


# -- smith normal form --------------------------------------------------------------

def test_smith_known_values():
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]).diag == [2, 2, 156]
    assert smith_normal_form([[1, 2], [3, 4]]).diag == [1, 2]
    assert smith_normal_form([[6, 0], [0, 10]]).diag == [2, 30]
    assert smith_normal_form([[0, 1, 0], [0, 1, 0]]).diag == [1, 0]


def test_smith_transforms_pinned():
    form = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert form == SmithForm(diag=[2, 2, 156],
                             U=[[1, 0, 0], [32, -1, -7], [1221, -38, -267]],
                             V=[[1, 44, -90], [0, 1, -2], [0, -23, 47]])


def test_smith_zero_and_empty():
    f = smith_normal_form([[0, 0], [0, 0]])
    assert f.diag == [0, 0]
    f = smith_normal_form([])
    assert f.diag == [] and f.U == [] and f.V == []
    f = smith_normal_form([[], []])  # 2x0
    assert f.diag == []
    assert det_int(f.U) in (1, -1)


def test_smith_matches_sympy_and_postconditions():
    rng = random.Random(11)
    for _ in range(50):
        rows_n = rng.randrange(1, 5)
        cols_n = rng.randrange(1, 5)
        m = random_int_matrix(rng, rows_n, cols_n)
        form = smith_normal_form(m)  # internal postconditions run every call
        ref = sympy_snf(Matrix(m))
        ref_diag = [abs(int(ref[i, i])) for i in range(min(rows_n, cols_n))]
        # sympy may order 0/1 entries differently across versions; compare
        # the multiset of nonzero invariant factors plus the rank
        assert sorted(d for d in form.diag if d) == sorted(d for d in ref_diag if d)
        assert det_int(form.U) in (1, -1)
        assert det_int(form.V) in (1, -1)


def test_smith_unimodularity_on_fixture_style_matrices():
    # relation-matrix shapes: entries in {-1, 0, 1, 2}, more rows than cols
    rng = random.Random(13)
    for _ in range(40):
        m = [[rng.choice([-1, 0, 0, 1, 1, 2]) for _ in range(3)] for _ in range(6)]
        form = smith_normal_form(m)
        assert det_int(form.U) in (1, -1)
        assert det_int(form.V) in (1, -1)
        for a, b in zip(form.diag, form.diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0


def _matrix_lie_algebra(n, traceless):
    """gl_n on the units E_ij, or sl_n with H_k = E_kk - E_k+1,k+1 in place
    of the diagonal units, graded by e_i - e_j in Z^n."""
    units = [(i, j) for i in range(n) for j in range(n) if i != j]
    if traceless:
        diagonal = [{(k, k): 1, (k + 1, k + 1): -1} for k in range(n - 1)]
    else:
        diagonal = [{(k, k): 1} for k in range(n)]
    basis = [{u: 1} for u in units] + diagonal

    def dense(x):
        return [[x.get((i, j), 0) for j in range(n)] for i in range(n)]

    def coordinates(c):
        off = [c[i][j] for i, j in units]
        if traceless:  # sum_k d_k H_k has diagonal entry d_i - d_(i-1)
            return off + [sum(c[i][i] for i in range(k + 1)) for k in range(n - 1)]
        return off + [c[k][k] for k in range(n)]

    group = GroupSpec.free_abelian(n)
    degrees = [group.parse([int(t == i) - int(t == j) for t in range(n)]) for i, j in units]
    degrees += [group.identity()] * len(diagonal)
    brackets = {}
    for p in range(len(basis)):
        for q in range(p + 1, len(basis)):
            a, b = dense(basis[p]), dense(basis[q])
            ab, ba = _mat_mul(a, b), _mat_mul(b, a)
            comm = [[x - y for x, y in zip(r, s)] for r, s in zip(ab, ba)]
            brackets[(p, q)] = [(k, c) for k, c in enumerate(coordinates(comm)) if c]
    return GradedLieAlgebra(group, degrees, brackets)


def _relation_matrices(monkeypatch, alg):
    """The integer matrices that abelianizing alg's universal group passes
    to the Smith form."""
    seen = []

    def record(rows):
        seen.append([list(row) for row in rows])
        return smith_normal_form(rows)

    monkeypatch.setattr(unigroup, "smith_normal_form", record)
    unigroup.abelianize(unigroup.universal_presentation(alg))
    monkeypatch.undo()
    return seen


def test_smith_matches_sympy_with_unimodular_transforms(monkeypatch):
    rng = random.Random(23)
    matrices = [random_int_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
                for _ in range(40)]
    for traceless in (False, True):  # gl4 and sl4: 13 x 84
        alg = _matrix_lie_algebra(4, traceless)
        assert validate(alg).passed
        relations = _relation_matrices(monkeypatch, alg)
        assert [(len(m), len(m[0])) for m in relations] == [(13, 84)]
        matrices += relations
    for m in matrices:
        form = smith_normal_form(m)
        ref = sympy_snf(Matrix(m))
        ref_diag = [abs(int(ref[i, i])) for i in range(min(ref.shape))]
        assert sorted(d for d in form.diag if d) == sorted(d for d in ref_diag if d)
        d = _mat_mul(_mat_mul(form.U, m), form.V)
        assert [d[i][i] for i in range(len(form.diag))] == form.diag
        # the tracked-inverse certificate agrees with the determinant
        assert det_int(form.U) in (1, -1)
        assert det_int(form.V) in (1, -1)


def _entry(matrix, r, c):
    """Entry (r, c) of a dense matrix or of sparse rows (dicts)."""
    row = matrix[r]
    return row.get(c, 0) if isinstance(row, dict) else row[c]


def _with_entry(matrix, r, c, x):
    """A copy of a dense matrix or of sparse rows with entry (r, c) set to x;
    a sparse row holds no zero, so x = 0 removes the key."""
    bad = [dict(row) if isinstance(row, dict) else list(row) for row in matrix]
    bad[r][c] = x
    if isinstance(bad[r], dict) and x == 0:
        del bad[r][c]
    return bad


def test_smith_check_rejects_corrupted_transforms_and_inverses(monkeypatch):
    captured = []
    monkeypatch.setattr(linalg, "_check_smith",
                        lambda *args: captured.append(args) or _check_smith(*args))
    smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # orig, D, U, V, U^-1, V^-1; V as its columns and V^-1 as its rows, sparse
    args = list(captured[0])
    _check_smith(*args)
    for pos in range(2, 6):  # U, V, U^-1, V^-1 in turn
        bad = _with_entry(args[pos], 0, 0, _entry(args[pos], 0, 0) + 1)
        with pytest.raises(ArithmeticError):
            _check_smith(*args[:pos], bad, *args[pos + 1:])
    for pos in (3, 5):  # in the sparse rows, a new key and a removed key
        rows = args[pos]
        r, c = next((r, c) for r, row in enumerate(rows) for c in range(len(rows)) if c not in row)
        with pytest.raises(ArithmeticError):
            _check_smith(*args[:pos], _with_entry(rows, r, c, 1), *args[pos + 1:])
        r, c = next((r, c) for r, row in enumerate(rows) for c in row)
        with pytest.raises(ArithmeticError):
            _check_smith(*args[:pos], _with_entry(rows, r, c, 0), *args[pos + 1:])
    # U*M*V = D holds for U = [2] on the zero matrix, but U is not unimodular
    with pytest.raises(ArithmeticError, match="not unimodular"):
        _check_smith([[0]], [[0]], [[2]], [{0: 1}], [[1]], [{0: 1}])
    with pytest.raises(ArithmeticError, match="not unimodular"):
        _check_smith([[0]], [[0]], [[1]], [{0: 3}], [[1]], [{0: 1}])


@pytest.mark.parametrize("entry", [1.5, 2.0, Fraction(3, 2), Fraction(2), True, False, "3", None])
def test_integer_kernels_refuse_non_integer_entries(entry):
    for kernel in (smith_normal_form, row_hnf, det_int):
        with pytest.raises(TypeError, match=r"entry \(1,0\) must be an integer"):
            kernel([[1, 2], [entry, 4]])


def test_integer_kernels_do_not_truncate():
    with pytest.raises(TypeError, match=r"entry \(0,0\)"):
        smith_normal_form([[1.5, 0], [0, 2]])
    with pytest.raises(TypeError, match=r"entry \(0,0\)"):
        row_hnf([[2.7, 1]])
    with pytest.raises(TypeError, match=r"entry \(0,0\)"):
        det_int([[2.5, 0], [0, 2]])


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]])
def test_integer_kernels_refuse_ragged_rows(rows):
    for kernel in (smith_normal_form, row_hnf, det_int):
        with pytest.raises(ValueError, match="row [12] has [0-9]+ entries, expected"):
            kernel(rows)


def test_integer_kernels_take_tuples_and_int_subclasses():
    class Small(int):
        pass
    assert smith_normal_form(((2, 4), (Small(6), 8))).diag == [2, 4]
    assert row_hnf(((Small(2), 1), (1, 1))) == [[1, 0], [0, 1]]
    assert det_int(((Small(2), 1), (1, 1))) == 1


# -- hermite row normalization --------------------------------------------------------

def test_row_hnf_known():
    assert row_hnf([[-1, 0, 1]]) == [[1, 0, -1]]
    assert row_hnf([[2, 1], [1, 1]]) == [[1, 0], [0, 1]]
    assert row_hnf([[0, 0], [0, 0]]) == [[0, 0], [0, 0]]


def _in_row_lattice(m, v):
    """Integer solvability of x*M = v, decided through the Smith form:
    with D = U*M*V, the system has an integer solution iff the coordinates
    of v*V are divisible by the invariant factors (and vanish past the
    rank)."""
    form = smith_normal_form(m)
    rows_n, cols_n = len(m), len(v)
    vv = [sum(v[i] * form.V[i][j] for i in range(cols_n)) for j in range(cols_n)]
    for j in range(cols_n):
        d = form.diag[j] if j < min(rows_n, cols_n) else 0
        if d == 0:
            if vv[j] != 0:
                return False
        elif vv[j] % d != 0:
            return False
    return True


def test_row_hnf_idempotent_and_rank_preserving():
    rng = random.Random(17)
    for _ in range(40):
        m = random_int_matrix(rng, rng.randrange(1, 4), rng.randrange(1, 5))
        h = row_hnf(m)
        assert row_hnf(h) == h
        assert rank(h) == rank(m)
        # same row lattice, membership decided through the Smith form
        for src, dst in ((m, h), (h, m)):
            for row in src:
                assert _in_row_lattice(dst, row)


# -- the fraction-free kernel against the Fraction elimination it replaced -------------

def _to_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def reference_rref(rows):
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m = _to_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@functools.lru_cache(maxsize=4)
def _cached_reference_rref(rows):
    return reference_rref(rows)


def _ref(rows):
    """reference_rref, shared by the reference entry points on one matrix
    (read only)."""
    return _cached_reference_rref(tuple(map(tuple, rows)))


# the other entry points as they were written over the Fraction elimination

def reference_nullspace(rows, ncols):
    if not rows:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    m, pivots = _ref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def reference_solve(rows, rhs):
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    m, pivots = _ref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def reference_in_span(vectors, target):
    tgt = [Fraction(x) for x in target]
    if not vectors:
        return [] if all(x == 0 for x in tgt) else None
    live = [d for d, t in enumerate(tgt) if t or any(v[d] for v in vectors)]
    if not live:
        return [Fraction(0)] * len(vectors)
    return reference_solve([[v[d] for v in vectors] for d in live], [tgt[d] for d in live])


def _fractions_only(value):
    """value (nested lists, ints, None) holds no entry but Fractions and
    pivot indices; in particular no float."""
    if isinstance(value, list):
        return all(map(_fractions_only, value))
    return value is None or type(value) in (Fraction, int)


def _assert_kernel_matches_reference(rows, ncols, rhs):
    """All six entry points on rows agree exactly with the Fraction
    elimination; in_span is asked for rhs in the span of the columns."""
    columns = [list(col) for col in zip(*rows)] if rows else []
    got = (rref(rows), rank(rows), nullspace(rows, ncols), solve(rows, rhs),
           in_span(columns, rhs), independent_subset(rows))
    want = (_ref(rows), len(_ref(rows)[1]), reference_nullspace(rows, ncols),
            reference_solve(rows, rhs), reference_in_span(columns, rhs),
            _ref(list(zip(*rows)))[1])
    assert got == want
    matrix, _ = got[0]
    assert all(type(x) is Fraction for row in matrix for x in row)
    for vector in (*got[2], got[3], got[4]):
        assert vector is None or all(type(x) is Fraction for x in vector)
    assert _fractions_only([list(got[0][1]), got[1], got[5]])


def _random_exact_matrix(rng):
    """A 0-9 by 0-9 matrix of ints, Fractions or strings (or a mix, with
    mixed denominators), often of low rank, with zero rows and columns and
    negative entries; returns (rows, ncols, features)."""
    nrows, ncols = rng.randrange(10), rng.randrange(10)
    kind = rng.choice(("int", "fraction", "string", "mixed"))
    dens = (1,) if kind == "int" else (1, 2, 3, 4, 6, 7, 9)
    values = [[Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.6 else
               Fraction(0) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.4:  # rows combined from a few of them
        base = values[:rng.randrange(1, nrows)]
        values = [[sum((rng.randint(-2, 2) * b[c] for b in base), Fraction(0))
                   for c in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        values[rng.randrange(nrows)] = [Fraction(0)] * ncols
    if ncols and rng.random() < 0.3:
        dead = rng.randrange(ncols)
        for row in values:
            row[dead] = Fraction(0)

    def spell(v):
        how = kind if kind != "mixed" else rng.choice(("int", "fraction", "string"))
        if how == "int" and v.denominator == 1:
            return int(v)
        return str(v) if how == "string" else v

    rows = [[spell(v) for v in row] for row in values]
    features = {kind}
    if any(not any(row) for row in values):
        features.add("zero row")
    if any(not any(row[c] for row in values) for c in range(ncols)) and nrows:
        features.add("zero column")
    first = reference_rref(rows)[1][:1]
    if first and next(row[first[0]] for row in values if row[first[0]]) < 0:
        features.add("negative pivot")
    if len({v.denominator for row in values for v in row}) > 2:
        features.add("mixed denominators")
    return rows, ncols, features


def _random_rhs(rng, values, ncols):
    """Half the time A x for a random x (a consistent system), otherwise
    random."""
    if rng.random() < 0.5:
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
        return [sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0)) for row in values]
    return [rng.choice((0, 1, -2, Fraction(3, 4), "5/6")) for _ in values]


def test_kernel_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(41)
    seen = set()
    for _ in range(300):
        rows, ncols, features = _random_exact_matrix(rng)
        seen |= features
        _assert_kernel_matches_reference(rows, ncols, _random_rhs(rng, rows, ncols))
    assert seen >= {"int", "fraction", "string", "mixed", "zero row", "zero column",
                    "negative pivot", "mixed denominators"}


def test_kernel_matches_fraction_elimination_on_gl4_ad_columns():
    alg = _matrix_lie_algebra(4, False)
    n = alg.n
    flats = [[dict(alg.bracket_basis(i, j)).get(k, Fraction(0)) for k in range(n)
              for j in range(n)] for i in range(n)]
    columns = [list(col) for col in zip(*flats)]  # one column per ad e_i
    rhs = [sum(col[:3]) - col[-1] for col in columns]  # in the span of the ad maps
    _assert_kernel_matches_reference(columns, n, rhs)
    assert independent_subset(flats) == _ref(columns)[1]
    assert rank(columns) == n - 1  # the center of gl4 is the identity


def test_kernel_matches_fraction_elimination_on_witt_rows(sl2):
    rows = dense_witt_rows(sl2, 5)
    assert len(rows) == len(rows[0]) == 243
    rhs = [Fraction(i % 5 - 2, 1 + i % 3) for i in range(len(rows))]
    _assert_kernel_matches_reference(rows, len(rows[0]), rhs)


def test_smith_check_rejects_a_changed_entry_anywhere(monkeypatch):
    captured = []
    monkeypatch.setattr(linalg, "_check_smith",
                        lambda *args: captured.append(args) or _check_smith(*args))
    rng = random.Random(29)
    for _ in range(25):
        smith_normal_form(random_int_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7)))
    sparse_cases = {"new key": 0, "removed key": 0}
    for args in captured:  # orig, D, U, V, U^-1, V^-1; V and V^-1 sparse rows
        _check_smith(*args)
        for pos in range(6):
            rows = args[pos]
            width = len(rows) if pos in (3, 5) else len(rows[0])
            r, c = rng.randrange(len(rows)), rng.randrange(width)
            bad = _with_entry(rows, r, c, _entry(rows, r, c) + rng.choice((-2, -1, 1, 3)))
            with pytest.raises(ArithmeticError):
                _check_smith(*args[:pos], bad, *args[pos + 1:])
        for pos in (3, 5):
            rows = args[pos]
            zeros = [(r, c) for r, row in enumerate(rows) for c in range(len(rows)) if c not in row]
            if zeros:
                r, c = rng.choice(zeros)
                with pytest.raises(ArithmeticError):
                    _check_smith(*args[:pos], _with_entry(rows, r, c, rng.choice((-1, 2))),
                                 *args[pos + 1:])
                sparse_cases["new key"] += 1
            r, c = rng.choice([(r, c) for r, row in enumerate(rows) for c in row])
            with pytest.raises(ArithmeticError):
                _check_smith(*args[:pos], _with_entry(rows, r, c, 0), *args[pos + 1:])
            sparse_cases["removed key"] += 1
    assert min(sparse_cases.values()) >= 20, sparse_cases


# -- the elimination entry points without rows -------------------------------------

def test_entry_points_without_rows_or_coordinates():
    assert in_span([[], []], []) == [0, 0]
    assert in_span([[]], []) == [0]
    assert in_span([], []) == []
    assert in_span([], [0, Fraction(0)]) == []
    assert in_span([], [0, 1]) is None
    assert solve([], []) == []
    assert nullspace([], 0) == []
    assert nullspace([], 2) == [[1, 0], [0, 1]]
