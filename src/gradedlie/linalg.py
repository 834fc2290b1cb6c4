"""Exact linear algebra over the rationals and the integers.

Matrices are small-scale.  rank is the one rational entry point: it checks
once that its rows have one length, scales each row to integers once and
holds it sparse for the one elimination kernel, sparse._sparse_echelon.
Every entry is read by the one exact-scalar rule (an integer, a Fraction,
or a string in the grammar of groups._rational_text): a float, a bool or
any other type raises TypeError, and a string outside the grammar
ValueError, each naming where the entry is.  Beside it: a zero-skipping
matrix product, an integer Smith normal form D = U*M*V and a row Hermite
normal form.

The Smith form tracks its transforms together with their inverses, the wide
column transforms V and V^-1 as sparse rows updated in place.  A column
step of the pass that clears the pivot row changes only that row while the
pivot column is zero below it, that is until the pass swaps a remainder
into the pivot column; the pivots, and so U, V and D, are those of the
full update.  Every call checks the diagonal and its divisibility chain,
U*U^-1 = V*V^-1 = I (integer matrices with integer inverses, hence
unimodular) and U*M*V = D, read as U*M = D*V^-1, with V and V^-1 read as
the sparse rows they are kept in; only the returned V is made dense.  The
integer kernels (Smith form, Hermite form) take int entries only and
coerce nothing.  Sparse vectors live in the sparse module.  No floating
point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import List, Sequence

from .groups import _is_integer, _rational_text
from .sparse import _sparse_echelon


def _exact_entry(x, where: str):
    """x by the library's one exact-scalar rule: an integer (by
    groups._is_integer) or a Fraction as it is, a string as the rational
    groups._rational_text reads in it.  A string it does not read raises
    ValueError, and any other entry (a float, a bool, None) TypeError, each
    naming where x is."""
    if isinstance(x, str):
        value = _rational_text(x)
        if value is None:
            raise ValueError(f"{where} is not a rational number: {x!r}")
        return value
    if isinstance(x, Fraction) or _is_integer(x):
        return x
    raise TypeError(f"{where} must be an int, a Fraction or a string, got {x!r}")


def _integer_row(row: Sequence, r: int = 0) -> List[int]:
    """The row times the lcm of its denominators, as ints.  Ints and
    Fractions are read as they are and the rest by _exact_entry, which
    names entry c as "row r, entry c"."""
    kinds = set(map(type, row))
    if kinds == {int}:
        return list(row)
    if not kinds <= {int, Fraction}:
        row = [_exact_entry(x, f"row {r}, entry {c}") for c, x in enumerate(row)]
    dens = [x.denominator for x in row]
    den = math.lcm(*dens)
    if den == 1:
        return [x.numerator for x in row]
    return [x.numerator * (den // d) for x, d in zip(row, dens)]


def _check_width(rows: Sequence[Sequence]) -> None:
    """Raise ValueError, naming the row and both lengths, unless every row
    has as many entries as the first."""
    width = len(rows[0]) if rows else 0
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"row {r} has {len(row)} entries, expected {width}")


def rank(rows: Sequence[Sequence]) -> int:
    """The rank of a matrix of exact scalars: the size of the echelon basis
    of its rows, each scaled to integers by _integer_row and held sparse."""
    _check_width(rows)
    return len(_sparse_echelon([{c: x for c, x in enumerate(_integer_row(row, r)) if x}
                                for r, row in enumerate(rows)]))


# -- integer matrices ---------------------------------------------------------

def _integer_matrix(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """A copy of the rows as lists of ints.  An entry that is not an integer
    by groups._is_integer (a bool, float, str or Fraction) raises TypeError
    naming its row and column, and a row of another length than the first
    raises ValueError."""
    m = [list(row) for row in rows]
    _check_width(m)
    for r, row in enumerate(m):
        if not set(map(type, row)) <= {int}:
            for c, x in enumerate(row):
                if not _is_integer(x):
                    raise TypeError(f"entry ({r},{c}) must be an integer, got {x!r}")
    return m


@dataclass
class SmithForm:
    """D = U * M * V with U, V unimodular and D diagonal.

    ``diag`` holds the min(m, n) diagonal entries of D; the nonzero ones are
    nonnegative and form a divisibility chain.
    """

    diag: List[int]
    U: List[List[int]]
    V: List[List[int]]


def _mat_mul(a, b):
    """Exact product of two dense matrices of ints or Fractions; zero
    entries of either factor are skipped, so sparse factors cost little."""
    cols = len(b[0]) if b else 0
    b_nonzero = [[(j, row[j]) for j in compress(range(cols), row)] for row in b]
    out = []
    for ai in a:
        oi = [0] * cols
        for f, bk in zip(ai, b_nonzero):
            if f:
                for j, x in bk:
                    oi[j] += f * x
        out.append(oi)
    return out


def _identity(n: int) -> List[List[int]]:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _transpose(rows: List[List[int]]) -> List[List[int]]:
    return [list(col) for col in zip(*rows)]


def smith_normal_form(rows: Sequence[Sequence[int]]) -> SmithForm:
    """Exact Smith normal form of an integer matrix, with postconditions
    verified on every call: U*M*V = D, D diagonal, the divisibility chain,
    and unimodularity of U and V.

    Unimodularity is certified by inverses tracked beside the transforms:
    every elementary operation on U or V applies its inverse to U^-1 or
    V^-1, and the check multiplies them out to the identity.  An integer
    matrix with an integer inverse has determinant +-1, so this is as exact
    as a determinant and costs two sparse products instead of an O(n^3)
    elimination.

    The column transforms V and V^-1 are tracked as sparse rows (dicts from
    column to nonzero entry), since a wide relation matrix leaves them
    mostly zero.  The check reads those rows, and only V is made dense, for
    the result."""
    M = _integer_matrix(rows)
    m = len(M)
    n = len(M[0]) if m else 0
    # V and U^-1 are kept transposed, so that every update of a transform or
    # an inverse is a row operation
    U, Ui_t = _identity(m), _identity(m)
    V_t = [{i: 1} for i in range(n)]
    Vi = [{i: 1} for i in range(n)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]
        Ui_t[i], Ui_t[j] = Ui_t[j], Ui_t[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        V_t[i], V_t[j] = V_t[j], V_t[i]
        Vi[i], Vi[j] = Vi[j], Vi[i]

    def add_row(dst, src, q):
        # row_dst += q * row_src, in place on the nonzero columns of row_src;
        # on U^-1, column_src -= q * column_dst
        row, srow = M[dst], M[src]
        for j in compress(range(n), srow):
            row[j] += q * srow[j]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]
        Ui_t[src] = [a - q * b for a, b in zip(Ui_t[src], Ui_t[dst])]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]
        Ui_t[i] = [-x for x in Ui_t[i]]

    t = 0
    while t < min(m, n):
        # the least |entry| of the block, first in row-major order; no entry
        # after a unit can be smaller, so the scan stops there
        piv, least = None, 0
        for i in range(t, m):
            for j, x in enumerate(M[i][t:], t):
                if x and (piv is None or abs(x) < least):
                    piv, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])

        while True:
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, m):
                if M[i][t] != 0:
                    q = M[i][t] // M[t][t]
                    add_row(i, t, -q)
                    if M[i][t] != 0:
                        swap_rows(t, i)  # strictly smaller remainder becomes pivot
                        dirty = True
            if dirty:
                continue
            # clear row t to the right: column_j -= q * column_t, and on V^-1,
            # row_t += q * row_j.  Column t is zero off the pivot row until
            # the first swap of this pass (the rows above t are zero from
            # column t on), so until then the update changes M[t] alone.  A
            # step changes no entry of row t right of its column, so the
            # nonzero columns are listed once, up front
            Mt = M[t]
            for j in list(compress(range(t + 1, n), Mt[t + 1:])):
                q = Mt[j] // Mt[t]
                if q:
                    if dirty:
                        for row in M:
                            row[j] -= q * row[t]
                    else:
                        Mt[j] -= q * Mt[t]
                    acc = V_t[j]
                    for k, x in V_t[t].items():
                        y = acc.get(k, 0) - q * x
                        if y:
                            acc[k] = y
                        else:
                            del acc[k]
                    acc = Vi[t]
                    for k, x in Vi[j].items():
                        y = acc.get(k, 0) + q * x
                        if y:
                            acc[k] = y
                        else:
                            del acc[k]
                if Mt[j] != 0:
                    swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            # enforce divisibility of the remaining block by the pivot; a
            # unit divides everything
            p = M[t][t]
            fixed = True
            if abs(p) != 1:
                for i in range(t + 1, m):
                    if any(M[i][j] % p != 0 for j in range(t + 1, n)):
                        add_row(t, i, 1)
                        fixed = False
                        break
            if fixed:
                break
        if M[t][t] < 0:
            negate_row(t)
        t += 1

    V = [[0] * n for _ in range(n)]
    for j, col in enumerate(V_t):
        for k, x in col.items():
            V[k][j] = x
    _check_smith(rows, M, U, V_t, _transpose(Ui_t), Vi)
    return SmithForm(diag=[M[i][i] for i in range(min(m, n))], U=U, V=V)


def _check_smith(orig, D, U, V_t, U_inv, Vi) -> None:
    """Raise ArithmeticError unless U*orig*V = D is a Smith normal form with
    U*U_inv = I and V*V^-1 = I.  V_t holds the columns of V and Vi the rows
    of V^-1, each a sparse row (a dict from index to entry).

    Once D is diagonal and V*V^-1 = I, U*orig*V = D is U*orig = D*V^-1:
    row i of U*orig is D[i][i] times row i of V^-1, and zero below row n."""
    m = len(D)
    n = len(D[0]) if m else 0
    for i, row in enumerate(D):
        if any(row[:i]) or any(row[i + 1:]):
            raise ArithmeticError("smith normal form postcondition failed: D not diagonal")
    # column i of V*V^-1 is the sum over k of V^-1[k][i] times column k of V;
    # it is column i of I when its entry i is 1 and every other entry is 0.
    # A unit row k of V^-1 adds column k of V to column k alone, a copy while
    # that is still empty; the rows are read last first, since the unit rows
    # of a wide relation matrix's V^-1 are its last
    cols: List[dict] = [{} for _ in range(n)]
    for k in reversed(range(n)):
        row, col_k = Vi[k], V_t[k]
        if len(row) == 1 and row.get(k) == 1 and not cols[k]:
            cols[k] = dict(col_k)
            continue
        col_k = col_k.items()
        for i, x in row.items():
            col = cols[i]
            for j, y in col_k:
                col[j] = col.get(j, 0) + x * y
    if _mat_mul(U, U_inv) != _identity(m) or any(
            col.pop(i, 0) != 1 or any(col.values()) for i, col in enumerate(cols)):
        raise ArithmeticError("smith normal form postcondition failed: transform not unimodular")
    for i, row in enumerate(_mat_mul(U, orig)):
        want = [0] * n
        if i < n:
            for j, x in Vi[i].items():
                want[j] = D[i][i] * x
        if row != want:
            raise ArithmeticError("smith normal form postcondition failed: U*M*V != D")
    diag = [D[i][i] for i in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        if a == 0 and b != 0:
            raise ArithmeticError("smith normal form postcondition failed: zero before nonzero")
        if a != 0 and b % a != 0:
            raise ArithmeticError("smith normal form postcondition failed: divisibility chain broken")


def row_hnf(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Row-style Hermite normal form (unimodular row operations only):
    echelon over Z, positive pivots, entries above each pivot reduced into
    [0, pivot).  Canonicalizes a basis of a row lattice."""
    M = _integer_matrix(rows)
    m = len(M)
    n = len(M[0]) if m else 0
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if M[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(M[i][c]))
            if i0 != r:
                M[r], M[i0] = M[i0], M[r]
            done = True
            for i in range(r + 1, m):
                if M[i][c] != 0:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c] != 0:
                        done = False
            if done:
                break
        if r < m and M[r][c] != 0:
            if M[r][c] < 0:
                M[r] = [-x for x in M[r]]
            for i in range(r):
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
    return M
