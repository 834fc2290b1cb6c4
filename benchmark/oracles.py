"""Reference answers computed without gradedlie.

Each function recomputes what a library call should return, from the
benchmark's own description of the input (inputs.AlgSpec), by a different
method where one exists.  The Smith-form oracle uses sympy and is imported
only after every timed phase, because importing sympy takes longer than
most set-ups.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from typing import Dict, List, Sequence, Tuple

from inputs import AlgSpec, support

PRIME = 2_147_483_647


class CheckFailed(AssertionError):
    """An output disagrees with its reference answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def rank_mod_p(rows: Sequence[Sequence[int]]) -> int:
    """Rank over GF(p) for a large prime; equal to the rank over Q for the
    small integer matrices used here."""
    m = [[int(x) % PRIME for x in row] for row in rows]
    rank, ncols = 0, len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], PRIME - 2, PRIME)
        m[rank] = [x * inv % PRIME for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [(x - f * y) % PRIME for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


# -- enveloping algebra ------------------------------------------------------------

def pbw_monomials(spec: AlgSpec, max_len: int) -> List[Tuple[int, ...]]:
    return [m for length in range(max_len + 1)
            for m in combinations_with_replacement(range(spec.n), length)
            if spec.word_survives(m)]


def ug_monomials(spec: AlgSpec, max_len: int) -> List[Tuple[int, ...]]:
    return [m for length in range(max_len + 1)
            for m in combinations_with_replacement(range(spec.n), length)
            if all(spec.letters_commute(a, b) for a, b in zip(m, m[1:]))]


def check_straightened(spec: AlgSpec, word: Sequence[int], coeff, terms: Dict) -> None:
    """PBW: the normal form of c*w is c*sorted(w) plus shorter monomials, all
    sorted and of the word's degree; a word with non-commuting degrees maps
    to zero."""
    word = tuple(word)
    if not spec.word_survives(word):
        expect(not terms, f"word {word} should straighten to zero")
        return
    top = {m: c for m, c in terms.items() if len(m) == len(word)}
    expect(top == {tuple(sorted(word)): coeff}, f"leading part of {word} is {top}")
    want = spec.word_degree(word)
    for m in terms:
        expect(len(m) <= len(word) and list(m) == sorted(m), f"monomial {m} not a normal form")
        expect(spec.word_degree(m) == want, f"monomial {m} has the wrong degree")


# -- free Lie algebras ---------------------------------------------------------------

def lyndon_words(size: int, max_len: int) -> List[Tuple[int, ...]]:
    """Duval's generation of all Lyndon words up to max_len, then sorted by
    length and lexicographically."""
    out, w = [], [-1]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == size - 1:
            w.pop()
    return sorted(out, key=lambda x: (len(x), x))


def commuting_words(spec_survives, size: int, length: int) -> List[Tuple[int, ...]]:
    return [w for w in product(range(size), repeat=length) if spec_survives(w)]


# -- grading analysis ------------------------------------------------------------------

def center_dim(spec: AlgSpec) -> int:
    """n minus the rank of x -> ([x, e_j])_j."""
    n = spec.n
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([_as_int(spec.bracket(i, j).get(k, 0)) for i in range(n)])
    return n - (rank_mod_p(rows) if n else 0)


def _as_int(c) -> int:
    if getattr(c, "denominator", 1) != 1:
        return c.numerator * pow(c.denominator, PRIME - 2, PRIME)
    return int(c)


def ad_rows(spec: AlgSpec, i: int) -> List[List[int]]:
    n = spec.n
    rows = [[0] * n for _ in range(n)]
    for j in range(n):
        for k, c in spec.bracket(i, j).items():
            rows[k][j] = c
    return rows


def presentation_matrix(spec: AlgSpec) -> List[List[int]]:
    """Relation lattice of the universal grading group, one column per
    ordered pair of support degrees whose components bracket nonzero, written
    additively as s1 + s2 - s3."""
    sup = [spec.elems[i] for i in support(spec)]
    pos = {d: p for p, d in enumerate(sup)}
    comps = {d: [i for i in range(spec.n) if spec.elems[i] == d] for d in sup}
    cols = []
    for a in sup:
        for b in sup:
            if any(spec.bracket(i, j) for i in comps[a] for j in comps[b]):
                col = [0] * len(sup)
                col[pos[a]] += 1
                col[pos[b]] += 1
                col[pos[spec.model.mul(a, b)]] -= 1
                cols.append(col)
    return [[col[r] for col in cols] for r in range(len(sup))]


def smith_oracle(matrix: List[List[int]]) -> Tuple[int, List[int]]:
    """(free rank, invariant factors >= 2) of Z^rows modulo the column span,
    by sympy."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import invariant_factors

    rows = len(matrix)
    if not matrix or not matrix[0]:
        return rows, []
    m = Matrix(matrix)
    factors = [abs(int(d)) for d in invariant_factors(m, domain=ZZ) if d != 0]
    return rows - len(factors), [d for d in factors if d >= 2]


def describe_group(free_rank: int, factors: List[int]) -> str:
    parts = ["Z"] if free_rank == 1 else ([f"Z^{free_rank}"] if free_rank > 1 else [])
    parts += [f"Z/{d}" for d in factors]
    return " x ".join(parts) if parts else "1"
