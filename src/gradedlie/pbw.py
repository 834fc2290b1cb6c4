"""Normal forms in the strong graded enveloping algebra.

Elements are exact rational combinations of sorted monomials in the basis
letters whose degree multisets generate abelian subgroups.  One rewrite
loop, _straighten, takes raw words to normal form: normalize straightens one
word and su_mul the concatenated products of two elements' terms.
pbw_basis and ug_spanning share one enumerator of sorted monomials, which
grows them one letter at a time along the commuting-letter graph and forms
no monomial it then drops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Sequence, Tuple

from .liealg import (GradedAlphabet, GradedLieAlgebra, LieAlgebraError, _check_basis_indices,
                     _check_indices, _coefficient)
from .sparse import _accumulate, _concat, _sparse_add, _sparse_scale

Monomial = Tuple[int, ...]


class SUElement:
    """Finite rational combination of sorted monomials; the zero element has
    no terms.  Addition and scalar multiplication are algebra-free; products
    need the structure constants (see su_mul).  Scalars are ints, Fractions
    or strings; a float or a bool raises LieAlgebraError."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Monomial, Fraction]] = None):
        self.terms: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = _coefficient(c)
                if c != 0:
                    self.terms[tuple(mono)] = c

    @staticmethod
    def zero() -> "SUElement":
        return SUElement()

    @staticmethod
    def unit() -> "SUElement":
        return SUElement({(): Fraction(1)})

    @staticmethod
    def monomial(mono: Sequence[int], coeff=1) -> "SUElement":
        return SUElement({tuple(mono): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def canonical_items(self) -> List[Tuple[Monomial, Fraction]]:
        # leading (longest) monomials first, lexicographic within a length
        return sorted(self.terms.items(), key=lambda t: (-len(t[0]), t[0]))

    def __eq__(self, other) -> bool:
        return isinstance(other, SUElement) and self.terms == other.terms

    def __add__(self, other: "SUElement") -> "SUElement":
        res = SUElement()
        res.terms = _sparse_add(self.terms, other.terms)
        return res

    def __sub__(self, other: "SUElement") -> "SUElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "SUElement":
        res = SUElement()
        res.terms = _sparse_scale(_coefficient(scalar), self.terms)
        return res

    def __repr__(self) -> str:
        if not self.terms:
            return "SUElement(0)"
        body = " + ".join(f"{c}*{m}" for m, c in self.canonical_items())
        return f"SUElement({body})"

    def render(self, alg: GradedLieAlgebra) -> str:
        """Serialize as "c1 * m1 + c2 * m2" with named monomials in the
        canonical (length, then lexicographic) order."""
        if not self.terms:
            return "0"
        return " + ".join(f"{c} * {alg.word_name(mono)}" for mono, c in self.canonical_items())


# monomial_degree(alg, mono) and word_is_gas(alg, word), as functions
monomial_degree = GradedAlphabet.word_degree
word_is_gas = GradedAlphabet.word_is_gas


def _leftmost_descent(word: Monomial) -> Optional[int]:
    for t in range(len(word) - 1):
        if word[t] > word[t + 1]:
            return t
    return None


def _straighten(alg: GradedLieAlgebra, words: Dict[Monomial, Fraction]) -> SUElement:
    """Straighten a rational combination of raw words into normal form; the
    one rewrite loop behind normalize and su_mul.

    Every letter must be a basis index: an integer in range, never a float
    or a bool.  A word whose degree multiset does not generate an abelian
    subgroup maps to zero.  Otherwise the leftmost strict descent e_b e_a is
    repeatedly rewritten as e_a e_b + [e_b, e_a]: the word with the two
    letters swapped, plus the words with the pair replaced by each term of
    the (b, a) entry of ordered_brackets.  Terminates because
    each step lowers (length, inversion count) lexicographically; equal
    adjacent letters are never swapped.
    """
    n = alg.n
    pending: Dict[Monomial, Fraction] = {}
    for w, c in words.items():
        for i in w:
            if type(i) is not int or not 0 <= i < n:
                _check_basis_indices(n, *w)
        if c and alg.word_is_gas(w):
            pending[w] = c
    result: Dict[Monomial, Fraction] = {}
    while pending:
        w = next(iter(pending))
        c = pending.pop(w)
        t = _leftmost_descent(w)
        if t is None:
            # c is nonzero: a sorted word's first arrival is stored as it is,
            # without the Fraction addition 0 + c of _accumulate
            if w in result:
                _accumulate(result, w, c)
            else:
                result[w] = c
            continue
        b, a = w[t], w[t + 1]  # b > a
        _accumulate(pending, w[:t] + (a, b) + w[t + 2:], c)
        # e_b e_a = e_a e_b + [e_b, e_a]
        for k, alpha in alg.ordered_brackets.get((b, a), ()):
            _accumulate(pending, w[:t] + (k,) + w[t + 2:], c * alpha)
    out = SUElement.__new__(SUElement)  # result holds no zero: no need to re-read it
    out.terms = result
    return out


def normalize(alg: GradedLieAlgebra, word: Sequence[int], coeff=1) -> SUElement:
    """Straighten a raw word (with scalar) into normal form."""
    return _straighten(alg, {tuple(word): _coefficient(coeff)})


def su_mul(alg: GradedLieAlgebra, x: SUElement, y: SUElement) -> SUElement:
    """Product in the strong enveloping algebra: concatenate monomials, then
    straighten."""
    return _straighten(alg, _concat(x.terms, y.terms))


def _sorted_monomials(alg: GradedLieAlgebra, max_len: int, clique: bool) -> List[Monomial]:
    """The sorted monomials of length <= max_len whose letters pairwise
    commute (clique) or whose adjacent letters commute, ordered by length
    then lexicographically.

    Each length is grown from the one before along the commuting-letter
    graph: a monomial carries, in increasing order, the letters b >= its
    last letter that may follow it, and its children append them in that
    order, so each length stays lexicographic.  A child may be followed by
    the letters >= b that commute with b and, for a clique, also with every
    earlier letter: those its parent allowed.  When every pair of letters
    commutes, both rules keep every sorted monomial (the classical case)."""
    _check_indices("max_len", max_len)
    if max_len < 0:
        raise LieAlgebraError("max_len must be >= 0")
    n, friends = alg.n, alg._commuting
    if all(len(f) == n for f in friends):
        return [mono for length in range(max_len + 1)
                for mono in combinations_with_replacement(range(n), length)]
    up = [tuple(c for c in range(b, n) if c in friends[b]) for b in range(n)]
    level: List[Tuple[Monomial, Tuple[int, ...]]] = [((), tuple(range(n)))]
    out: List[Monomial] = [()]
    for _ in range(max_len - 1):
        if clique:
            level = [(mono + (b,), tuple(filter(friends[b].__contains__, allowed[i:])))
                     for mono, allowed in level for i, b in enumerate(allowed)]
        else:
            level = [(mono + (b,), up[b]) for mono, allowed in level for b in allowed]
        out += [mono for mono, _ in level]
    if max_len:  # the longest monomials have no children, so carry no letters
        out += [mono + (b,) for mono, allowed in level for b in allowed]
    return out


def pbw_basis(alg: GradedLieAlgebra, max_len: int) -> List[Monomial]:
    """All sorted monomials of length <= max_len whose degree multiset
    generates an abelian subgroup, that is whose letters form a clique of
    the commuting-letter graph; ordered by length then lexicographically."""
    return _sorted_monomials(alg, max_len, True)


def ug_spanning(alg: GradedLieAlgebra, max_len: int) -> List[Monomial]:
    """Sorted monomials whose ADJACENT letter degrees commute.

    This enumerates a spanning set of the (non-strong) graded enveloping
    algebra; no independence claim is made and no arithmetic is offered on
    it.
    """
    return _sorted_monomials(alg, max_len, False)


@dataclass
class EmbedReport:
    """Outcome of the embedding check L -> SU(L)."""

    independent: bool
    pair_failures: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.independent and not self.pair_failures


def embed_check(alg: GradedLieAlgebra) -> EmbedReport:
    """Verify that the basis embeds: the n letters are linearly independent
    in SU(L), and for every ordered pair (i, j) the straightened commutator
    e_i e_j - e_j e_i equals the image of [e_i, e_j].

    Each letter is its own normal form (a one-letter word is sorted and its
    degree generates a cyclic, hence abelian, subgroup), so the letters are
    independent.  The (j, i) equation is the negation of the (i, j) one and
    the i == j one reads 0 = 0, so one straightening per pair i < j decides
    both orders; pair_failures lists the failing pairs in both orders,
    sorted.  The pairs are straightened on the algebra's _integral twin,
    whose constants are ints: a two-letter commutator takes one rewrite,
    linear in the constants, and the twin's are the algebra's times one
    nonzero D, so each pair fails on the twin iff it fails on the algebra."""
    alg = alg._integral
    failures = []
    for i in range(alg.n):
        for j in range(i + 1, alg.n):
            # e_j e_i first: its swap cancels e_i e_j before that is popped
            lhs = _straighten(alg, {(j, i): -1, (i, j): 1})
            if lhs.terms != {(k,): c for k, c in alg.ordered_brackets.get((i, j), ())}:
                failures += [(i, j), (j, i)]
    return EmbedReport(independent=True, pair_failures=sorted(failures))
