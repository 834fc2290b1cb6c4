"""Free graded Lie algebras at bounded degree.

The relatively free associative algebra on a degree-assigned alphabet has the
words with commuting degree multisets as a homogeneous basis; its Lie
subalgebra generated by the letters is free, with basis the standard
bracketings of Lyndon words whose letter degrees commute.  This module
enumerates both bases, certifies the bounded-degree Witt statement by the
distinct leading words of the non-increasing Lyndon products, and verifies
the free-abelian degree lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .groups import GroupElement, _degree_classes, _integer, generates_abelian_subgroup
from .liealg import GradedAlphabet
from .linalg import _concat, _sparse_add, _sparse_scale

Word = Tuple[int, ...]
Expansion = Dict[Word, Fraction]


class FreeLieError(ValueError):
    """An out-of-range request."""


def _check_length(value, least: int, what: str) -> None:
    """A word length is an integer (a float or a bool is refused) >= least."""
    try:
        _integer(value)
    except TypeError as exc:
        raise FreeLieError(f"{what}: {exc}") from None
    if value < least:
        raise FreeLieError(f"{what} must be >= {least}")


@dataclass
class FreeMonomialSpace:
    """Basis of one length-homogeneous component of the relatively free
    algebra: the words whose degree multiset generates an abelian subgroup."""

    length: int
    words: List[Word]
    index: Dict[Word, int]

    @property
    def dim(self) -> int:
        return len(self.words)


def free_monomial_basis(alphabet: GradedAlphabet, length: int) -> FreeMonomialSpace:
    _check_length(length, 0, "length")
    words = [w for w in product(range(alphabet.size), repeat=length)
             if alphabet.word_is_gas(w)]
    return FreeMonomialSpace(length, words, {w: p for p, w in enumerate(words)})


# -- Lyndon words --------------------------------------------------------------

def is_lyndon(word: Word) -> bool:
    """A word is Lyndon iff it is strictly smaller than all of its proper
    rotations."""
    if not word:
        return False
    for k in range(1, len(word)):
        if word[k:] + word[:k] <= word:
            return False
    return True


def _standard_factorization(word: Word) -> Tuple[Word, Word]:
    # right factor = lexicographically smallest proper suffix, which is the
    # longest proper Lyndon suffix
    v = min(word[k:] for k in range(1, len(word)))
    return word[:len(word) - len(v)], v


def standard_bracketing(word: Word) -> Expansion:
    """Associative expansion of the standard (right) bracketing of a Lyndon
    word; the word itself appears with coefficient 1."""
    if len(word) == 1:
        return {word: Fraction(1)}
    u, v = _standard_factorization(word)
    eu, ev = standard_bracketing(u), standard_bracketing(v)
    return _sparse_add(_concat(eu, ev), _sparse_scale(-1, _concat(ev, eu)))


@dataclass(frozen=True)
class LyndonElement:
    """A Lyndon word with commuting letter degrees, its bracketing expansion
    and its degree."""

    word: Word
    expansion: Tuple[Tuple[Word, Fraction], ...]
    degree: GroupElement

    def expansion_dict(self) -> Expansion:
        return dict(self.expansion)

    def __len__(self) -> int:
        return len(self.word)


def lyndon_basis(alphabet: GradedAlphabet, max_len: int) -> List[LyndonElement]:
    """Basis elements of the free graded Lie algebra up to the given word
    length: standard bracketings of Lyndon words whose letter-degree multiset
    generates an abelian subgroup.  Ordered by length then lexicographically."""
    _check_length(max_len, 1, "max_len")
    out: List[LyndonElement] = []
    for length in range(1, max_len + 1):
        for word in product(range(alphabet.size), repeat=length):
            if not is_lyndon(word) or not alphabet.word_is_gas(word):
                continue
            expansion = standard_bracketing(word)
            # every monomial shares the word's letter multiset, so the
            # projection to the relatively free algebra keeps all of them
            terms = tuple(sorted(expansion.items()))
            out.append(LyndonElement(word, terms, alphabet.word_degree(word)))
    return out


# -- enveloping-rank check -------------------------------------------------------

@dataclass
class WittRow:
    length: int
    lyndon_count: int
    pbw_rank: int
    monomial_dim: int
    passed: bool


@dataclass
class WittReport:
    rows: List[WittRow]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _pbw_products(elements: List[LyndonElement], total: int,
                  stop: int) -> List[List[int]]:
    """Non-increasing index sequences below `stop` into `elements` with word
    lengths summing to `total`."""
    if total == 0:
        return [[]]
    return [[p] + rest for p in range(stop) if len(elements[p]) <= total
            for rest in _pbw_products(elements, total - len(elements[p]), p + 1)]


def witt_check(alphabet: GradedAlphabet, max_len: int) -> WittReport:
    """For each length d <= max_len, compare the number of products of
    Lyndon basis elements of total length d, in non-increasing word order and
    with commuting letter degrees, with the dimension of the relatively free
    algebra in that length.  That number is the products' rank: each product
    is expanded, and its least word must be its Lyndon words concatenated,
    with coefficient 1, and must differ from every other product's (unique
    Lyndon factorization), else ArithmeticError is raised."""
    _check_length(max_len, 1, "max_len")
    elements = sorted(lyndon_basis(alphabet, max_len), key=lambda e: e.word)
    rows = []
    for d in range(1, max_len + 1):
        leading = set()
        for combo in _pbw_products(elements, d, len(elements)):
            word = tuple(i for p in combo for i in elements[p].word)
            # a product's words all hold its letters, so one with
            # non-commuting letters projects to zero and any other survives
            if not alphabet.word_is_gas(word):
                continue
            expansion: Expansion = {(): Fraction(1)}
            for p in combo:
                expansion = _concat(expansion, elements[p].expansion_dict())
            least = min(expansion, default=None)
            if least != word or expansion[least] != 1 or least in leading:
                raise ArithmeticError(f"witt_check postcondition failed: product {word} "
                                      f"does not lead with {word} once and coefficient 1")
            leading.add(least)
        dim = free_monomial_basis(alphabet, d).dim
        count = sum(1 for e in elements if len(e) == d)
        rows.append(WittRow(d, count, len(leading), dim, len(leading) == dim))
    return WittReport(rows)


# -- degree lift through a free abelian group -------------------------------------

def degree_product(degrees: Sequence[GroupElement],
                   indices: Sequence[int]) -> Optional[GroupElement]:
    """Ordered product of the referenced degrees, or None when the referenced
    degree set does not generate an abelian subgroup (in which case no
    well-defined product of the commutative exponent data exists)."""
    if not degrees and not indices:
        raise FreeLieError("empty degree list")
    if not all(type(i) is int and 0 <= i < len(degrees) for i in indices):
        raise FreeLieError(f"degree indices must be integers in [0, {len(degrees)}), "
                           f"got {list(indices)}")
    referenced = [degrees[i] for i in indices]
    if not generates_abelian_subgroup(set(referenced)):
        return None
    return (referenced or degrees)[0].spec.product(referenced)


@dataclass
class LiftViolation:
    word: Word
    reason: str


@dataclass
class LiftReport:
    words_checked: int
    violations: List[LiftViolation] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def abelian_lift_check(alphabet: GradedAlphabet, max_len: int) -> LiftReport:
    """Lift the alphabet to a free-abelian grading with one generator per
    distinct degree and verify the projection behaves on every word up to
    max_len: a word either dies in the relatively free algebra (non-commuting
    degree multiset, equivalently its lifted degree falls outside the domain
    of the partial product map) or its degree equals the partial product of
    its lifted degree."""
    _check_length(max_len, 1, "max_len")
    classes = _degree_classes(alphabet.degrees)
    lifted_alphabet = GradedAlphabet(alphabet.group, None, [d for d, _ in classes])
    letter_class = {i: cls for cls, (_, members) in enumerate(classes) for i in members}

    violations: List[LiftViolation] = []
    checked = 0
    for length in range(1, max_len + 1):
        for word in product(range(alphabet.size), repeat=length):
            checked += 1
            survives = alphabet.word_is_gas(word)
            # lifted degree of the word: its letters' degree classes, fed to
            # the partial product map in class order
            lifted_word = sorted(letter_class[i] for i in word)
            lifted = (lifted_alphabet.word_degree(lifted_word)
                      if lifted_alphabet.word_is_gas(lifted_word) else None)
            if survives != (lifted is not None):
                violations.append(LiftViolation(
                    word, "projection and lifted-degree domain disagree"))
                continue
            if survives and alphabet.word_degree(word) != lifted:
                violations.append(LiftViolation(
                    word, "degree differs from the lifted product"))
    return LiftReport(checked, violations)
