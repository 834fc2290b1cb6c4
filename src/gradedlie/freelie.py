"""Free graded Lie algebras at bounded degree.

The relatively free associative algebra on a degree-assigned alphabet has the
words with commuting degree multisets as a homogeneous basis; its Lie
subalgebra generated by the letters is free, with basis the standard
bracketings of Lyndon words whose letter degrees commute.  This module
enumerates both bases, growing the words whose letters pairwise commute one
letter at a time along the commuting-letter graph (every word, when all
letters commute), certifies the bounded-degree Witt statement from the
Lyndon words alone (each element is homogeneous and leads with its own word,
so a non-increasing product leads with its words concatenated and none is
expanded), and verifies the free-abelian degree lift on every word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .groups import (GroupElement, _degree_classes, _integer, _is_integer,
                     generates_abelian_subgroup)
from .liealg import GradedAlphabet
from .sparse import _concat, _sparse_add, _sparse_scale

Word = Tuple[int, ...]
Expansion = Dict[Word, Fraction]


class FreeLieError(ValueError):
    """An out-of-range request."""


def _check_length(value, least: int, what: str) -> None:
    """A word length is an integer (groups._integer) >= least."""
    if _integer(value, what, FreeLieError) < least:
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


def _clique_words(alphabet: GradedAlphabet, length: int) -> List[Word]:
    """The words of one length whose letters pairwise commute, in
    lexicographic order.

    Each length is grown from the one before along the commuting-letter
    graph: a word carries, in increasing order, the letters that commute
    with each of its letters, its children append them in that order, and
    a child carries those of them that commute with the appended letter.
    When every pair of letters commutes (the classical case), every word
    qualifies."""
    n, friends = alphabet.size, alphabet._commuting
    if all(len(f) == n for f in friends):
        return list(product(range(n), repeat=length))
    if not length:
        return [()]
    level: List[Tuple[Word, Tuple[int, ...]]] = [((), tuple(range(n)))]
    for _ in range(length - 1):
        level = [(word + (b,), tuple(filter(friends[b].__contains__, allowed)))
                 for word, allowed in level for b in allowed]
    # the words of the last length have no children, so carry no letters
    return [word + (b,) for word, allowed in level for b in allowed]


def free_monomial_basis(alphabet: GradedAlphabet, length: int) -> FreeMonomialSpace:
    _check_length(length, 0, "length")
    words = _clique_words(alphabet, length)
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
        for word in _clique_words(alphabet, length):
            if not is_lyndon(word):
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


def _product_words(words: List[Word], total: int, stop: int) -> List[Word]:
    """Concatenations of non-increasing sequences of words[:stop] (sorted)
    with lengths summing to total."""
    if total == 0:
        return [()]
    return [words[p] + rest for p in range(stop) if len(words[p]) <= total
            for rest in _product_words(words, total - len(words[p]), p + 1)]


def witt_check(alphabet: GradedAlphabet, max_len: int) -> WittReport:
    """For each length d <= max_len, compare the number of products of
    Lyndon basis elements of total length d, in non-increasing word order and
    with commuting letter degrees, with the dimension of the relatively free
    algebra in that length.  That number is the products' rank, and no
    product is expanded: each element's expansion is homogeneous and leads
    with its own word, coefficient 1, so a product leads with its Lyndon
    words concatenated, coefficient 1; these words must be pairwise distinct
    (unique Lyndon factorization).  A failed check raises ArithmeticError."""
    _check_length(max_len, 1, "max_len")
    elements = sorted(lyndon_basis(alphabet, max_len), key=lambda e: e.word)
    for e in elements:
        if (any(len(w) != len(e) for w, _ in e.expansion)
                or min(e.expansion, default=None) != (e.word, 1)):
            raise ArithmeticError(f"witt_check postcondition failed: element {e.word} is not "
                                  f"homogeneous or does not lead with itself, coefficient 1")
    words = [e.word for e in elements]
    rows = []
    for d in range(1, max_len + 1):
        # a product's words all hold its letters, so one with non-commuting
        # letters projects to zero and any other survives
        leading = [w for w in _product_words(words, d, len(words)) if alphabet.word_is_gas(w)]
        if len(set(leading)) != len(leading):
            raise ArithmeticError(f"witt_check postcondition failed: two products of length {d} "
                                  f"lead with the same word")
        dim = free_monomial_basis(alphabet, d).dim
        count = sum(1 for e in elements if len(e) == d)
        rows.append(WittRow(d, count, len(leading), dim, len(leading) == dim))
    return WittReport(rows)


# -- degree lift through a free abelian group -------------------------------------

def degree_product(degrees: Sequence[GroupElement],
                   indices: Sequence[int]) -> Optional[GroupElement]:
    """Ordered product of the referenced degrees, or None when the referenced
    degree set does not generate an abelian subgroup (in which case no
    well-defined product of the commutative exponent data exists).  Indices
    are groups._is_integer integers in range."""
    if not degrees and not indices:
        raise FreeLieError("empty degree list")
    if not all(_is_integer(i) and 0 <= i < len(degrees) for i in indices):
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
