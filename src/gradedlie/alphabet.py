"""Graded alphabets: finitely many letters with names and degrees in one
group backend, the words over them, and which letters commute.

A Lie algebra's basis is an alphabet (liealg.GradedLieAlgebra adds the
brackets), and so are the variables of a free graded Lie algebra.  The
rules by which the algebra modules read indices and exact scalars live here
too, with the error they raise.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .groups import (GroupElement, GroupSpec, _degree_classes, _integer, _is_integer,
                     _rational_text, commute)


class LieAlgebraError(ValueError):
    """Malformed algebra data or an out-of-range basis index."""


class GradedAlphabet:
    """Finitely many letters (basis elements or variables) with names and
    degrees in one group.  Words are sequences of letter indices.

    Which letters have commuting degrees is a table built on first use from
    one commute call per ordered pair of distinct degrees.  Equality is
    identity, so two algebras never compare equal by their letters alone.
    """

    def __init__(self, group: GroupSpec, names: Optional[Sequence[str]],
                 degrees: Sequence[GroupElement]):
        self.group = group
        self.degrees = tuple(degrees)
        n = len(self.degrees)
        for d in self.degrees:
            if d.spec != group:
                raise LieAlgebraError("basis degree from a different group backend")
        if names is None:
            names = tuple(f"e{i}" for i in range(n))
        else:
            names = tuple(names)
            if len(names) != n:
                raise LieAlgebraError(f"{len(names)} names for {n} basis elements")
        self.names = names

    @staticmethod
    def build(group: GroupSpec,
              variables: Sequence[Tuple[str, GroupElement]]) -> "GradedAlphabet":
        return GradedAlphabet(group, [n for n, _ in variables], [d for _, d in variables])

    @staticmethod
    def from_algebra(alg: "GradedAlphabet") -> "GradedAlphabet":
        """An algebra's basis as an alphabet: the algebra itself."""
        return alg

    @property
    def n(self) -> int:
        return len(self.degrees)

    size = n

    def degree(self, i: int) -> GroupElement:
        return self.degrees[i]

    def name(self, i: int) -> str:
        return self.names[i]

    @cached_property
    def _commuting(self) -> Tuple[FrozenSet[int], ...]:
        """Letter i -> the letters whose degree commutes with deg i."""
        classes = _degree_classes(self.degrees)
        table: List[FrozenSet[int]] = [frozenset()] * self.n
        for d, members in classes:
            friends = frozenset(j for e, others in classes if commute(d, e) for j in others)
            for i in members:
                table[i] = friends
        return tuple(table)

    @cached_property
    def _degree_index(self) -> Tuple[Dict[GroupElement, int], Tuple[int, ...]]:
        """The distinct degrees, each mapped to its position in first-appearance
        order, and each letter's position among them."""
        index: Dict[GroupElement, int] = {}
        for d in self.degrees:
            index.setdefault(d, len(index))
        return index, tuple(index[d] for d in self.degrees)

    def letters_commute(self, i: int, j: int) -> bool:
        return j in self._commuting[i]

    def word_name(self, word: Sequence[int]) -> str:
        return " ".join(self.names[i] for i in word) if word else "1"

    def word_degree(self, word: Sequence[int]) -> GroupElement:
        """Ordered product of the letter degrees."""
        return self.group.product(self.degrees[i] for i in word)

    def word_is_gas(self, word: Sequence[int]) -> bool:
        """True iff the degree multiset of the word generates an abelian
        subgroup, that is iff its letters pairwise commute."""
        letters = set(word)
        table = self._commuting
        for i in letters:
            if not letters <= table[i]:
                return False
        return True


def _check_indices(what: str, *indices) -> None:
    """Indices (and lengths) are integers by groups._integer; a float or a
    bool is refused, not coerced."""
    for x in indices:
        _integer(x, what, LieAlgebraError)


def _coefficient(c) -> Fraction:
    """An exact scalar from an integer, a Fraction or a string; a float or a
    bool is refused, not converted.  A string is read by the grammar of
    groups._rational_text, the one every exact-scalar entry of the library
    follows.  Structure constants, EndoMatrix entries, scalars of vectors
    and of SU(L), and both file loaders read them here."""
    if isinstance(c, str):
        value = _rational_text(c)
        if value is None:
            raise LieAlgebraError(f"coefficient {c!r} is not a rational number")
        return value
    if not (_is_integer(c) or isinstance(c, Fraction)):
        raise LieAlgebraError(f"coefficient must be an int, a Fraction or a string, got {c!r}")
    return Fraction(c)


def _check_basis_indices(n: int, *indices) -> None:
    """Basis indices are integers (see _check_indices) in range(n)."""
    _check_indices("basis index", *indices)
    for i in indices:
        if not 0 <= i < n:
            raise LieAlgebraError(f"basis index {i} out of range")
