"""Group arithmetic backends with a decidable word problem.

Four families are supported: finite groups given by a Cayley table, free
groups, free abelian groups, and free products of cyclic groups.  Every
element is stored in a canonical normal form, so equality is plain value
equality and all predicates (identity, commutation) are exact.  Elements
are immutable slotted objects: the hash, hash((spec, data)), is computed on
first use and kept, equality tests identity first, and products are built
without a Python-level __init__.

The library's input rules live here too: the one integer rule
(_is_integer), the ASCII integer text of literals (_int_text) and the one
text grammar of exact rational scalars (_rational_text).
"""

from __future__ import annotations

import json
import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

FINITE = "finite"
FREE = "free"
FREE_ABELIAN = "free_abelian"
FREE_PRODUCT_CYCLIC = "free_product_cyclic"


class GroupError(ValueError):
    """Invalid group data or an invalid operation on group elements."""


class BackendMismatch(GroupError):
    """Raised when elements of two different groups are combined."""


class InvalidCayleyTable(GroupError):
    """Raised when a finite multiplication table violates a group axiom."""


Literal = Union[str, int, Sequence]


@dataclass(frozen=True)
class GroupSpec:
    """Description of one concrete group.

    Exactly one family per spec: ``finite`` carries a Cayley table (index 0
    is the identity) and optional element names; ``free`` and
    ``free_abelian`` carry a rank; ``free_product_cyclic`` carries the list
    of cyclic factor orders (each >= 2).  Free groups and free products of
    cyclic groups share one word backend: reduced words of (generator,
    exponent) syllables, exponents taken modulo the factor order if any.

    The hash leaves out the table and names (equality still compares them),
    so hashing an element does not hash its group's Cayley table.  It is
    computed on first use and kept on the spec, and pickling rebuilds the
    spec from its fields, so no kept hash crosses processes (the hash of the
    str kind differs between them).
    """

    kind: str
    table: Optional[tuple] = None
    names: Optional[tuple] = None
    rank: int = 0
    orders: tuple = ()

    @cached_property
    def _hash(self) -> int:
        return hash((self.kind, self.rank, self.orders))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (GroupSpec, (self.kind, self.table, self.names, self.rank, self.orders))

    @staticmethod
    def finite(table: Sequence[Sequence[int]], names: Optional[Sequence[str]] = None) -> "GroupSpec":
        tbl = tuple(map(tuple, table))
        for r, row in enumerate(tbl):
            # one type test per row; the entries of a row that fails it are
            # checked one by one, so the message names the first non-integer
            if not set(map(type, row)) <= {int}:
                for x in row:
                    _integer(x, f"Cayley table row {r}", GroupError)
        nm = tuple(names) if names is not None else None
        _check_cayley_table(tbl, nm)
        return GroupSpec(kind=FINITE, table=tbl, names=nm, rank=len(tbl))

    @staticmethod
    def free(rank: int) -> "GroupSpec":
        if _integer(rank, "free group rank", GroupError) < 0:
            raise GroupError(f"free group rank must be >= 0, got {rank}")
        return GroupSpec(kind=FREE, rank=rank)

    @staticmethod
    def free_abelian(rank: int) -> "GroupSpec":
        if _integer(rank, "free abelian rank", GroupError) < 0:
            raise GroupError(f"free abelian rank must be >= 0, got {rank}")
        return GroupSpec(kind=FREE_ABELIAN, rank=rank)

    @staticmethod
    def free_product_cyclic(orders: Sequence[int]) -> "GroupSpec":
        ords = tuple(_integer(o, "cyclic factor order", GroupError) for o in orders)
        if any(o < 2 for o in ords):
            raise GroupError(f"cyclic factor orders must all be >= 2, got {ords}")
        return GroupSpec(kind=FREE_PRODUCT_CYCLIC, orders=ords, rank=len(ords))

    # -- elements ----------------------------------------------------------

    def identity(self) -> "GroupElement":
        if self.kind == FINITE:
            return _element(self, 0)
        if self.kind == FREE_ABELIAN:
            return _element(self, (0,) * self.rank)
        return _element(self, ())

    def generator(self, i: int, exponent: int = 1) -> "GroupElement":
        """The i-th generator (or its power) in word-like backends; the
        i-th standard basis vector in the free abelian backend."""
        _integer(exponent, "generator exponent", GroupError)
        if not 0 <= _integer(i, "generator index", GroupError) < self.rank:
            raise GroupError(f"generator index {i} out of range for rank {self.rank}")
        if self.kind == FINITE:
            raise GroupError("finite groups have no distinguished generators; use element()")
        if self.kind == FREE_ABELIAN:
            vec = [0] * self.rank
            vec[i] = exponent
            return GroupElement(self, tuple(vec))
        e = self._exponent(i, exponent)
        return GroupElement(self, ((i, e),) if e else ())

    def element(self, index: int) -> "GroupElement":
        if self.kind != FINITE:
            raise GroupError("element(index) is only available in the finite backend")
        if not 0 <= _integer(index, "element index", GroupError) < self.rank:
            raise GroupError(f"element index {index} out of range for order {self.rank}")
        return GroupElement(self, index)

    # -- literals ----------------------------------------------------------

    def parse(self, literal: Literal) -> "GroupElement":
        """Parse an element literal as used in input files and on the CLI."""
        if isinstance(literal, str):
            literal = literal.strip()
        if literal == "1" and self.kind != FINITE:
            return self.identity()
        if isinstance(literal, (list, tuple)) and len(literal) == 0:
            return self.identity()
        try:
            return self._parse(literal)
        except GroupError:
            raise
        except (ValueError, TypeError, IndexError) as exc:
            raise GroupError(f"bad {self.kind} element literal {literal!r}: {exc}") from None

    def _parse(self, literal: Literal) -> "GroupElement":
        if self.kind == FINITE:
            if isinstance(literal, str) and self.names and literal in self.names:
                return GroupElement(self, self.names.index(literal))
            return self.element(_int_text(literal) if isinstance(literal, str)
                                else _integer(literal))
        if self.kind == FREE:
            if literal == "":
                return self.identity()
            if not isinstance(literal, str):
                raise GroupError(f"free group literals are strings, got {literal!r}")
            return self.product(self._parse_free_token(t) for t in literal.split())
        if self.kind == FREE_ABELIAN:
            vec = json.loads(literal) if isinstance(literal, str) else list(literal)
            vec = [_integer(x) for x in vec]
            if len(vec) != self.rank:
                raise GroupError(f"expected a vector of length {self.rank}, got {vec}")
            return GroupElement(self, tuple(vec))
        syllables = json.loads(literal) if isinstance(literal, str) else list(literal)
        return self.product(self.generator(_integer(f), _integer(e)) for f, e in syllables)

    def _parse_free_token(self, token: str) -> "GroupElement":
        if token == "1":
            return self.identity()
        name, _, exp_s = token.partition("^")
        exponent = _int_text(exp_s) if exp_s else 1
        if len(name) == 1 and "a" <= name <= "z":
            idx = ord(name) - ord("a")
        elif re.fullmatch(r"x[0-9]+", name):
            idx = int(name[1:]) - 1
        else:
            raise GroupError(f"bad free-group generator token {token!r}")
        return self.generator(idx, exponent)

    def format(self, elem: "GroupElement") -> str:
        """Render an element as a literal that parse() accepts back."""
        self._claim(elem)
        if self.kind == FINITE:
            return self.names[elem.data] if self.names else str(elem.data)
        if self.kind == FREE:
            if not elem.data:
                return "1"
            return " ".join(self._free_gen_name(g) + (f"^{e}" if e != 1 else "")
                            for g, e in elem.data)
        if self.kind == FREE_ABELIAN:
            return "[" + ",".join(str(x) for x in elem.data) + "]"
        if not elem.data:
            return "1"
        return "[" + ",".join(f"[{f},{e}]" for f, e in elem.data) + "]"

    def _free_gen_name(self, i: int) -> str:
        return chr(ord("a") + i) if self.rank <= 26 else f"x{i + 1}"

    # -- arithmetic --------------------------------------------------------

    def _claim(self, elem: "GroupElement") -> None:
        if not isinstance(elem, GroupElement):
            raise GroupError(f"expected an element of a {self.kind} group, got {elem!r}")
        if elem.spec is not self and elem.spec != self:
            raise BackendMismatch(
                f"element of a {elem.spec.kind} group used with a {self.kind} group")

    def mul(self, a: "GroupElement", b: "GroupElement") -> "GroupElement":
        if a.__class__ is not GroupElement or a.spec is not self:
            self._claim(a)
        if b.__class__ is not GroupElement or b.spec is not self:
            self._claim(b)
        kind = self.kind
        if kind == FINITE:
            return _element(self, self.table[a.data][b.data])
        if kind == FREE_ABELIAN:
            return _element(self, tuple(map(add, a.data, b.data)))
        return _element(self, self._merge(a.data, b.data))

    def product(self, elems: Iterable["GroupElement"]) -> "GroupElement":
        """Ordered product of the elements; the identity when there are none."""
        out = self.identity()
        for e in elems:
            out = out * e
        return out

    def inv(self, a: "GroupElement") -> "GroupElement":
        self._claim(a)
        if self.kind == FINITE:
            row = self.table[a.data]
            return GroupElement(self, row.index(0))
        if self.kind == FREE_ABELIAN:
            return GroupElement(self, tuple(-x for x in a.data))
        return GroupElement(self, tuple((g, self._exponent(g, -e)) for g, e in reversed(a.data)))

    # -- words (free groups and free products of cyclic groups) -------------

    def _exponent(self, i: int, e: int) -> int:
        """The exponent e of generator i in normal form: reduced modulo the
        factor order in a free product of cyclic groups, unchanged in a
        free group (which has no orders)."""
        return e % self.orders[i] if self.orders else e

    def _merge(self, left: tuple, right: tuple) -> tuple:
        """Concatenate two reduced words, cancelling at the seam and
        dropping syllables whose exponent becomes 0."""
        if not left or not right or left[-1][0] != right[0][0]:
            return left + right  # nothing meets at the seam
        stack = list(left)
        pos = 0
        while stack and pos < len(right):
            g1, e1 = stack[-1]
            g2, e2 = right[pos]
            if g1 != g2:
                break
            stack.pop()
            pos += 1
            e = self._exponent(g1, e1 + e2)
            if e != 0:
                stack.append((g1, e))
                break
        return tuple(stack) + right[pos:]


class GroupElement:
    """An element in normal form; equality and hashing are structural.

    spec and data are read-only: assigning or deleting either raises
    dataclasses.FrozenInstanceError, an AttributeError.  The hash is
    hash((spec, data)), computed on first use and kept; equality tests
    identity first, then data and spec.  Products are built by _element,
    without a Python-level __init__."""

    __slots__ = ("spec", "data", "_hash")
    __match_args__ = ("spec", "data")

    def __init__(self, spec: GroupSpec, data: Union[int, tuple]):
        _set_spec(self, spec)
        _set_data(self, data)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt from spec and data, so no cached hash crosses processes
        return (GroupElement, (self.spec, self.data))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.data == other.data and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.spec, self.data))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(spec={self.spec!r}, data={self.data!r})"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.spec.mul(self, other)

    def __pow__(self, n: int) -> "GroupElement":
        if _integer(n, "power", GroupError) < 0:
            return self.inverse() ** (-n)
        return self.spec.product([self] * n)

    def inverse(self) -> "GroupElement":
        return self.spec.inv(self)

    def is_identity(self) -> bool:
        return self == self.spec.identity()

    def __str__(self) -> str:
        return self.spec.format(self)


_set_spec = GroupElement.spec.__set__
_set_data = GroupElement.data.__set__
_set_hash = GroupElement._hash.__set__


def _element(spec: GroupSpec, data: Union[int, tuple], _new=object.__new__) -> GroupElement:
    """GroupElement(spec, data) without the call to __init__."""
    e = _new(GroupElement)
    _set_spec(e, spec)
    _set_data(e, data)
    _set_hash(e, None)
    return e


# -- module-level operations -------------------------------------------------

def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """a * b in the group of whichever operand is an element; an operand that
    is not an element raises GroupError naming it."""
    owner = a if isinstance(a, GroupElement) else b
    if not isinstance(owner, GroupElement):
        raise GroupError(f"expected a group element, got {a!r}")
    return owner.spec.mul(a, b)


def inv(a: GroupElement) -> GroupElement:
    if not isinstance(a, GroupElement):
        raise GroupError(f"expected a group element, got {a!r}")
    return a.spec.inv(a)


def commute(g: GroupElement, h: GroupElement) -> bool:
    """True iff g h = h g."""
    return g * h == h * g


def generates_abelian_subgroup(elements: Iterable[GroupElement]) -> bool:
    """True iff the given elements pairwise commute (equivalently, iff the
    subgroup they generate is abelian)."""
    elems = list(elements)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not commute(elems[i], elems[j]):
                return False
    return True


def _degree_classes(degrees: Sequence[GroupElement]) -> List[Tuple[GroupElement, List[int]]]:
    """Equal degrees as (degree, positions) pairs in first-appearance order."""
    classes: Dict[GroupElement, List[int]] = {}
    for pos, d in enumerate(degrees):
        classes.setdefault(d, []).append(pos)
    return list(classes.items())


def _is_integer(x) -> bool:
    """The one integer rule of the library: an int or an int subclass; a
    float or a bool (JSON true/false) is not an integer."""
    return isinstance(x, int) and not isinstance(x, bool)


def _integer(x, what: str = "", error: type = TypeError) -> int:
    """x if it is an integer, else error naming what x is (if given)."""
    if not _is_integer(x):
        prefix = f"{what}: " if what else ""
        raise error(f"{prefix}expected an integer, got {x!r}")
    return x


def _int_text(text: str) -> int:
    """The integer spelled by an optional minus sign and ASCII digits; int()
    alone also takes underscores, a plus sign and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


_RATIONAL_TEXT = re.compile(r"-?[0-9]+(/[0-9]+|\.[0-9]+)?")


def _rational_text(text: str) -> Optional[Fraction]:
    """The rational a string spells, or None: the one text grammar of exact
    scalars.  Surrounding whitespace aside, the string is a minus sign or
    none, ASCII digits, then optionally "/" or "." and ASCII digits, with a
    nonzero denominator; Fraction alone also takes "+1", "1e3" and
    non-ASCII digits, and "1_0" from Python 3.11 on."""
    if not _RATIONAL_TEXT.fullmatch(text.strip()):
        return None
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return None


# -- finite table validation --------------------------------------------------

def _check_cayley_table(table: tuple, names: Optional[tuple]) -> None:
    n = len(table)
    if n == 0:
        raise InvalidCayleyTable("empty Cayley table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise InvalidCayleyTable(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not 0 <= x < n:
                raise InvalidCayleyTable(f"entry {x} in row {i} out of range 0..{n - 1}")
    if names is not None:
        if len(names) != n:
            raise InvalidCayleyTable(f"{len(names)} names for {n} elements")
        if len(set(names)) != n:
            raise InvalidCayleyTable("element names are not distinct")

    full = set(range(n))
    for i in range(n):
        if set(table[i]) != full:
            raise InvalidCayleyTable(f"row {i} is not a permutation")
        if {table[j][i] for j in range(n)} != full:
            raise InvalidCayleyTable(f"column {i} is not a permutation")
    for i in range(n):
        if table[0][i] != i or table[i][0] != i:
            raise InvalidCayleyTable("index 0 does not act as a two-sided identity")
    for i in range(n):
        j = table[i].index(0)
        if table[j][i] != 0:
            raise InvalidCayleyTable(f"element {i} has no two-sided inverse")

    # Light's test: the middle elements b of associative triples (a,b,c)
    # for all a, c are closed under the product, so checking b in a
    # generating set decides associativity exactly.
    for b in _right_generators(table):
        row_b = table[b]
        for a in range(n):
            row_a, row_ab = table[a], table[table[a][b]]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    raise InvalidCayleyTable(f"associativity fails on ({a},{b},{c})")


def _right_generators(table: tuple) -> List[int]:
    """A greedy generating set: each element in index order that the
    products of the earlier ones (built by right multiplication, starting
    from the identity 0) do not reach."""
    gens: List[int] = []
    reached = {0}
    for x in range(1, len(table)):
        if x in reached:
            continue
        gens.append(x)
        frontier = list(reached)
        while frontier:
            row = table[frontier.pop()]
            for g in gens:
                if row[g] not in reached:
                    reached.add(row[g])
                    frontier.append(row[g])
    return gens
