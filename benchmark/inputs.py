"""Seeded input builders for the benchmark.

Everything here is plain Python and independent of gradedlie: algebras are
described in the algebra-file format (a JSON-able dict), and each one carries
a model of its grading group in the benchmark's own arithmetic, so that the
output checks never have to trust the code under test.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def rng_for(seed: int, *labels) -> random.Random:
    """A generator that depends only on the seed and the given labels."""
    return random.Random(f"{seed}/" + "/".join(str(x) for x in labels))


# -- group models ---------------------------------------------------------------

class Model:
    """The benchmark's own arithmetic for a group block of an algebra file.

    Free and free-product groups are modelled only as far as the shipped
    fixtures need: their degrees are single generators, which commute exactly
    when they are equal.
    """

    def __init__(self, group: dict):
        self.kind = group["kind"]
        if self.kind == "finite":
            self.table = group["table"]
            self.names = group.get("names")

    def elem(self, literal):
        if self.kind == "free_abelian":
            return tuple(literal)
        if self.kind == "finite":
            if isinstance(literal, str) and self.names and literal in self.names:
                return self.names.index(literal)
            return int(literal)
        return json.dumps(literal)

    def identity(self, rank: int = 0):
        return (0,) * rank if self.kind == "free_abelian" else 0

    def mul(self, a, b):
        if self.kind == "free_abelian":
            return tuple(x + y for x, y in zip(a, b))
        if self.kind == "finite":
            return self.table[a][b]
        raise ValueError(f"no product model for {self.kind} groups")

    def commute(self, a, b) -> bool:
        if self.kind in ("free_abelian",):
            return True
        if self.kind == "finite":
            return self.table[a][b] == self.table[b][a]
        return a == b or a in ('"1"', "[]") or b in ('"1"', "[]")


# -- the symmetric group S5 -------------------------------------------------------

S5 = sorted(itertools.permutations(range(5)))  # the identity sorts first
S5_INDEX = {p: i for i, p in enumerate(S5)}


def compose(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def perm_inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_name(p) -> str:
    return "p" + "".join(str(x) for x in p)


def s5_group() -> dict:
    """The order-120 Cayley table, multiplication p*q = p after q."""
    table = [[S5_INDEX[compose(a, b)] for b in S5] for a in S5]
    return {"kind": "finite", "table": table, "names": [perm_name(p) for p in S5]}


# -- algebra specs ----------------------------------------------------------------

@dataclass
class AlgSpec:
    """A graded Lie algebra in the algebra-file format plus its degree model.

    brackets maps (i, j), i < j, to the expansion of [e_i, e_j] as (k, coeff)
    pairs with integer or string-rational coefficients.
    """

    name: str
    group: dict
    names: List[str]
    degrees: list
    brackets: Dict[Tuple[int, int], List[Tuple[int, object]]]

    def __post_init__(self):
        self.model = Model(self.group)
        self.elems = [self.model.elem(d) for d in self.degrees]

    @property
    def n(self) -> int:
        return len(self.names)

    def letters_commute(self, i: int, j: int) -> bool:
        return self.model.commute(self.elems[i], self.elems[j])

    def word_survives(self, word) -> bool:
        """True iff the distinct letter degrees pairwise commute."""
        letters = sorted(set(word))
        return all(self.letters_commute(a, b)
                   for x, a in enumerate(letters) for b in letters[x + 1:])

    def word_degree(self, word):
        rank = self.group.get("rank", 0)
        out = self.model.identity(rank)
        for i in word:
            out = self.model.mul(out, self.elems[i])
        return out

    def bracket(self, i: int, j: int) -> Dict[int, int]:
        if i == j:
            return {}
        if i < j:
            return {k: c for k, c in self.brackets.get((i, j), ())}
        return {k: -c for k, c in self.brackets.get((j, i), ())}

    def file_obj(self) -> dict:
        return {
            "name": self.name,
            "group": self.group,
            "basis": [{"name": nm, "degree": d} for nm, d in zip(self.names, self.degrees)],
            "brackets": [{"i": i, "j": j,
                          "terms": [{"k": k, "coeff": str(c)} for k, c in terms]}
                         for (i, j), terms in sorted(self.brackets.items())],
        }


def spec_from_file(path) -> AlgSpec:
    obj = json.loads(Path(path).read_text())
    brackets = {(b["i"], b["j"]): [(t["k"], _number(t["coeff"])) for t in b["terms"]]
                for b in obj.get("brackets", [])}
    return AlgSpec(obj.get("name", Path(path).stem), obj["group"],
                   [b["name"] for b in obj["basis"]],
                   [b["degree"] for b in obj["basis"]], brackets)


def _number(text: str):
    value = Fraction(text)
    return int(value) if value.denominator == 1 else value


def sl2() -> AlgSpec:
    return AlgSpec("sl2", {"kind": "free_abelian", "rank": 1}, ["e", "h", "f"],
                   [[1], [0], [-1]],
                   {(0, 1): [(0, -2)], (0, 2): [(1, 1)], (1, 2): [(2, -2)]})


def root_grading(n: int, traceless: bool, rng: random.Random = None) -> AlgSpec:
    """gl_n or sl_n on matrix units with its Z^(n-1) root grading.

    The basis is E_ij (i < j), then the diagonal (E_ii for gl_n, or
    H_t = E_tt - E_(t+1)(t+1) for sl_n), then E_ij (i > j); degrees are in
    simple-root coordinates.  With rng, the degrees go through a random
    automorphism of Z^(n-1): an isomorphic grading with other degree labels,
    and with the same cost for every operation, since the basis order and
    which pairs bracket stay as they are.
    """
    r = n - 1
    basis: List[Tuple[str, dict, list]] = []  # name, sparse matrix, degree

    def root(i, j):
        v = [0] * r
        lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
        for t in range(lo, hi):
            v[t] = sign
        return v

    for i in range(n):
        for j in range(i + 1, n):
            basis.append((f"E{i + 1}{j + 1}", {(i, j): 1}, root(i, j)))
    if traceless:
        for t in range(r):
            basis.append((f"H{t + 1}", {(t, t): 1, (t + 1, t + 1): -1}, [0] * r))
    else:
        for i in range(n):
            basis.append((f"E{i + 1}{i + 1}", {(i, i): 1}, [0] * r))
    for i in range(n):
        for j in range(i):
            basis.append((f"E{i + 1}{j + 1}", {(i, j): 1}, root(i, j)))

    if rng is not None:
        auto = _random_automorphism(r, rng)
        basis = [(nm, m, [sum(auto[a][b] * d[b] for b in range(r)) for a in range(r)])
                 for nm, m, d in basis]

    index = {nm: p for p, (nm, _, _) in enumerate(basis)}

    def decompose(mat: dict) -> List[Tuple[int, int]]:
        out: Dict[int, int] = {}
        running = 0
        for (a, b), c in mat.items():
            if a != b:
                out[index[f"E{a + 1}{b + 1}"]] = c
            elif not traceless:
                out[index[f"E{a + 1}{a + 1}"]] = c
        if traceless:
            for t in range(r):
                running += mat.get((t, t), 0)
                if running:
                    out[index[f"H{t + 1}"]] = running
        return sorted((k, c) for k, c in out.items() if c)

    brackets = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            terms = decompose(_commutator(basis[i][1], basis[j][1]))
            if terms:
                brackets[(i, j)] = terms
    name = f"{'sl' if traceless else 'gl'}{n}"
    return AlgSpec(name, {"kind": "free_abelian", "rank": r},
                   [nm for nm, _, _ in basis], [d for _, _, d in basis], brackets)


def _commutator(a: dict, b: dict) -> dict:
    out: Dict[Tuple[int, int], int] = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    for (i, k), x in b.items():
        for (k2, j), y in a.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) - x * y
    return {key: v for key, v in out.items() if v}


def _random_automorphism(r: int, rng: random.Random) -> List[List[int]]:
    """A signed permutation matrix times one elementary shear."""
    perm = list(range(r))
    rng.shuffle(perm)
    mat = [[(rng.choice((1, -1)) if perm[a] == b else 0) for b in range(r)] for a in range(r)]
    if r >= 2:
        a, b = rng.sample(range(r), 2)
        mat[a] = [x + rng.choice((1, -1)) * y for x, y in zip(mat[a], mat[b])]
    return mat


# g = (0 1 2); the extra letters' degrees are chosen so that a and b commute
# with g while c and d do not, and c commutes with a while d does not.
_G = (1, 2, 0, 3, 4)
_S5_EXTRAS = [("a", (0, 1, 2, 4, 3)), ("b", (1, 2, 0, 4, 3)),
              ("c", (1, 0, 2, 3, 4)), ("d", (3, 1, 2, 0, 4))]


def s5_graded_sum(rng: random.Random = None) -> AlgSpec:
    """sl2 plus four abelian letters, graded by S5: deg e = g, deg h = 1,
    deg f = g^-1.  Valid for every choice of the extra degrees, because the
    extra letters bracket to zero.  With rng, every degree is conjugated by
    one random permutation, which keeps which degrees commute."""
    sigma = tuple(range(5))
    if rng is not None:
        sigma = tuple(rng.sample(range(5), 5))

    def conj(p):
        return compose(compose(sigma, p), perm_inverse(sigma))

    perms = [_G, tuple(range(5)), perm_inverse(_G)] + [p for _, p in _S5_EXTRAS]
    names = ["e", "h", "f"] + [nm for nm, _ in _S5_EXTRAS]
    return AlgSpec("s5sum", s5_group(), names, [perm_name(conj(p)) for p in perms],
                   {(0, 1): [(0, -2)], (0, 2): [(1, 1)], (1, 2): [(2, -2)]})


# -- words ------------------------------------------------------------------------

def fk_ek(k: int) -> Tuple[int, ...]:
    """The sl2 word f^k e^k (e = 0, f = 2)."""
    return (2,) * k + (0,) * k


def random_word(rng: random.Random, n: int, length: int) -> Tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(length))


# -- relabelings ------------------------------------------------------------------

def cyclic_group(m: int) -> dict:
    return {"kind": "finite", "table": [[(a + b) % m for b in range(m)] for a in range(m)],
            "names": [f"z{a}" for a in range(m)]}


def support(spec: AlgSpec) -> List[int]:
    """Indices of the first basis letter of each distinct degree."""
    seen, out = set(), []
    for i, d in enumerate(spec.elems):
        if d not in seen:
            seen.add(d)
            out.append(i)
    return out


def relabeling(spec: AlgSpec, rng: random.Random, broken: bool) -> Tuple[dict, dict]:
    """A relabeling file object for spec and the map it encodes, as
    {support degree: coarse element index}.

    The coarse labels come from a homomorphism: onto Z/m by a random linear
    functional for Z^r gradings, onto Z/2 by the sign for S5.  With broken,
    one support degree that is the degree of a nonzero bracket is moved to
    another label, which usually breaks compatibility; coarsening_oracle
    says whether it does."""
    sup = support(spec)
    if spec.group["kind"] == "free_abelian":
        m = rng.randrange(2, 6)
        coeffs = [rng.randrange(m) for _ in range(spec.group["rank"])]
        image = {spec.elems[i]: sum(c * x for c, x in zip(coeffs, spec.elems[i])) % m
                 for i in sup}
    else:
        m = 2
        image = {spec.elems[i]: _parity(S5[spec.elems[i]]) for i in sup}
    if broken:
        targets = sorted({_product_index(spec, i, j)
                          for (i, j), terms in spec.brackets.items() if terms})
        victim = spec.elems[rng.choice(targets)]
        image[victim] = (image[victim] + rng.randrange(1, m)) % m
    obj = {"group": cyclic_group(m),
           "map": [{"from": spec.degrees[i], "to": f"z{image[spec.elems[i]]}"} for i in sup]}
    return obj, image


def _product_index(spec: AlgSpec, i: int, j: int) -> int:
    return spec.brackets[(i, j)][0][0]


def _parity(p) -> int:
    seen, odd = set(), 0
    for start in range(len(p)):
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        if length:
            odd ^= (length - 1) & 1
    return odd


def coarsening_oracle(spec: AlgSpec, image: dict, m: int) -> bool:
    """A relabeling is valid iff p(a) + p(b) = p(ab) on every nonzero
    bracket of basis letters, in Z/m."""
    for (i, j), terms in spec.brackets.items():
        if not terms:
            continue
        a, b = spec.elems[i], spec.elems[j]
        for x, y in ((a, b), (b, a)):
            prod = spec.model.mul(x, y)
            if (image[x] + image[y]) % m != image[prod] % m:
                return False
    return True
