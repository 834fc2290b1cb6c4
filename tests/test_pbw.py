import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ALGEBRA_FILES, load
from gradedlie import linalg
from gradedlie.groups import GroupSpec
from gradedlie.liealg import GradedLieAlgebra, LieAlgebraError
from gradedlie.pbw import (SUElement, embed_check, monomial_degree, normalize,
                           pbw_basis, su_mul, ug_spanning, word_is_gas)


# -- oracles -------------------------------------------------------------------

def reduce_all_orders(alg, word, memo):
    """Straighten by EVERY available descent at every reachable word and
    assert all choices produce the same element.  Memoized over the DAG of
    reachable words, so agreement here covers every reduction order."""
    word = tuple(word)
    if word in memo:
        return memo[word]
    descents = [t for t in range(len(word) - 1) if word[t] > word[t + 1]]
    if not descents:
        value = SUElement.monomial(word)
    else:
        values = []
        for t in descents:
            b, a = word[t], word[t + 1]
            v = reduce_all_orders(alg, word[:t] + (a, b) + word[t + 2:], memo)
            for k, alpha in alg.brackets.get((a, b), ()):
                v = v + (-alpha) * reduce_all_orders(
                    alg, word[:t] + (k,) + word[t + 2:], memo)
            values.append(v)
        for v in values[1:]:
            assert v == values[0], f"straightening diverges at {word}"
        value = values[0]
    memo[word] = value
    return value


def reduce_random_order(alg, word, rng):
    """Straighten picking a random pending term and a random descent each
    step; must agree with the deterministic leftmost strategy."""
    word = tuple(word)
    if not word_is_gas(alg, word):
        return SUElement.zero()
    pending = {word: Fraction(1)}
    result = {}

    def merge(acc, mono, c):
        s = acc.get(mono, Fraction(0)) + c
        if s == 0:
            acc.pop(mono, None)
        else:
            acc[mono] = s

    while pending:
        w = rng.choice(sorted(pending))
        c = pending.pop(w)
        descents = [t for t in range(len(w) - 1) if w[t] > w[t + 1]]
        if not descents:
            merge(result, w, c)
            continue
        t = rng.choice(descents)
        b, a = w[t], w[t + 1]
        merge(pending, w[:t] + (a, b) + w[t + 2:], c)
        for k, alpha in alg.brackets.get((a, b), ()):
            merge(pending, w[:t] + (k,) + w[t + 2:], -c * alpha)
    return SUElement(result)


def classical_straighten(alg, word):
    """Ungraded textbook straightening (no degree filtering), recursing on
    the RIGHTMOST descent; independent route for abelian backends."""
    word = tuple(word)
    descents = [t for t in range(len(word) - 1) if word[t] > word[t + 1]]
    if not descents:
        return SUElement.monomial(word)
    t = descents[-1]
    b, a = word[t], word[t + 1]
    out = classical_straighten(alg, word[:t] + (a, b) + word[t + 2:])
    for k, alpha in alg.brackets.get((a, b), ()):
        out = out + (-alpha) * classical_straighten(alg, word[:t] + (k,) + word[t + 2:])
    return out


def all_words(n, length):
    return list(product(range(n), repeat=length))


def random_su_element(alg, rng, max_word=3):
    out = SUElement.zero()
    for _ in range(rng.randrange(1, 3)):
        w = tuple(rng.randrange(alg.n) for _ in range(rng.randrange(max_word + 1)))
        out = out + rng.choice([1, 2, -1]) * normalize(alg, w)
    return out


# -- straightening examples -------------------------------------------------------

def test_normalize_single_step(sl2):
    assert normalize(sl2, (2, 0)) == SUElement(
        {(0, 2): Fraction(1), (1,): Fraction(-1)})


def test_normalize_kills_noncommuting_word(c2c2):
    assert normalize(c2c2, (0, 1)).is_zero()
    assert normalize(c2c2, (1, 0)).is_zero()


def test_normalize_full_word_matches_oracle(sl2):
    memo = {}
    got = normalize(sl2, (2, 1, 0))
    assert got == reduce_all_orders(sl2, (2, 1, 0), memo)


def test_normalize_scalar_linearity(sl2):
    assert normalize(sl2, (2, 0), Fraction(3, 2)) == \
        Fraction(3, 2) * normalize(sl2, (2, 0))
    assert normalize(sl2, (2, 0), 0).is_zero()


def test_normalize_rejects_bad_index(sl2):
    with pytest.raises(LieAlgebraError):
        normalize(sl2, (0, 99))


@pytest.mark.parametrize("word", [(2.7, 0.2), (True, False), (2, 0.0)])
def test_normalize_refuses_non_integer_letters(sl2, word):
    with pytest.raises(LieAlgebraError, match="expected an integer"):
        normalize(sl2, word)


def test_normalize_idempotent_on_basis_monomials(all_algebras):
    for alg in all_algebras.values():
        for mono in pbw_basis(alg, 4):
            assert normalize(alg, mono) == SUElement.monomial(mono)


def test_normalize_degree_preservation(all_algebras):
    for alg in all_algebras.values():
        for length in range(5):
            for w in all_words(alg.n, length):
                if not word_is_gas(alg, w):
                    continue
                want = monomial_degree(alg, w)
                out = normalize(alg, w)
                for mono in out.terms:
                    assert monomial_degree(alg, mono) == want
                    assert word_is_gas(alg, mono)


# -- confluence ---------------------------------------------------------------------

def test_confluence_exhaustive_up_to_len4(all_algebras):
    for name, alg in all_algebras.items():
        memo = {}
        for length in range(5):
            for w in all_words(alg.n, length):
                if not word_is_gas(alg, w):
                    continue
                assert normalize(alg, w) == reduce_all_orders(alg, w, memo), (name, w)


def test_confluence_random_orders_len5_to_7(all_algebras):
    rng = random.Random(20240811)
    checks = 0
    algebras = [a for a in all_algebras.values() if a.n > 0]
    while checks < 1000:
        for alg in algebras:
            for length in (5, 6, 7):
                w = tuple(rng.randrange(alg.n) for _ in range(length))
                assert reduce_random_order(alg, w, rng) == normalize(alg, w)
                checks += 1
    assert checks >= 1000


# -- products ------------------------------------------------------------------------

def test_su_mul_examples(sl2, c2c2):
    x, y = SUElement.monomial((0,)), SUElement.monomial((1,))
    assert su_mul(c2c2, x, y).is_zero()
    a = normalize(sl2, (2, 1, 0))
    assert su_mul(sl2, SUElement.unit(), a) == a
    assert su_mul(sl2, a, SUElement.unit()) == a
    ef = SUElement.monomial((0, 2))
    memo = {}
    assert su_mul(sl2, ef, SUElement.monomial((0,))) == \
        reduce_all_orders(sl2, (0, 2, 0), memo)


def test_su_mul_associative_on_random_triples(all_algebras):
    rng = random.Random(47)
    for alg in all_algebras.values():
        if alg.n == 0:
            continue
        for _ in range(500):
            a, b, c = (random_su_element(alg, rng) for _ in range(3))
            assert su_mul(alg, su_mul(alg, a, b), c) == su_mul(alg, a, su_mul(alg, b, c))


def test_su_mul_distributes(sl2):
    rng = random.Random(53)
    for _ in range(50):
        a, b, c = (random_su_element(sl2, rng) for _ in range(3))
        assert su_mul(sl2, a, b + c) == su_mul(sl2, a, b) + su_mul(sl2, a, c)


# -- basis enumeration ------------------------------------------------------------------

def test_pbw_basis_c2c2_example(c2c2):
    names = [" ".join(c2c2.name(i) for i in m) or "1" for m in pbw_basis(c2c2, 2)]
    assert names == ["1", "x", "y", "x x", "y y"]


def test_pbw_basis_sl2_counts(sl2):
    def binom(n, k):
        from math import comb
        return comb(n, k)
    for d in range(7):
        exact = [m for m in pbw_basis(sl2, d) if len(m) == d]
        assert len(exact) == binom(d + 2, 2)


def test_pbw_basis_len0(sl2):
    assert pbw_basis(sl2, 0) == [()]


def test_ug_spanning_equals_pbw_for_abelian_backends(sl2, heisenberg, heisenberg_trivial):
    for alg in (sl2, heisenberg, heisenberg_trivial):
        assert ug_spanning(alg, 3) == pbw_basis(alg, 3)


def test_ug_spanning_c2c2(c2c2):
    assert ug_spanning(c2c2, 2) == pbw_basis(c2c2, 2)


def test_ug_spanning_free3_squares_only(free3):
    monos = [m for m in ug_spanning(free3, 2) if len(m) == 2]
    assert monos == [(0, 0), (1, 1), (2, 2)]


# -- rank agreement (graded basis theorem, small scale) ------------------------------------

def test_normal_form_span_matches_basis_count(all_algebras):
    # bracket substitution shortens words, so the images of words of length
    # up to L span the normal forms of length up to L: compare cumulatively
    for name, alg in all_algebras.items():
        if alg.n > 3:
            continue
        basis = pbw_basis(alg, 4)
        coord = {m: p for p, m in enumerate(basis)}
        vectors = []
        for bound in range(5):
            for w in all_words(alg.n, bound):
                elt = normalize(alg, w)
                vec = [Fraction(0)] * len(coord)
                for mono, c in elt.terms.items():
                    vec[coord[mono]] = c
                vectors.append(vec)
            expected = len(pbw_basis(alg, bound))
            assert linalg.rank(vectors) == expected, (name, bound)


# -- classical-limit agreement ---------------------------------------------------------

def test_matches_classical_straightening_when_abelian(sl2, heisenberg, heisenberg_trivial):
    for alg in (sl2, heisenberg, heisenberg_trivial):
        for length in range(5):
            for w in all_words(alg.n, length):
                assert normalize(alg, w) == classical_straighten(alg, w)


# -- embedding ----------------------------------------------------------------------------

def test_embed_check_passes_everywhere(all_algebras):
    for name, alg in all_algebras.items():
        report = embed_check(alg)
        assert report.ok, (name, report)


def test_embed_check_both_sides_zero_for_noncommuting_pair(c2c2):
    lhs = normalize(c2c2, (0, 1)) - normalize(c2c2, (1, 0))
    assert lhs.is_zero()
    assert c2c2.bracket_basis(0, 1) == []


# -- one straightening pass ---------------------------------------------------------

def s5_graded_sum():
    """sl2 plus four letters that bracket to zero, graded by S5: deg e = g,
    deg h = 1, deg f = g^-1 with g = (0 1 2).  a and b commute with g, c
    and d do not, and c commutes with a while d does not."""
    perms = sorted(permutations(range(5)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]
    group = GroupSpec.finite(table)
    g, g_inv = (1, 2, 0, 3, 4), (2, 0, 1, 3, 4)
    extras = [(0, 1, 2, 4, 3), (1, 2, 0, 4, 3), (1, 0, 2, 3, 4), (3, 1, 2, 0, 4)]
    degrees = [group.element(index[p]) for p in [g, tuple(range(5)), g_inv] + extras]
    brackets = {(0, 1): [(0, -2)], (0, 2): [(1, 1)], (1, 2): [(2, -2)]}
    return GradedLieAlgebra(group, degrees, brackets, ["e", "h", "f", "a", "b", "c", "d"])


def pairwise_su_mul(alg, x, y):
    """The product as the sum of the straightened products of term pairs."""
    out = SUElement.zero()
    for ma, ca in x.terms.items():
        for mb, cb in y.terms.items():
            out = out + normalize(alg, ma + mb, ca * cb)
    return out


def random_raw_element(alg, rng, terms=3, max_word=3):
    """Raw words, unsorted and with letters that need not commute."""
    return SUElement({tuple(rng.randrange(alg.n) for _ in range(rng.randrange(max_word + 1))):
                      Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(terms)})


def test_su_mul_equals_pairwise_straightening(all_algebras):
    rng = random.Random(61)
    algebras = dict(all_algebras, s5_sum=s5_graded_sum())
    noncommuting = 0
    for name, alg in algebras.items():
        if alg.n == 0:
            continue
        for _ in range(150):
            x, y = random_raw_element(alg, rng), random_raw_element(alg, rng)
            noncommuting += any(not word_is_gas(alg, ma + mb)
                                for ma in x.terms for mb in y.terms)
            assert su_mul(alg, x, y) == pairwise_su_mul(alg, x, y), (name, x, y)
    assert noncommuting > 0


def test_su_mul_on_s5_sum_kills_noncommuting_products():
    alg = s5_graded_sum()
    c, f = SUElement.monomial((5,)), SUElement.monomial((2,))
    assert su_mul(alg, c, f).is_zero() and su_mul(alg, f, c).is_zero()
    assert su_mul(alg, SUElement.monomial((3,)), SUElement.monomial((5,))) == \
        SUElement.monomial((3, 5))


@st.composite
def raw_terms(draw, n):
    """A few raw words over n letters with small coefficients, so that
    terms often meet and cancel while they are straightened."""
    words = st.lists(st.integers(0, n - 1), max_size=4).map(tuple)
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
    return draw(st.dictionaries(words, coeffs, max_size=4))


PROPERTY_ALGEBRAS = dict({stem: load(stem) for stem in ALGEBRA_FILES}, s5_sum=s5_graded_sum())


@settings(max_examples=100, deadline=None, database=None)
@given(st.sampled_from(sorted(PROPERTY_ALGEBRAS)), st.data())
def test_normal_forms_hold_no_zero_coefficient(name, data):
    alg = PROPERTY_ALGEBRAS[name]
    x = SUElement(data.draw(raw_terms(alg.n)))
    y = SUElement(data.draw(raw_terms(alg.n)))
    forms = [normalize(alg, w, c) for w, c in x.terms.items()]
    forms += [su_mul(alg, x, y), su_mul(alg, y, x)]
    for form in forms:
        assert all(form.terms.values()), (name, form)


@pytest.mark.parametrize("letter", [5, 0.0, True])
def test_su_mul_refuses_bad_letters(sl2, letter):
    bad = SUElement({(letter,): 1})
    with pytest.raises(LieAlgebraError, match="basis index"):
        su_mul(sl2, bad, SUElement.unit())
    with pytest.raises(LieAlgebraError, match="basis index"):
        su_mul(sl2, SUElement.monomial((0,)), bad)


@pytest.mark.parametrize("enumerate_monomials", [pbw_basis, ug_spanning])
@pytest.mark.parametrize("max_len", [True, False, 2.5, 1.0])
def test_monomial_bases_refuse_non_integer_lengths(sl2, enumerate_monomials, max_len):
    with pytest.raises(LieAlgebraError, match="max_len: expected an integer"):
        enumerate_monomials(sl2, max_len)


@pytest.mark.parametrize("build", [
    lambda alg: normalize(alg, (0,), 0.1),
    lambda alg: normalize(alg, (2, 0), True),
    lambda alg: SUElement({(0,): True}),
    lambda alg: SUElement({(0,): 1.0}),
    lambda alg: 2.5 * SUElement.unit(),
    lambda alg: False * SUElement.monomial((1,)),
    lambda alg: SUElement.monomial((0,), 0.1),
], ids=["normalize-float", "normalize-bool", "init-bool", "init-float", "rmul-float",
        "rmul-bool", "monomial-float"])
def test_su_scalars_refuse_floats_and_bools(sl2, build):
    with pytest.raises(LieAlgebraError, match="coefficient must be an int"):
        build(sl2)


def test_su_scalars_take_ints_fractions_and_strings(sl2):
    half = Fraction(1, 2)
    e = SUElement.monomial((0,))
    assert normalize(sl2, (0,), "1/2") == normalize(sl2, (0,), half) == half * e
    assert SUElement({(0,): "3"}) == SUElement.monomial((0,), 3) == 3 * e
    assert SUElement.monomial((0,), "-2/4").terms == {(0,): Fraction(-1, 2)}
    assert (0 * e).is_zero() and e - e == SUElement.zero()
