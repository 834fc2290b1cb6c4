"""The four basis enumerators against their generate-and-filter definitions.

pbw_basis, ug_spanning, free_monomial_basis and lyndon_basis must list
exactly the words that generating every word of each length and keeping the
ones whose letters commute would list, in the same order (by length, then
lexicographically).  The commuting test here calls groups.commute on the
degrees, not the alphabet's own table.  Alphabets have 0-7 letters with
degrees in S3, S4 and the groups of the fixture algebras; pinned examples
cover a complete and an edgeless commuting-letter graph.
"""

from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb

from hypothesis import example, given, settings, strategies as st

from gradedlie import GradedLieAlgebra, GroupSpec, commute
from gradedlie.freelie import (LyndonElement, free_monomial_basis, is_lyndon, lyndon_basis,
                               standard_bracketing)
from gradedlie.pbw import pbw_basis, ug_spanning
from conftest import ALGEBRA_FILES, load
from test_alphabet import s3_alphabets
from test_pbw import s5_graded_sum

MAX_LEN = 4
MAX_LETTERS = 7


def symmetric_group(k):
    """S_k as a Cayley table built from permutation composition."""
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return GroupSpec.finite([[index[tuple(p[i] for i in q)] for q in perms] for p in perms])


def fixture_pool(alg):
    """The identity, the fixture's letter degrees and their pairwise products."""
    pool = dict.fromkeys([alg.group.identity(), *alg.degrees])
    pool.update(dict.fromkeys(a * b for a in list(pool) for b in list(pool)))
    return alg.group, list(pool)


S3, S4 = symmetric_group(3), symmetric_group(4)
POOLS = {"S3": (S3, [S3.element(i) for i in range(6)]),
         "S4": (S4, [S4.element(i) for i in range(24)])}
POOLS.update((stem, fixture_pool(load(stem))) for stem in ALGEBRA_FILES)


def letters(group, degrees):
    return GradedLieAlgebra(group, degrees, {})


# every pair commutes: powers of a 4-cycle in S4, one degree repeated
_CYCLE = S4.element(sorted(permutations(range(4))).index((1, 2, 3, 0)))
COMPLETE = letters(S4, [_CYCLE ** k for k in (0, 1, 2, 3, 1, 2)])
# no two letters commute: a, b, c, ab, bc, ca and abc in the rank-3 free group
_FREE3 = GroupSpec.free(3)
EDGELESS = letters(_FREE3, [_FREE3.parse(w) for w in ("a", "b", "c", "a b", "b c", "c a",
                                                       "a b c")])


@st.composite
def alphabets(draw):
    group, pool = POOLS[draw(st.sampled_from(sorted(POOLS)))]
    return letters(group, draw(st.lists(st.sampled_from(pool), max_size=MAX_LETTERS)))


def commuting(alg):
    """Entry [i][j]: do the degrees of letters i and j commute?"""
    return [[commute(a, b) for b in alg.degrees] for a in alg.degrees]


def clique(table, word):
    return all(table[a][b] for a in word for b in word)


def all_words(n, length):
    return product(range(n), repeat=length)


PROPERTY = settings(max_examples=100, deadline=None, database=None)
lengths = st.integers(0, MAX_LEN)


def test_pinned_graphs_are_complete_and_edgeless():
    assert all(all(row) for row in commuting(COMPLETE))
    table = commuting(EDGELESS)
    assert not any(table[i][j] for i, j in combinations(range(EDGELESS.n), 2))


@PROPERTY
@given(alphabets(), lengths)
@example(COMPLETE, MAX_LEN)
@example(EDGELESS, MAX_LEN)
def test_pbw_basis_is_the_sorted_clique_filter(alg, max_len):
    table = commuting(alg)
    want = [m for length in range(max_len + 1)
            for m in combinations_with_replacement(range(alg.n), length) if clique(table, m)]
    assert pbw_basis(alg, max_len) == want


@PROPERTY
@given(alphabets(), lengths)
@example(COMPLETE, MAX_LEN)
@example(EDGELESS, MAX_LEN)
def test_ug_spanning_is_the_sorted_adjacent_filter(alg, max_len):
    table = commuting(alg)
    want = [m for length in range(max_len + 1)
            for m in combinations_with_replacement(range(alg.n), length)
            if all(table[a][b] for a, b in zip(m, m[1:]))]
    assert ug_spanning(alg, max_len) == want


@PROPERTY
@given(alphabets(), lengths)
@example(COMPLETE, MAX_LEN)
@example(EDGELESS, MAX_LEN)
def test_free_monomial_basis_is_the_clique_filter(alg, length):
    table = commuting(alg)
    want = [w for w in all_words(alg.n, length) if clique(table, w)]
    space = free_monomial_basis(alg, length)
    assert space.words == want
    assert space.index == {w: p for p, w in enumerate(want)}


@PROPERTY
@given(alphabets(), st.integers(1, MAX_LEN))
@example(COMPLETE, MAX_LEN)
@example(EDGELESS, MAX_LEN)
def test_lyndon_basis_is_the_lyndon_clique_filter(alg, max_len):
    table = commuting(alg)
    want = [LyndonElement(w, tuple(sorted(standard_bracketing(w).items())), alg.word_degree(w))
            for length in range(1, max_len + 1) for w in all_words(alg.n, length)
            if is_lyndon(w) and clique(table, w)]
    assert lyndon_basis(alg, max_len) == want


def test_pbw_counts_are_stanley_reisner_sums(all_algebras):
    """A sorted monomial of length L is a multiset of letters whose support S
    is a clique; C(L-1, |S|-1) multisets of size L have support exactly S,
    so the count is the Stanley-Reisner sum over the cliques."""
    algebras = dict(all_algebras, s5_sum=s5_graded_sum())
    algebras.update((f"s3_{k}", alg) for k, alg in enumerate(s3_alphabets()))
    for name, alg in algebras.items():
        table = commuting(alg)
        cliques = [s for size in range(1, alg.n + 1) for s in combinations(range(alg.n), size)
                   if clique(table, s)]
        basis = pbw_basis(alg, 5)
        for length in range(1, 6):
            want = sum(comb(length - 1, len(s) - 1) for s in cliques)
            assert sum(1 for m in basis if len(m) == length) == want, (name, length)
