import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from sympy import Matrix

from gradedlie import freelie, linalg
from gradedlie.freelie import (FreeLieError, GradedAlphabet,
                               abelian_lift_check, degree_product,
                               free_monomial_basis, is_lyndon, lyndon_basis,
                               standard_bracketing, witt_check)
from gradedlie.groups import GroupSpec, commute
from conftest import ALGEBRA_FILES
from test_alphabet import s3_alphabets
from test_pbw import s5_graded_sum


def alphabet_of(alg):
    return GradedAlphabet.from_algebra(alg)


# -- counting oracle ---------------------------------------------------------------

def _mobius(n):
    if n == 1:
        return 1
    result, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def necklace_count(k, d):
    """Number of Lyndon words of length d over k letters."""
    total = sum(_mobius(e) * k ** (d // e) for e in range(1, d + 1) if d % e == 0)
    return total // d


# -- monomial spaces ----------------------------------------------------------------

def test_free_monomials_c2c2(c2c2):
    space = free_monomial_basis(alphabet_of(c2c2), 3)
    assert space.words == [(0, 0, 0), (1, 1, 1)]
    assert space.dim == 2


def test_free_monomials_trivial(trivial2):
    assert free_monomial_basis(alphabet_of(trivial2), 3).dim == 8


def test_free_monomials_length_zero(c2c2):
    space = free_monomial_basis(alphabet_of(c2c2), 0)
    assert space.words == [()]


# -- Lyndon machinery ----------------------------------------------------------------

def test_is_lyndon_classics():
    assert is_lyndon((0,))
    assert is_lyndon((0, 1))
    assert is_lyndon((0, 0, 1))
    assert not is_lyndon((1, 0))
    assert not is_lyndon((0, 1, 0, 1))
    assert not is_lyndon(())


def test_standard_bracketing_small():
    # [x,y] = xy - yx
    assert standard_bracketing((0, 1)) == {(0, 1): 1, (1, 0): -1}
    # [x,[x,y]] = xxy - 2xyx + yxx
    assert standard_bracketing((0, 0, 1)) == {
        (0, 0, 1): 1, (0, 1, 0): -2, (1, 0, 0): 1}


def test_lyndon_counts_trivial_grading(trivial2):
    elements = lyndon_basis(alphabet_of(trivial2), 5)
    counts = [sum(1 for e in elements if len(e) == d) for d in range(1, 6)]
    assert counts == [2, 1, 2, 3, 6]
    assert counts == [necklace_count(2, d) for d in range(1, 6)]


def test_lyndon_c2c2_only_letters_survive(c2c2):
    for max_len in (1, 3, 5):
        elements = lyndon_basis(alphabet_of(c2c2), max_len)
        assert [e.word for e in elements] == [(0,), (1,)]


def test_lyndon_single_letter():
    g = GroupSpec.free_abelian(1)
    alpha = GradedAlphabet.build(g, [("x", g.parse([1]))])
    elements = lyndon_basis(alpha, 4)
    assert [e.word for e in elements] == [(0,)]


def test_lyndon_expansions_triangular(all_algebras):
    for alg in all_algebras.values():
        if alg.n == 0:
            continue
        for e in lyndon_basis(alphabet_of(alg), 5):
            assert e.expansion_dict()[e.word] == 1


def test_lyndon_expansion_words_share_letter_multiset(all_algebras):
    for alg in all_algebras.values():
        if alg.n == 0:
            continue
        for e in lyndon_basis(alphabet_of(alg), 5):
            for w in e.expansion_dict():
                assert sorted(w) == sorted(e.word)


def test_lyndon_rejects_bad_max_len(c2c2):
    with pytest.raises(FreeLieError):
        lyndon_basis(alphabet_of(c2c2), 0)


# -- bracket-span oracle ----------------------------------------------------------------

def _project(alphabet, expansion):
    return {w: c for w, c in expansion.items() if alphabet.word_is_gas(w)}


def _commutator(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            for w, sign in ((wa + wb, 1), (wb + wa, -1)):
                s = out.get(w, Fraction(0)) + sign * ca * cb
                if s == 0:
                    out.pop(w, None)
                else:
                    out[w] = s
    return out


def iterated_bracket_levels(alphabet, max_len):
    """All iterated commutators of the letters inside the relatively free
    algebra (projection applied at every level), grouped by length."""
    levels = {1: [_project(alphabet, {(i,): Fraction(1)})
                  for i in range(alphabet.size)]}
    for d in range(2, max_len + 1):
        elems = []
        for a in range(1, d):
            for u in levels[a]:
                for v in levels[d - a]:
                    w = _project(alphabet, _commutator(u, v))
                    if w:
                        elems.append(w)
        levels[d] = elems
    return levels


def _rank_in_space(space, expansions):
    vectors = []
    for exp in expansions:
        vec = [Fraction(0)] * space.dim
        for w, c in exp.items():
            pos = space.index.get(w)
            if pos is not None:
                vec[pos] = c
        vectors.append(vec)
    return linalg.rank(vectors) if vectors else 0


def test_lyndon_span_equals_bracket_span(c2c2, free3, trivial2):
    for alg in (c2c2, free3, trivial2):
        alphabet = alphabet_of(alg)
        elements = lyndon_basis(alphabet, 4)
        levels = iterated_bracket_levels(alphabet, 4)
        for d in range(1, 5):
            space = free_monomial_basis(alphabet, d)
            lyndon_d = [e.expansion_dict() for e in elements if len(e) == d]
            bracket_rank = _rank_in_space(space, levels[d])
            combined = _rank_in_space(space, levels[d] + lyndon_d)
            assert bracket_rank == len(lyndon_d), (alg.names, d)
            assert combined == len(lyndon_d), (alg.names, d)


def test_lyndon_brackets_stay_in_span(c2c2, trivial2, free3):
    # the commutator of two basis elements lands in the span of the basis
    # elements of the combined length
    for alg in (c2c2, trivial2, free3):
        alphabet = alphabet_of(alg)
        elements = lyndon_basis(alphabet, 4)
        for e1 in elements:
            for e2 in elements:
                d = len(e1) + len(e2)
                if d > 4:
                    continue
                comm = _project(alphabet, _commutator(e1.expansion_dict(),
                                                      e2.expansion_dict()))
                space = free_monomial_basis(alphabet, d)
                pool = [e.expansion_dict() for e in elements if len(e) == d]
                vec = [Fraction(0)] * space.dim
                for w, c in comm.items():
                    vec[space.index[w]] = c
                pool_vecs = []
                for exp in pool:
                    pv = [Fraction(0)] * space.dim
                    for w, c in exp.items():
                        pv[space.index[w]] = c
                    pool_vecs.append(pv)
                assert Matrix(pool_vecs + [vec]).rank() == Matrix(pool_vecs).rank()


# -- enveloping rank check -----------------------------------------------------------------

def _nondecreasing_products(lengths, total, start=0):
    if total == 0:
        yield ()
        return
    for p in range(start, len(lengths)):
        if lengths[p] <= total:
            for rest in _nondecreasing_products(lengths, total - lengths[p], p):
                yield (p,) + rest


def dense_witt_rows(alphabet, d):
    """The products of Lyndon basis elements of total length d, in
    non-decreasing word order and with commuting letters, as dense Fraction
    rows over free_monomial_basis(alphabet, d): the rows whose rank
    witt_check reports as pbw_rank."""
    elements = sorted(lyndon_basis(alphabet, d), key=lambda e: e.word)
    space = free_monomial_basis(alphabet, d)
    rows = []
    for combo in _nondecreasing_products([len(e) for e in elements], d):
        if not alphabet.word_is_gas([i for p in combo for i in elements[p].word]):
            continue
        expansion = {(): Fraction(1)}
        for p in combo:
            step = {}
            for w, c in expansion.items():
                for v, b in elements[p].expansion:
                    step[w + v] = step.get(w + v, Fraction(0)) + c * b
            expansion = step
        row = [Fraction(0)] * space.dim
        for w, c in expansion.items():
            if w in space.index:  # words outside the space project to zero
                row[space.index[w]] = c
        rows.append(row)
    return rows


WITT_ORACLE_CASES = ([(stem, 6 if stem == "sl2" else 5) for stem in ALGEBRA_FILES]
                     + [("single_letter", 5)] + [(f"s3_{k}", 4) for k in range(6)])


@pytest.mark.parametrize("name, max_len", WITT_ORACLE_CASES)
def test_witt_rank_matches_dense_elimination(all_algebras, name, max_len):
    if name == "single_letter":
        g = GroupSpec.free(1)
        alphabet = GradedAlphabet.build(g, [("x", g.parse("a"))])
    elif name.startswith("s3_"):
        alphabet = s3_alphabets()[int(name[3:])]
    else:
        alphabet = alphabet_of(all_algebras[name])
    report = witt_check(alphabet, max_len)
    assert [r.pbw_rank for r in report.rows] == \
        [linalg.rank(dense_witt_rows(alphabet, d)) for d in range(1, max_len + 1)]
    assert [r.monomial_dim for r in report.rows] == \
        [free_monomial_basis(alphabet, d).dim for d in range(1, max_len + 1)]


def _mutated_bracketing(target, mutation):
    original = standard_bracketing

    def bracketing(word):
        expansion = original(word)
        if word == target and mutation == "double":
            expansion[word] *= 2
        elif word == target:
            del expansion[word]
        return expansion
    return bracketing


@pytest.mark.parametrize("mutation", ["double", "drop"])
@pytest.mark.parametrize("target", [(0, 1), (0, 0, 1), (0, 1, 1)], ids=["xy", "xxy", "xyy"])
def test_witt_check_raises_on_mutated_bracketing(monkeypatch, trivial2, target, mutation):
    monkeypatch.setattr(freelie, "standard_bracketing", _mutated_bracketing(target, mutation))
    with pytest.raises(ArithmeticError, match="witt_check postcondition failed"):
        witt_check(alphabet_of(trivial2), 4)


def test_witt_trivial_two_letters(trivial2):
    report = witt_check(alphabet_of(trivial2), 5)
    assert report.passed
    assert [r.monomial_dim for r in report.rows] == [2, 4, 8, 16, 32]
    assert [r.pbw_rank for r in report.rows] == [2, 4, 8, 16, 32]
    assert [r.lyndon_count for r in report.rows] == [2, 1, 2, 3, 6]


def test_witt_c2c2(c2c2):
    report = witt_check(alphabet_of(c2c2), 5)
    assert report.passed
    assert all(r.monomial_dim == 2 for r in report.rows)


def test_witt_free3(free3):
    report = witt_check(alphabet_of(free3), 5)
    assert report.passed
    assert all(r.monomial_dim == 3 for r in report.rows)
    assert [r.lyndon_count for r in report.rows] == [3, 0, 0, 0, 0]


def test_witt_single_letter():
    g = GroupSpec.free(1)
    alpha = GradedAlphabet.build(g, [("x", g.parse("a"))])
    report = witt_check(alpha, 4)
    assert report.passed
    assert all(r.pbw_rank == 1 and r.monomial_dim == 1 for r in report.rows)


def test_witt_passes_on_every_fixture_alphabet(all_algebras):
    for name, alg in all_algebras.items():
        if alg.n == 0:
            continue
        report = witt_check(alphabet_of(alg), 5)
        assert report.passed, name


def clique_counts(alphabet, d):
    """(lyndon_count, monomial_dim) at length d without enumerating words: a
    word survives iff its letter set is a clique of the commuting-letter
    graph, so both counts are sums over the cliques S, of the surjections of
    d letters onto S and of the Lyndon words using every letter of S."""
    def inclusion_exclusion(size, count):
        return sum((-1) ** (size - j) * comb(size, j) * count(j) for j in range(size + 1))
    letters = range(alphabet.size)
    cliques = [s for k in range(1, alphabet.size + 1) for s in combinations(letters, k)
               if all(commute(alphabet.degrees[a], alphabet.degrees[b])
                      for a, b in combinations(s, 2))]
    lyndon = sum(inclusion_exclusion(len(s), lambda j: necklace_count(j, d)) for s in cliques)
    monomials = sum(inclusion_exclusion(len(s), lambda j: j ** d) for s in cliques)
    return lyndon, monomials


def test_witt_rows_match_clique_counting_oracle(all_algebras):
    cases = [(alphabet_of(alg), 7 if name == "sl2" else 5) for name, alg in all_algebras.items()]
    cases += [(alphabet, 4) for alphabet in s3_alphabets() + [s5_graded_sum()]]
    for alphabet, max_len in cases:
        rows = witt_check(alphabet, max_len).rows
        assert [(r.lyndon_count, r.monomial_dim) for r in rows] == \
            [clique_counts(alphabet, d) for d in range(1, max_len + 1)], alphabet.names
        assert all(r.passed and r.pbw_rank == r.monomial_dim for r in rows), alphabet.names


@pytest.mark.parametrize("name, max_len", [("sl2", 6), ("trivial2", 6), ("heisenberg", 5)])
def test_witt_check_expands_no_product(monkeypatch, all_algebras, name, max_len):
    calls = []
    concat = freelie._concat

    def counting_concat(a, b):
        calls.append(None)
        return concat(a, b)
    monkeypatch.setattr(freelie, "_concat", counting_concat)
    alphabet = alphabet_of(all_algebras[name])
    lyndon_basis(alphabet, max_len)
    basis_calls = len(calls)
    assert basis_calls > 0
    witt_check(alphabet, max_len)
    assert len(calls) == 2 * basis_calls


def test_witt_check_raises_on_inhomogeneous_bracketing(monkeypatch, trivial2):
    original = standard_bracketing

    def bracketing(word):
        expansion = original(word)
        if word == (0, 1):
            # shorter than xy but lexicographically greater: xy still leads
            expansion[(1,)] = Fraction(1)
        return expansion
    monkeypatch.setattr(freelie, "standard_bracketing", bracketing)
    assert min(freelie.standard_bracketing((0, 1))) == (0, 1)
    with pytest.raises(ArithmeticError, match="witt_check postcondition failed"):
        witt_check(alphabet_of(trivial2), 4)


# -- partial degree product ---------------------------------------------------------------

def test_degree_product_c2c2():
    g = GroupSpec.free_product_cyclic([2, 2])
    degs = [g.generator(0), g.generator(1)]
    assert degree_product(degs, [0, 0]).is_identity()
    assert degree_product(degs, [0, 1]) is None
    assert degree_product(degs, []) .is_identity()


@pytest.mark.parametrize("indices", [[-1], [5], [0, 3], [True], [0.0]])
def test_degree_product_rejects_bad_indices(indices):
    g = GroupSpec.free_abelian(1)
    degs = [g.parse([1]), g.parse([2]), g.parse([3])]
    with pytest.raises(FreeLieError):
        degree_product(degs, indices)


def test_degree_product_abelian_always_defined():
    g = GroupSpec.free_abelian(2)
    degs = [g.parse([1, 0]), g.parse([0, 1]), g.parse([2, -1])]
    rng = random.Random(3)
    for _ in range(50):
        idxs = [rng.randrange(3) for _ in range(rng.randrange(5))]
        out = degree_product(degs, idxs)
        want = [sum(degs[i].data[t] for i in idxs) for t in range(2)]
        assert out is not None and list(out.data) == want


def test_degree_product_matches_pairwise_commutation(free3):
    # cross-check the domain against brute-force pairwise commutation
    degs = list(free3.degrees) + [free3.degrees[0] * free3.degrees[1]]
    rng = random.Random(5)
    for _ in range(200):
        idxs = [rng.randrange(len(degs)) for _ in range(rng.randrange(1, 5))]
        defined = degree_product(degs, idxs) is not None
        pairwise = all(commute(degs[a], degs[b]) for a in idxs for b in idxs)
        assert defined == pairwise


# -- degree lift -------------------------------------------------------------------------

def test_lift_check_clean_on_fixtures(c2c2, free3, trivial2, sl2):
    for alg in (c2c2, free3, trivial2, sl2):
        report = abelian_lift_check(alphabet_of(alg), 4)
        assert report.passed
        assert report.words_checked == sum(alg.n ** d for d in range(1, 5))


def test_lift_check_specific_words(c2c2):
    alphabet = alphabet_of(c2c2)
    # xy dies in projection and its lifted degree is outside the domain
    assert (0, 1) not in free_monomial_basis(alphabet, 2).index
    assert degree_product(list(alphabet.degrees), [0, 1]) is None
    # xx survives with degree g*g = 1
    assert (0, 0) in free_monomial_basis(alphabet, 2).index
    assert alphabet.word_degree((0, 0)).is_identity()


@pytest.mark.parametrize("max_len", [True, 2.5, 1.0])
@pytest.mark.parametrize("entry", [lyndon_basis, witt_check, abelian_lift_check,
                                   free_monomial_basis])
def test_lengths_must_be_integers(sl2, entry, max_len):
    with pytest.raises(FreeLieError, match="expected an integer"):
        entry(alphabet_of(sl2), max_len)
