"""The graded alphabet (an algebra's letters) against direct group
computations: commuting-letter table, word degrees, and the enveloping
spanning set built from it."""

import itertools
import random

from gradedlie.freelie import GradedAlphabet
from gradedlie.groups import GroupSpec, commute, generates_abelian_subgroup
from gradedlie.liealg import GradedLieAlgebra
from gradedlie.pbw import ug_spanning

from test_groups import s3_spec

MAX_LEN = 4


def s3_alphabets(count=6, letters=4):
    """Abelian Lie algebras (no brackets, so any grading is valid) whose
    letter degrees are random elements of S3, so that some letters do not
    commute."""
    s3 = s3_spec()
    rng = random.Random(61)
    out = []
    for _ in range(count):
        degrees = [s3.element(rng.randrange(6)) for _ in range(letters)]
        out.append(GradedLieAlgebra(s3, degrees, {}, [f"x{i}" for i in range(letters)]))
    return out


def words(n, max_len=MAX_LEN):
    for length in range(max_len + 1):
        yield from itertools.product(range(n), repeat=length)


def ordered_product(group, degrees):
    out = group.identity()
    for d in degrees:
        out = group.mul(out, d)
    return out


def algebras(all_algebras):
    out = list(all_algebras.values()) + s3_alphabets()
    assert any(not commute(a, b) for alg in out for a in alg.degrees for b in alg.degrees)
    return out


def test_word_is_gas_matches_pairwise_commutation(all_algebras):
    for alg in algebras(all_algebras):
        for w in words(alg.n):
            want = generates_abelian_subgroup({alg.degree(i) for i in w})
            assert alg.word_is_gas(w) == want, (alg.names, w)


def test_letters_commute_matches_commute(all_algebras):
    for alg in algebras(all_algebras):
        for i, j in itertools.product(range(alg.n), repeat=2):
            assert alg.letters_commute(i, j) == commute(alg.degree(i), alg.degree(j))


def test_ug_spanning_is_the_adjacent_commute_filter(all_algebras):
    for alg in algebras(all_algebras):
        want = [m for length in range(MAX_LEN + 1)
                for m in itertools.combinations_with_replacement(range(alg.n), length)
                if all(commute(alg.degree(a), alg.degree(b)) for a, b in zip(m, m[1:]))]
        assert ug_spanning(alg, MAX_LEN) == want


def test_from_algebra_agrees_with_the_algebra(all_algebras):
    for alg in algebras(all_algebras):
        alphabet = GradedAlphabet.from_algebra(alg)
        assert alphabet.names == alg.names and alphabet.degrees == alg.degrees
        assert alphabet.size == alg.n
        for w in words(alg.n):
            want = ordered_product(alg.group, [alg.degree(i) for i in w])
            assert alphabet.word_degree(w) == alg.word_degree(w) == want


def test_build_matches_an_algebra_with_the_same_letters():
    for alg in s3_alphabets(count=3):
        alphabet = GradedAlphabet.build(alg.group, list(zip(alg.names, alg.degrees)))
        assert alphabet.names == alg.names and alphabet.degrees == alg.degrees
        assert alphabet != GradedAlphabet.build(alg.group, list(zip(alg.names, alg.degrees)))
        for w in words(alg.n, 3):
            assert alphabet.word_is_gas(w) == alg.word_is_gas(w)
            assert alphabet.word_name(w) == alg.word_name(w)
    assert GradedAlphabet.build(GroupSpec.free(1), []).word_name(()) == "1"
