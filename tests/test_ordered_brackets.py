"""The algebra's bracket table in both orders, pinned to its definition on
every fixture, gl_n/sl_n, the S5-graded sum and random S3-graded tables."""

import pytest
from test_structure_checks import structure_algebras


@pytest.fixture(scope="module")
def algebras():
    return structure_algebras()


def test_ordered_brackets_are_the_nonzero_brackets_in_both_orders(algebras):
    assert len(algebras) == 25
    for name, alg in algebras.items():
        table = alg.ordered_brackets
        nonzero = [(i, j) for i in range(alg.n) for j in range(alg.n) if alg.bracket_basis(i, j)]
        assert list(table) == nonzero, name  # the same keys, in row-major order
        assert all(i != j for i, j in table), name
        for (i, j), terms in table.items():
            assert table[(j, i)] == tuple((k, -c) for k, c in terms), name
        assert len(table) == 2 * len(alg.brackets), name


def test_ordered_brackets_reuse_the_stored_terms(algebras):
    for name, alg in algebras.items():
        for pair, terms in alg.brackets.items():
            assert alg.ordered_brackets[pair] is terms, name
