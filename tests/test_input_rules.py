"""The two input rules, at every entry point that applies them.

Integers: an int or an int subclass, never a bool or a float
(`groups._is_integer`).  Exact scalars: an integer, a Fraction or a string
in one ASCII grammar, never a float or a bool (`liealg._coefficient`); both
file loaders read coefficients and matrix entries through it, so a JSON
float exits 2 with its location."""

from fractions import Fraction

import pytest

from gradedlie import (EndoMatrix, GradedLieAlgebra, GroupSpec, SUElement, degree_product,
                       free_monomial_basis, load_algebra, lyndon_basis, normalize, pbw_basis)
from gradedlie.algfile import AlgebraFileError, parse_word
from gradedlie.cli import main
from gradedlie.freelie import FreeLieError
from gradedlie.groups import GroupError
from gradedlie.liealg import (LieAlgebraError, inner_derivations, is_graded_lie_subspace,
                              vec_scale)

from conftest import FIXTURES


class Small(int):
    pass


# (entry point taking an index or length v, the error class it refuses with)
ENTRY_POINTS = [
    pytest.param(lambda sl2, v: parse_word(sl2, [v]), AlgebraFileError, id="parse_word"),
    pytest.param(lambda sl2, v: degree_product(sl2.degrees, [v]), FreeLieError,
                 id="degree_product"),
    pytest.param(lambda sl2, v: normalize(sl2, [v, 0]), LieAlgebraError, id="normalize"),
    pytest.param(lambda sl2, v: sl2.bracket_basis(v, 2), LieAlgebraError, id="bracket_basis"),
    pytest.param(lambda sl2, v: GradedLieAlgebra(sl2.group, sl2.degrees, {(0, v): [(0, 1)]}),
                 LieAlgebraError, id="bracket-pair-index"),
    pytest.param(lambda sl2, v: GradedLieAlgebra(sl2.group, sl2.degrees, {(0, 1): [(v, 1)]}),
                 LieAlgebraError, id="bracket-target-index"),
    pytest.param(lambda sl2, v: GroupSpec.free(3).generator(v), GroupError,
                 id="GroupSpec.generator"),
    pytest.param(lambda sl2, v: pbw_basis(sl2, v), LieAlgebraError, id="pbw_basis"),
    pytest.param(lambda sl2, v: lyndon_basis(sl2, v), FreeLieError, id="lyndon_basis"),
    pytest.param(lambda sl2, v: free_monomial_basis(sl2, v), FreeLieError,
                 id="free_monomial_basis"),
]


@pytest.mark.parametrize("call, error", ENTRY_POINTS)
def test_every_index_entry_point_takes_int_subclasses_and_refuses_bools_and_floats(
        sl2, call, error):
    call(sl2, Small(1))
    call(sl2, Small(2))
    for bad in (True, 2.0):
        with pytest.raises(error):
            call(sl2, bad)


def test_int_subclass_indices_read_as_their_values(sl2):
    assert parse_word(sl2, [Small(2), Small(0)]) == (2, 0)
    assert degree_product(sl2.degrees, [Small(0), Small(2)]) == sl2.degree(0) * sl2.degree(2)


# -- coefficient strings ---------------------------------------------------------------

# Fraction() takes each of these on some supported Python; the one grammar
# is an optional minus sign and ASCII digits, then optionally / or . and
# ASCII digits
REFUSED_STRINGS = ["1_0", "+1", "١", "1e3", "1.5e2", ".5", "5.", "- 1", "1/+2", "Infinity"]


@pytest.mark.parametrize("text", REFUSED_STRINGS)
def test_coefficient_strings_outside_the_ascii_grammar_are_refused(sl2, text):
    with pytest.raises(LieAlgebraError, match="not a rational number"):
        GradedLieAlgebra(sl2.group, sl2.degrees, {(0, 1): [(0, text)]})
    with pytest.raises(LieAlgebraError, match="not a rational number"):
        EndoMatrix.build([[text]])
    with pytest.raises(LieAlgebraError, match="not a rational number"):
        SUElement.monomial((0,), text)


@pytest.mark.parametrize("text, value", [(" -2/4 ", Fraction(-1, 2)), ("\t3\n", Fraction(3)),
                                         ("-0", Fraction(0)), ("007.250", Fraction(29, 4))])
def test_coefficient_strings_in_the_grammar_load_with_surrounding_whitespace(text, value):
    assert EndoMatrix.build([[text]]).rows == ((value,),)


# -- the file loaders ------------------------------------------------------------------

def _sl2_text_with_coeff(raw: str) -> str:
    """fixtures/sl2.alg with the coefficient of [e,h] spelled as raw JSON."""
    text = (FIXTURES / "sl2.alg").read_text()
    assert text.count('"coeff": "-2"') == 2
    return text.replace('"coeff": "-2"', f'"coeff": {raw}', 1)


@pytest.mark.parametrize("raw", ["0.1", "1e-400", "-2.0", '"1e3"'])
def test_cli_float_coefficient_exits_2_with_location(tmp_path, capsys, raw):
    bad = tmp_path / "bad.alg"
    bad.write_text(_sl2_text_with_coeff(raw))
    assert main(["validate", "--algebra", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "brackets[0].terms[0]: bad coefficient" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw", ["-2", '"-2"', '" -2 "', '"-4/2"'])
def test_cli_integer_and_string_coefficients_still_load(tmp_path, capsys, raw):
    good = tmp_path / "good.alg"
    good.write_text(_sl2_text_with_coeff(raw))
    assert main(["validate", "--algebra", str(good)]) == 0
    assert load_algebra(good).brackets[(0, 1)] == ((0, Fraction(-2)),)


def test_json_integer_coefficient_loads_exactly(tmp_path):
    p = tmp_path / "two.alg"
    p.write_text(_sl2_text_with_coeff("2"))
    assert load_algebra(p).brackets[(0, 1)] == ((0, Fraction(2)),)


@pytest.mark.parametrize("entry", ["0.5", "1e-400", "1.0"])
def test_cli_float_matrix_entry_exits_2_with_location(tmp_path, capsys, entry):
    mats = tmp_path / "mats.json"
    mats.write_text('{"mats": [{"degree": [0], "rows": '
                    f'[[{entry}, 0, 0], [0, 0, 0], [0, 0, 0]]}}]}}')
    assert main(["graded-span-check", "--algebra", str(FIXTURES / "sl2.alg"),
                 "--mats", str(mats)]) == 2
    err = capsys.readouterr().err
    assert "mats[0]: bad matrix entry" in err
    assert "Traceback" not in err


def test_vector_scalars_follow_the_coefficient_rule():
    assert vec_scale("-1/2", {0: Fraction(2)}) == {0: Fraction(-1)}
    for bad in (0.5, True, "1e3"):
        with pytest.raises(LieAlgebraError):
            vec_scale(bad, {0: Fraction(2)})


@pytest.mark.parametrize("entry, error", [(1.5, TypeError), (True, TypeError),
                                          ("1e3", ValueError)])
def test_graded_span_check_names_an_inexact_entry_by_label_and_position(sl2, entry, error):
    rows = [[0] * 3 for _ in range(3)]
    rows[1][2] = entry
    mat = EndoMatrix(tuple(map(tuple, rows)), sl2.degree(0), "m")
    with pytest.raises(error) as got:
        is_graded_lie_subspace(sl2, [mat])
    assert "m entry (1,2) " in str(got.value)


def test_graded_span_check_reads_string_entries_as_build_does(sl2):
    # the ad maps of sl2 halved, their entries written as strings like '1/2'
    halved = [[[str(Fraction(c, 2)) for c in row] for row in mat.rows]
              for mat in inner_derivations(sl2)]
    assert "1/2" in {x for rows in halved for row in rows for x in row}
    verdicts = set()
    for picked in ([0, 2], [0, 1, 2], [1, 2]):
        direct = [EndoMatrix(tuple(map(tuple, halved[i])), sl2.degree(i)) for i in picked]
        built = [EndoMatrix.build(halved[i], sl2.degree(i)) for i in picked]
        report = is_graded_lie_subspace(sl2, direct)
        assert report == is_graded_lie_subspace(sl2, built), picked
        verdicts.add(report.ok)
    assert verdicts == {True, False}
