"""Exact Smith transforms pinned as literals.

abelianize reads its torsion images from rows of U, and the free block from
the rows below the rank, so the transforms themselves, not only the
diagonal, are part of the output: any change to the elimination order of
smith_normal_form shows up here first.  The small matrices are ones where
clearing the pivot row to the right meets a remainder, swaps it into the
pivot column and then goes on clearing that row with a pivot column that
is no longer zero below the pivot.
"""

import pytest
from test_linalg import _full_relation_matrix, _matrix_lie_algebra, _relation_matrices

from gradedlie import linalg
from gradedlie.linalg import SmithForm, _check_smith, smith_normal_form
from gradedlie.unigroup import Presentation, abelianize, universal_presentation


def _dense(n, sparse_rows):
    """n-wide dense rows from rows given as dicts of their nonzero entries."""
    return [[row.get(j, 0) for j in range(n)] for row in sparse_rows]


# -- gl4 and sl4: one 13 x 84 relation matrix, ten unit pivots ---------------------

ROOT4_DIAG = [1] * 10 + [0] * 3

ROOT4_U = [
     [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [1, 1, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
     [0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0],
     [1, 1, 1, -1, 0, 0, -1, 0, 0, 0, 0, 0, 0],
     [0, 1, 1, 0, 1, 1, -1, -1, 0, 0, 0, 0, 0],
     [0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0],
     [0, 0, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1],
     [1, 0, 0, -1, -1, -1, 0, 1, 0, 0, 1, 0, 0],
     [0, 1, 0, 0, 1, 0, -1, -1, -1, 0, 0, 1, 0],
     [-1, -1, -1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0],
]

# the 84 rows of V, each as its nonzero entries
ROOT4_V = [
    {0: 1, 1: -1, 2: -1, 3: -1, 10: -1, 12: -1, 18: -1, 19: -1, 20: -1, 21: -1, 22: -1, 25: 1, 32: 1, 39: 1, 43: -1, 57: 1, 61: -1},
    {1: 1, 4: 1, 10: 1, 19: 1, 24: -1, 25: -1, 26: -1, 27: -1, 28: -1, 34: 1, 39: -1, 44: -1, 49: -1, 62: -1, 67: 1},
    {2: 1, 5: -1, 12: 1, 20: 1, 27: 1, 30: -1, 31: -1, 32: -1, 33: -1, 34: -1, 45: -1, 49: 1, 57: -1, 63: -1, 67: -1},
    {3: 1, 4: -1, 5: 1, 6: -1, 7: 1, 14: 1, 21: 1, 26: 1, 31: 1, 36: -1, 42: 1, 43: 1, 44: 1, 45: 1, 46: 1, 51: -1, 64: -1, 69: 1},
    {6: 1, 7: -1, 15: 1, 22: 1, 28: 1, 33: 1, 46: -1, 51: 1, 54: -1, 60: 1, 61: 1, 62: 1, 63: 1, 64: 1, 69: -1},
    {9: 1, 10: -1, 11: -1, 12: -1, 13: -1, 14: -1, 15: -1, 16: -1, 17: -1, 19: -1, 20: -1, 21: -1, 22: -1, 23: -1, 29: -1, 31: -1, 34: -1, 35: -1, 38: -1, 40: -1, 41: -1, 42: -1, 43: -1, 45: -1, 46: -1, 47: -1, 53: -1, 59: -1, 60: -1, 61: -1, 65: -1, 66: -1, 67: -1, 68: -1, 69: -1, 71: -1, 72: -1, 73: -1, 74: -1, 75: -1, 76: -1, 77: -1, 78: -1, 79: -1, 80: -1, 81: -1, 82: -1, 83: -1},
    {10: 1},
    {4: 1, 5: -1, 7: -1, 13: -1, 14: -1, 25: -1, 26: -1, 31: -1, 37: -1, 38: -1, 39: -1, 40: -1, 42: -1, 44: -1, 45: -1, 46: -1, 50: 1, 51: 1, 58: 1, 64: 1, 68: -1, 69: -1},
    {14: 1},
    {5: 1, 8: 1, 13: 1, 27: -1, 31: 1, 38: 1, 45: 1, 48: -1, 49: -1, 50: -1, 51: -1, 52: -1, 58: -1, 64: -1, 70: -1},
    {7: 1, 8: -1, 16: 1, 28: -1, 34: 1, 40: 1, 46: 1, 52: 1, 55: -1, 62: -1, 66: 1, 67: 1, 68: 1, 69: 1, 70: 1},
    {11: 1},
    {12: 1},
    {13: 1},
    {8: 1, 15: -1, 16: -1, 32: -1, 33: -1, 34: -1, 50: -1, 51: -1, 52: -1, 56: -1, 57: -1, 58: -1, 60: -1, 63: -1, 64: -1, 66: -1, 67: -1, 70: -1},
    {15: 1},
    {16: 1},
    {17: 1},
    {18: 1},
    {19: 1},
    {20: 1},
    {21: 1},
    {22: 1},
    {23: 1},
    {24: 1},
    {25: 1},
    {26: 1},
    {27: 1},
    {28: 1},
    {29: 1},
    {30: 1},
    {31: 1},
    {32: 1},
    {33: 1},
    {34: 1},
    {35: 1},
    {36: 1},
    {37: 1},
    {38: 1},
    {39: 1},
    {40: 1},
    {41: 1},
    {42: 1},
    {43: 1},
    {44: 1},
    {45: 1},
    {46: 1},
    {47: 1},
    {48: 1},
    {49: 1},
    {50: 1},
    {51: 1},
    {52: 1},
    {53: 1},
    {54: 1},
    {55: 1},
    {56: 1},
    {57: 1},
    {58: 1},
    {59: 1},
    {60: 1},
    {61: 1},
    {62: 1},
    {63: 1},
    {64: 1},
    {65: 1},
    {66: 1},
    {67: 1},
    {68: 1},
    {69: 1},
    {70: 1},
    {71: 1},
    {72: 1},
    {73: 1},
    {74: 1},
    {75: 1},
    {76: 1},
    {77: 1},
    {78: 1},
    {79: 1},
    {80: 1},
    {81: 1},
    {82: 1},
    {83: 1},
]


@pytest.mark.parametrize("traceless", (False, True), ids=("gl4", "sl4"))
def test_smith_transforms_of_the_root_relation_matrix(traceless):
    relations = _full_relation_matrix(universal_presentation(_matrix_lie_algebra(4, traceless)))
    assert (len(relations), len(relations[0])) == (13, 84)
    assert smith_normal_form(relations) == SmithForm(ROOT4_DIAG, ROOT4_U, _dense(84, ROOT4_V))


@pytest.mark.parametrize("traceless", (False, True), ids=("gl4", "sl4"))
def test_abelianize_passes_the_distinct_root_relation_columns(monkeypatch, traceless):
    # the 84 relations give 31 distinct columns, in order of first appearance;
    # they span the same lattice, with the same diagonal and the same U
    alg = _matrix_lie_algebra(4, traceless)
    full = _full_relation_matrix(universal_presentation(alg))
    (relations,) = _relation_matrices(monkeypatch, alg)
    assert (len(relations), len(relations[0])) == (13, 31)
    assert list(zip(*relations)) == list(dict.fromkeys(zip(*full)))
    form = smith_normal_form(relations)
    assert (form.diag, form.U) == (ROOT4_DIAG, ROOT4_U)


# -- a presentation whose abelianization has torsion ---------------------------------

TORSION = Presentation(["a", "b", "c"],
                       [("a", "a", "b"), ("b", "b", "a"), ("a", "b", "c"), ("c", "c", "c")])


def test_smith_transforms_of_a_presentation_with_torsion(monkeypatch):
    seen = []
    monkeypatch.setattr("gradedlie.unigroup.smith_normal_form",
                        lambda rows: seen.append(rows) or smith_normal_form(rows))
    data = abelianize(TORSION)
    assert seen == [[[2, -1, 1, 0], [-1, 2, 1, 0], [0, 0, -1, 1]]]
    assert smith_normal_form(seen[0]) == SmithForm(
        diag=[1, 1, 3],
        U=[[-1, 0, 0], [0, 0, -1], [2, 1, 3]],
        V=[[0, 0, 1, -1], [1, 1, 2, -1], [0, 1, 0, 1], [0, 0, 0, 1]])
    # Z/3, with the images read off the last row of U modulo 3
    assert (data.free_rank, data.invariant_factors, data.images) == (0, [3], [(2,), (1,), (0,)])
    assert data.describe() == "Z/3"


# -- a column swap in the middle of clearing a row -----------------------------------

SWAP_MID_ROW = [
    ([[4, 0, -4, -6], [4, -6, 6, 1], [-1, -3, -4, 5]],
     SmithForm(diag=[1, 1, 40],
               U=[[0, 1, 0], [1, 1, 1], [83, 78, 84]],
               V=[[0, 2, 1, -9], [0, 1, 1, -7], [0, 2, -1, 0], [1, -14, 8, -6]])),
    ([[1, 0, 4, 5], [-3, -2, 1, 6], [-5, -2, -6, 5]],
     SmithForm(diag=[1, 1, 2],
               U=[[1, 0, 0], [-3, -1, 0], [-5, 0, -1]],
               V=[[1, -4, 8, 31], [0, 7, -13, -48], [0, 1, -2, -9], [0, 0, 0, 1]])),
    ([[4, 6, 1, -2], [-4, -4, 1, 5], [2, 1, -1, 2]],
     SmithForm(diag=[1, 1, 1],
               U=[[1, 0, 0], [0, -1, -1], [1, 1, 2]],
               V=[[0, -1, 13, -49], [0, 1, -11, 42], [1, -2, 12, -48], [0, 0, -1, 4]])),
]


@pytest.mark.parametrize("rows, form", SWAP_MID_ROW)
def test_smith_transforms_with_a_column_swap_mid_row(rows, form):
    assert smith_normal_form(rows) == form


# -- the certificate runs once per call -----------------------------------------------

def test_every_smith_call_runs_the_certificate_once(monkeypatch):
    (relations,) = _relation_matrices(monkeypatch, _matrix_lie_algebra(4, False))
    calls = []
    monkeypatch.setattr(linalg, "_check_smith",
                        lambda *args: calls.append(args) or _check_smith(*args))
    matrices = [[], [[], []], [[0, 0], [0, 0]], [[5]], [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
                [[2, -1, 1, 0], [-1, 2, 1, 0], [0, 0, -1, 1]], relations]
    matrices += [rows for rows, _ in SWAP_MID_ROW]
    for count, rows in enumerate(matrices, 1):
        smith_normal_form(rows)
        assert len(calls) == count
