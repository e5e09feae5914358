from fractions import Fraction

import pytest

from modelbench.linalg import (
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve,
)


def mat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    a = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, pivots = rref(a)
    assert pivots == [0, 1]
    assert rank(a) == 2


def test_rref_with_negative_and_fractional_pivots():
    # the first pivot needs a row swap and is -2, the second is 2/3; by hand:
    # scale the pivot row by -1/2, clear column 0, then the 2/3 row clears
    # column 2, and the third row is the first minus twice the second
    a = mat([[0, 0, Fraction(2, 3), 3],
             [-2, 1, Fraction(1, 3), 0],
             [4, -2, 0, 3]])
    r, pivots = rref(a)
    assert pivots == [0, 2]
    assert r == mat([[1, Fraction(-1, 2), 0, Fraction(3, 4)],
                     [0, 0, 1, Fraction(9, 2)],
                     [0, 0, 0, 0]])


@pytest.mark.parametrize("rows", [[[1, 2, 0], [0, 0, 1], [0, 0, 0]],    # last pivot 1
                                  [[2, 4, 1], [1, 2, 0], [0, 0, 0]]])   # last pivot -1
def test_answers_are_fractions_and_the_input_is_left_alone(rows):
    a = mat(rows)
    before = [row[:] for row in a]
    r, _ = rref(a)
    x, = solve(a, [[Fraction(3), Fraction(1), Fraction(0)]])
    entries = [e for row in r for e in row] + [e for v in nullspace(a) for e in v] + x
    assert entries and all(type(e) is Fraction for e in entries)
    assert a == before


def test_matrix_with_no_columns():
    a = [[], [], []]
    assert rref(a) == ([[], [], []], [])
    assert rank(a) == 0
    assert nullspace(a) == []
    assert solve(a, [[1, 0, 0], [0, 0, 0]]) == [None, []]


def test_solve_and_nullspace():
    a = mat([[1, 0, 1], [0, 1, 1]])
    x, = solve(a, [[Fraction(3), Fraction(5)]])
    assert x is not None
    assert mat_vec(a, x) == [Fraction(3), Fraction(5)]
    ns = nullspace(a)
    assert len(ns) == 1
    assert mat_vec(a, ns[0]) == [Fraction(0), Fraction(0)]


def test_solve_inconsistent():
    a = mat([[1, 1], [1, 1]])
    assert solve(a, [[Fraction(0), Fraction(1)]]) == [None]
    # the second right-hand side is not a pivot column of [a | b1 b2 b3],
    # yet it has no solution either
    assert solve(a, mat([[0, 1], [0, 2], [2, 2]])) == [None, None, [2, 0]]


def test_solve_shapes():
    a = mat([[1, 2]])
    assert solve(a, []) == []
    assert solve([], [[], []]) == [[], []]
    with pytest.raises(ValueError):
        solve(a, [[1], [1, 2]])


def test_mat_mul_identity():
    a = mat([[1, 2], [3, 4]])
    i = mat([[1, 0], [0, 1]])
    assert mat_mul(a, i) == a
    assert mat_mul(i, a) == a

