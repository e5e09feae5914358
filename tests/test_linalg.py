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

