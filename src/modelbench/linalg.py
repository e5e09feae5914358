"""Exact linear algebra over the rationals.

Matrices are lists of rows of Fractions; an m x n matrix represents a map
Q^n -> Q^m acting on column vectors.  Everything here is deterministic:
pivots are chosen left to right, candidate rows top to bottom.
`_integer_rref` is the only reduction; callers with several questions about
one matrix ask them in one call (`solve` takes every right-hand side at
once) so the matrix is reduced once, not once per vector.  `rref` divides
the reduced rows into Fractions; `rank` reads only the pivots and builds
no Fraction.

The reduction eliminates fraction-free over Python ints (Bareiss 1968,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22): each row is cleared of denominators, every
update is divided exactly by the previous pivot, and `rref` divides the
result by one common pivot at the end.  So a Fraction, with its gcd, is
built once per nonzero entry of the answer, not after every arithmetic
operation.  Every answer entry is a Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Vec = list[Fraction]
Mat = list[list[Fraction]]

_ZERO = Fraction(0)     # Fractions are immutable, so `rref` shares this one


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(m: int, n: int) -> Mat:
    return [[Fraction(0)] * n for _ in range(m)]


def shape(a: Mat) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def mat_mul(a: Mat, b: Mat) -> Mat:
    ma, na = shape(a)
    mb, nb = shape(b)
    if ma == 0 or (na == 0 and mb == 0):
        # width information is erased on empty matrices; trust the caller
        return [[Fraction(0)] * nb for _ in range(ma)]
    if na != mb:
        raise ValueError(f"shape mismatch {ma}x{na} * {mb}x{nb}")
    out = zeros(ma, nb)
    for i in range(ma):
        arow = a[i]
        orow = out[i]
        for k in range(na):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(nb):
                    if brow[j]:
                        orow[j] += x * brow[j]
    return out


def transpose(a: Mat) -> Mat:
    m, n = shape(a)
    return [[a[i][j] for i in range(m)] for j in range(n)]


def _integer_rref(a: Mat) -> tuple[list[list[int]], list[int], int]:
    """The fraction-free Gauss-Jordan reduction of `a`: (integer rows, pivot
    column indices, last pivot d), where the rows divided by d are the
    reduced row echelon form.

    Each row is scaled by the lcm of its denominators, then with p the new
    pivot, prev the one before it (1 at first) and c a row's entry in the
    pivot column, every other row becomes (p*row - c*pivot_row) // prev.  By
    Sylvester's identity each entry is then a minor of the scaled matrix, so
    the division is exact.  A reduced row's pivot entry follows p, so at the
    end every pivot entry equals the last pivot d.  Callers that read only
    the pivots stop here and build no Fraction."""
    m, n = shape(a)
    r = []
    for xs in a:
        den = lcm(*[x.denominator for x in xs])
        r.append([x.numerator * (den // x.denominator) for x in xs] if den != 1
                 else [x.numerator for x in xs])
    pivots: list[int] = []
    prev = 1
    row = 0
    for col in range(n):
        for sel in range(row, m):
            if r[sel][col]:
                break
        else:
            continue
        r[row], r[sel] = r[sel], r[row]
        prow = r[row]
        p = prow[col]
        for i, ri in enumerate(r):
            if i == row:
                continue
            c = ri[col]
            if c:
                r[i] = [(p * x - c * y) // prev for x, y in zip(ri, prow)]
            elif p != prev:
                r[i] = [p * x // prev for x in ri]
        prev = p
        pivots.append(col)
        row += 1
        if row == m:
            break
    return r, pivots, prev


def rref(a: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form; returns (rref, pivot column indices): the
    integer rows of `_integer_rref` divided by its last pivot.  The reduced
    row echelon form is unique, so this is the matrix that Fraction
    elimination gives, with the same pivots."""
    r, pivots, d = _integer_rref(a)
    return [[Fraction(x, d) if x else _ZERO for x in ri] for ri in r], pivots


def rank(a: Mat) -> int:
    return len(_integer_rref(a)[1])


def nullspace(a: Mat, width: int | None = None) -> list[Vec]:
    """Basis of {v : a v = 0}, one vector per free column, deterministic.
    `width` pins the variable count when `a` has no rows."""
    m, n = shape(a)
    if m == 0:
        n = width if width is not None else n
        return [[Fraction(1 if i == j else 0) for i in range(n)] for j in range(n)]
    r, pivots = rref(a)
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -r[i][j]
        basis.append(v)
    return basis


def solve(a: Mat, bs: list[Vec]) -> list[Vec | None]:
    """One solution of a x = b for each b in `bs`, or None where there is none,
    from one reduction of [a | b_1 ... b_k].

    b_j is solvable iff column n + j is zero in every reduced row at or below
    rank(a); that column need not be a pivot column to be inconsistent.  Row
    operations after the columns of a only add multiples of those lower rows,
    so a solvable column keeps its values in the rows above, which hold x.
    A matrix with no rows has no width: each solution then has length 0."""
    m, n = shape(a)
    if any(len(b) != m for b in bs):
        raise ValueError("rhs length mismatch")
    if m == 0:
        return [[Fraction(0)] * n for _ in bs]
    if not bs:
        return []
    aug = [a[i] + [b[i] for b in bs] for i in range(m)]
    r, pivots = rref(aug)
    rk = sum(1 for pc in pivots if pc < n)
    out: list[Vec | None] = []
    for j in range(n, n + len(bs)):
        if any(r[i][j] for i in range(rk, m)):
            out.append(None)
            continue
        x = [Fraction(0)] * n
        for i in range(rk):
            x[pivots[i]] = r[i][j]
        out.append(x)
    return out

