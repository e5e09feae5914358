"""Bounded cochain complexes of finite-dimensional rational vector spaces.

A Complex stores per-degree dimensions and differential matrices inside a
window [lo, hi]; pieces outside the window are zero (the constructor rejects
nonzero ones), so every rank statement below is exact.  Degrees lo and hi
are still flagged on cohomology output: when the data is a truncation of
something larger those slices are not trustworthy.

Only what a criterion reads is built.  c1 reads the cone's differential as
`_cone_differentials` makes it: each d_C^n once, as integer rows over one
common denominator, checked for d_C^2 = 0 and ranked as ints (a nonzero
scalar keeps ranks and the zero pattern of products), so no Fraction is
built for it; `cone`, the public constructor, divides those rows back into
a Complex.  c2 reads ranks alone: Z^n(f) is onto when
rank [d_X^n; f^n] - rank d_X^n = dim Z^n(Y), and then H^n(f) is injective
exactly when dim H^n(X) = dim H^n(Y), so no cocycle or cohomology class is
built.  `cohomology` and `cocycles`, the
nullspace route that tests check the criteria against, stay for the
benchmark's tracer; complexes only tests build are in `tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .fincat.core import Record, ValidationReport
from .linalg import (
    Mat,
    Vec,
    _integer_rows,
    _is_zero_product,
    frac,
    mat_mul,
    nullspace,
    rank,
    solve,
    zeros,
)


class Complex:
    def __init__(self, window, dims, d):
        self.lo, self.hi = int(window[0]), int(window[1])
        if self.lo > self.hi:
            raise ValueError("empty window")
        self.dims = {int(n): int(k) for n, k in dims.items() if k}
        if self.dims and min(self.dims.values()) < 0:
            n = min(n for n, k in self.dims.items() if k < 0)
            raise ValueError(f"negative dimension of X^{n}")
        outside = sorted(n for n in self.dims if not self.lo <= n <= self.hi)
        if outside:
            raise ValueError(f"nonzero X^{outside[0]} outside window {self.window}")
        self.d = {}
        for n, m in d.items():
            n = int(n)
            mat_ = [[frac(x) for x in row] for row in m]
            if not (mat_ and any(row for row in mat_)):
                continue
            if self.lo <= n < self.hi:
                self.d[n] = mat_
            elif any(any(row) for row in mat_):
                raise ValueError(f"nonzero d^{n} outside window {self.window}")

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def diff(self, n: int) -> Mat:
        """d^n: X^n -> X^{n+1} (zero matrix when absent)."""
        m = self.d.get(n)
        if m is not None:
            return m
        return zeros(self.dim(n + 1), self.dim(n))

    @property
    def window(self):
        return (self.lo, self.hi)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def validate(self) -> ValidationReport:
        """Shapes, then d^(n+1) d^n = 0 wherever both factors are stored and
        well shaped (an absent differential is zero)."""
        failures, d = [], dict(self.d)
        for n, m in self.d.items():
            rows, cols = len(m), len(m[0])
            if (rows, cols) != (self.dim(n + 1), self.dim(n)):
                failures.append(f"d^{n} has shape {rows}x{cols}, "
                                f"expected {self.dim(n+1)}x{self.dim(n)}")
                del d[n]
        for n in range(self.lo, self.hi - 1):
            if n in d and n + 1 in d and not _is_zero_product(
                    _integer_rows(d[n + 1], None)[0], _integer_rows(zip(*d[n]), None)[0]):
                failures.append(f"d^{n+1} d^{n} != 0")
        return ValidationReport(not failures, failures)

    def __repr__(self):
        return f"Complex(window={self.window}, dims={self.dims})"


class ChainMap:
    def __init__(self, source: Complex, target: Complex, components):
        if source.window != target.window:
            raise ValueError("chain maps require a shared window")
        self.source = source
        self.target = target
        self.components = {}
        for n, m in components.items():
            n = int(n)
            mat_ = [[frac(x) for x in row] for row in m]
            # all-zero components are regenerated with authoritative shapes
            if mat_ and any(any(row) for row in mat_):
                self.components[n] = mat_

    def component(self, n: int) -> Mat:
        m = self.components.get(n)
        if m is not None:
            return m
        return zeros(self.target.dim(n), self.source.dim(n))

    def validate(self) -> ValidationReport:
        """Shapes, then d_Y^n f^n = f^(n+1) d_X^n where both components are
        well shaped; a product with an absent factor is zero, not formed."""
        failures, bad = [], set()
        f, X, Y = self.components, self.source, self.target
        for n, m in f.items():
            if (len(m), len(m[0])) != (Y.dim(n), X.dim(n)):
                failures.append(f"component {n} has wrong shape")
                bad.add(n)
        for n in range(X.lo, X.hi):
            if n in bad or n + 1 in bad:
                continue
            zero = zeros(Y.dim(n + 1), X.dim(n))
            lhs = mat_mul(Y.d[n], f[n]) if n in Y.d and n in f else zero
            rhs = mat_mul(f[n + 1], X.d[n]) if n + 1 in f and n in X.d else zero
            if lhs != rhs:
                failures.append(f"does not commute with d at degree {n}")
        return ValidationReport(not failures, failures)


# -- cohomology -----------------------------------------------------------


class CohomologySlice(Record):
    """What `cohomology` returns; kept with it."""

    __slots__ = ("degree", "h_dim", "boundary_degree")

    def __init__(self, degree: int, h_dim: int, boundary_degree: bool):
        self.degree = degree
        self.h_dim = h_dim                      # dim Z^n - rank d^(n-1)
        self.boundary_degree = boundary_degree  # slice sits at the window boundary


def cocycles(X: Complex, n: int) -> list[Vec]:
    """A basis of Z^n(X) = ker d^n; read by `cohomology` and by tests."""
    if X.dim(n) == 0:
        return []
    return nullspace(X.diff(n), width=X.dim(n))


def cohomology(X: Complex, n: int) -> CohomologySlice:
    """dim H^n(X) by nullspace; kept because the benchmark's tracer wraps it."""
    if not (X.lo <= n <= X.hi):
        raise ValueError(f"degree {n} outside window {X.window}")
    return CohomologySlice(degree=n, h_dim=len(cocycles(X, n)) - rank(X.diff(n - 1)),
                           boundary_degree=n in (X.lo, X.hi))


# -- cones --------------------------------------------------------------------


def _cone_differentials(f: ChainMap) -> dict[int, tuple[list[list[int]], int]]:
    """{n: (den * d_C^n as integer rows, den)} for each differential
    d_C^n = [[d_Y^n, f^(n+1)], [0, -d_X^(n+1)]] of Cone(f) = Y + Sigma(X)
    with a stored block, den the lcm of its denominators; checked for
    d_C^(n+1) d_C^n = 0, which holds exactly when X and Y are complexes and
    f is a chain map."""
    X, Y = f.source, f.target

    def ints(m, rows, cols, den):      # den * m, or the zero rows x cols
        return _integer_rows(m, den)[0] if m else [[0] * cols for _ in range(rows)]

    d = {}
    for n in range(Y.lo - 1, Y.hi):
        dy, fc, dx = blocks = Y.d.get(n), f.components.get(n + 1), X.d.get(n + 1)
        if not any(blocks):
            continue
        den = lcm(*[x.denominator for m in blocks if m for row in m for x in row])
        top = zip(ints(dy, Y.dim(n + 1), Y.dim(n), den),
                  ints(fc, Y.dim(n + 1), X.dim(n + 1), den))
        bottom = ints(dx, X.dim(n + 2), X.dim(n + 1), -den)
        d[n] = [y + z for y, z in top] + [[0] * Y.dim(n) + x for x in bottom], den
    for n in d:
        if n + 1 in d and not _is_zero_product(d[n + 1][0], list(zip(*d[n][0]))):
            raise AssertionError(f"cone differential fails d^2 = 0 at degree {n}")
    return d


def cone(f: ChainMap) -> Complex:
    """Cone(f) = Y + Sigma(X), where Sigma(X)^n = X^{n+1}, with differential
    [[d_Y, f^{n+1}], [0, -d_X]]; checked for d^2 = 0."""
    X, Y = f.source, f.target
    lo, hi = Y.lo - 1, Y.hi
    return Complex((lo, hi), {n: Y.dim(n) + X.dim(n + 1) for n in range(lo, hi + 1)},
                   {n: [[Fraction(x, den) for x in row] for row in rows]
                    for n, (rows, den) in _cone_differentials(f).items()})


# -- surjective quasi-isomorphism criteria ----------------------------------


def is_surjective(f: ChainMap) -> bool:
    for n in f.source.degrees():
        if rank(f.component(n)) < f.target.dim(n):
            return False
    return True


def is_quasi_iso(f: ChainMap) -> bool:
    """Quasi-isomorphism via acyclicity of C = cone(f) in every degree, from
    h^n(C) = dim C^n - rank d^n - rank d^(n-1).  Only the cone's differential
    is read, as the integer rows of `_cone_differentials`: each d^n is ranked
    once, in degree order, stopping at the first nonzero h^n."""
    X, Y = f.source, f.target
    d = _cone_differentials(f)
    rank_prev = 0           # the cone vanishes outside [Y.lo - 1, Y.hi]
    for n in range(Y.lo - 1, Y.hi + 1):
        rank_n = rank(d[n][0]) if n in d else 0
        if Y.dim(n) + X.dim(n + 1) - rank_n - rank_prev:
            return False
        rank_prev = rank_n
    return True


def section_condition(f: ChainMap, n: int) -> tuple[bool, dict]:
    """Degree-n instance: every (x, y) with x in Z^{n+1}(X), f(x) = d(y)
    admits x' with d(x') = x and f(x') = y.  Decided exactly by comparing
    the solution space against the span of (d, f): X^n -> X^{n+1} + Y^n."""
    X, Y = f.source, f.target
    dn1 = X.diff(n + 1)
    fn1 = f.component(n + 1)
    dyn = Y.diff(n)
    # pairs (x, y): d x = 0 and f x - d y = 0
    dimx, dimy = X.dim(n + 1), Y.dim(n)
    pad = [Fraction(0)] * dimy
    rows = ([dn1[i][:dimx] + pad for i in range(X.dim(n + 2))]
            + [fn1[i][:dimx] + [-x for x in dyn[i][:dimy]] for i in range(Y.dim(n + 1))])
    if not rows and (dimx + dimy):
        rows = [[Fraction(0)] * (dimx + dimy)]
    pairs = nullspace(rows) if (dimx + dimy) else []
    # image of x' -> (d x', f x')
    dn, fn, w = X.diff(n), f.component(n), X.dim(n)
    span_rows = [dn[i][:w] for i in range(dimx)] + [fn[i][:w] for i in range(dimy)]
    unsolved = [v for v, x in zip(pairs, solve(span_rows, pairs)) if x is None]
    return (not unsolved, {"pairs": len(pairs), "unsolved": unsolved})


class SurjQuasReport(Record):
    __slots__ = ("c1", "c2", "c3", "details")

    def __init__(self, c1: bool, c2: bool, c3: bool, details: dict):
        self.c1 = c1            # surjective quasi-isomorphism
        self.c2 = c2            # Z^n surjective and H^n injective, all n
        self.c3 = c3            # section condition, all n
        self.details = details

    def all_equal(self):
        return self.c1 == self.c2 == self.c3


def surj_quas_criteria(f: ChainMap) -> SurjQuasReport:
    """The three equivalent descriptions of a surjective quasi-isomorphism,
    each evaluated independently and exactly (complexes vanish outside the
    window, so all three are global statements)."""
    X, Y = f.source, f.target
    lo, hi = X.window
    c1 = is_surjective(f) and is_quasi_iso(f)

    c2_fail = None
    rank_x = rank_y = 0     # rank d^(n-1); X and Y vanish outside the window
    # Z^n(f) has kernel ker [d_X^n; f^n], so its image has dimension
    # rank [d_X^n; f^n] - rank d_X^n.  Z^n(f) onto makes H^n(f) onto, so
    # H^n(f) is then injective exactly when dim H^n(X) = dim H^n(Y)
    for n in X.degrees():
        dx = X.diff(n)
        rank_xprev, rank_x = rank_x, rank(dx)
        rank_yprev, rank_y = rank_y, rank(Y.diff(n))
        zy = Y.dim(n) - rank_y
        if zy and rank(dx + f.component(n)) - rank_x < zy:
            c2_fail = ("Z-surjectivity", n)
            break
        hx = X.dim(n) - rank_x - rank_xprev
        if hx and zy - rank_yprev != hx:
            c2_fail = ("H-injectivity", n)
            break
    c2 = c2_fail is None

    c3_fail = None
    for n in range(lo - 1, hi + 1):
        ok, info = section_condition(f, n)
        if not ok:
            c3_fail = ("section", n, info)
            break
    c3 = c3_fail is None

    return SurjQuasReport(c1, c2, c3,
                          {"c2_failure": c2_fail, "c3_failure": c3_fail})

