"""Bounded cochain complexes of finite-dimensional rational vector spaces.

A Complex stores per-degree dimensions and differential matrices inside a
window [lo, hi]; pieces outside the window are zero (the constructor rejects
nonzero ones), so every rank statement below is exact.  Degrees lo and hi
are still flagged on cohomology output: when the data is a truncation of
something larger those slices are not trustworthy.

Only what a criterion reads is built: `cone` returns the cone's complex,
whose differential is all that `is_quasi_iso` reads, and c2 reads ranks
alone: Z^n(f) is onto when rank [d_X^n; f^n] - rank d_X^n = dim Z^n(Y), and
then H^n(f) is injective exactly when dim H^n(X) = dim H^n(Y), so no
cocycle or cohomology class is built.  `cohomology` and `cocycles`, the
nullspace route that tests check the criteria against, stay for the
benchmark's tracer; complexes only tests build are in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fincat.core import ValidationReport
from .linalg import (
    Mat,
    Vec,
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
        failures = []
        for n, m in self.d.items():
            rows, cols = len(m), len(m[0]) if m else 0
            if (rows, cols) != (self.dim(n + 1), self.dim(n)) and m:
                failures.append(f"d^{n} has shape {rows}x{cols}, "
                                f"expected {self.dim(n+1)}x{self.dim(n)}")
        for n in range(self.lo, self.hi - 1):
            prod = mat_mul(self.diff(n + 1), self.diff(n))
            if any(any(x for x in row) for row in prod):
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
        failures = []
        for n, m in self.components.items():
            rows = len(m)
            cols = len(m[0]) if m else 0
            if m and (rows, cols) != (self.target.dim(n), self.source.dim(n)):
                failures.append(f"component {n} has wrong shape")
        lo, hi = self.source.window
        for n in range(lo, hi):
            lhs = mat_mul(self.target.diff(n), self.component(n))
            rhs = mat_mul(self.component(n + 1), self.source.diff(n))
            # zero maps through zero spaces may come back with degenerate
            # widths; all-zero matrices are equal regardless of shape
            zl = all(not x for row in lhs for x in row)
            zr = all(not x for row in rhs for x in row)
            if (zl and zr):
                continue
            if lhs != rhs:
                failures.append(f"does not commute with d at degree {n}")
        return ValidationReport(not failures, failures)


# -- cohomology -----------------------------------------------------------


@dataclass
class CohomologySlice:
    """What `cohomology` returns; kept with it."""
    degree: int
    h_dim: int                 # dim Z^n - rank d^(n-1)
    boundary_degree: bool      # slice sits at the window boundary


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


def cone(f: ChainMap) -> Complex:
    """Cone(f) = Y + Sigma(X), where Sigma(X)^n = X^{n+1}, with differential
    [[d_Y, f^{n+1}], [0, -d_X]]; checked for d^2 = 0."""
    X, Y = f.source, f.target
    lo, hi = Y.lo - 1, Y.hi
    dims = {}
    for n in range(lo, hi + 1):
        dims[n] = Y.dim(n) + X.dim(n + 1)
    d = {}
    for n in range(lo, hi):
        dy, fc, dx = Y.diff(n), f.component(n + 1), X.diff(n + 1)
        pad = [Fraction(0)] * Y.dim(n)
        d[n] = ([dy[i] + fc[i] for i in range(Y.dim(n + 1))]
                + [pad + [-x for x in dx[i]] for i in range(X.dim(n + 2))])
    C = Complex((lo, hi), dims, d)
    ok, failures = C.validate()
    if not ok:
        raise AssertionError(f"cone differential fails d^2 = 0: {failures}")
    return C


# -- surjective quasi-isomorphism criteria ----------------------------------


def is_surjective(f: ChainMap) -> bool:
    for n in f.source.degrees():
        if rank(f.component(n)) < f.target.dim(n):
            return False
    return True


def is_quasi_iso(f: ChainMap) -> bool:
    """Quasi-isomorphism via acyclicity of C = cone(f) in every degree, from
    h^n(C) = dim C^n - rank d^n - rank d^(n-1).  Only the cone's differential
    is read: each d^n is ranked once, in degree order, stopping at the first
    nonzero h^n."""
    C = cone(f)
    rank_prev = 0           # the complex vanishes outside its window
    for n in C.degrees():
        rank_n = rank(C.d[n]) if n in C.d else 0
        if C.dim(n) - rank_n - rank_prev:
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


@dataclass
class SurjQuasReport:
    c1: bool                  # surjective quasi-isomorphism
    c2: bool                  # Z^n surjective and H^n injective, all n
    c3: bool                  # section condition, all n
    details: dict

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

