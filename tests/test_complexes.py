import random
from fractions import Fraction

import pytest

from modelbench.complexes import (
    ChainMap,
    Complex,
    cocycles,
    cohomology,
    cone,
    is_quasi_iso,
    surj_quas_criteria,
)
from modelbench.fincat import ValidationReport, interval_category
from modelbench.linalg import mat_mul, nullspace, rank, transpose, zeros
from oracles import identity_chain_map, mat_vec, ref_cone, ref_is_quasi_iso, stalk, zero_complex


def V():
    # K t + K dt with |t| = 0: the contractible two-term complex
    return Complex((-1, 1), {0: 1, 1: 1}, {0: [[1]]})


def h_dims(X):
    return {n: cohomology(X, n).h_dim for n in X.degrees()}


def test_contractible_v_has_zero_cohomology():
    X = V()
    assert X.validate()[0]
    assert all(cohomology(X, n).h_dim == 0 for n in X.degrees())


def test_zero_complex_cohomology():
    X = zero_complex((-2, 2))
    assert h_dims(X) == {n: 0 for n in X.degrees()}


def test_stalk_cohomology():
    X = stalk(0, window=(-1, 1))
    assert cohomology(X, 0).h_dim == 1
    assert cohomology(X, -1).h_dim == 0
    assert cohomology(X, 0).boundary_degree is False
    assert cohomology(X, 1).boundary_degree is True


def test_cone_of_identity_acyclic():
    X = V()
    C = cone(identity_chain_map(X))
    assert set(h_dims(C).values()) == {0}


def test_cone_of_map_to_zero_is_suspension():
    # Cone(X -> 0)^n = X^{n+1} with d_C^n = -d_X^{n+1}
    X = V()
    f = ChainMap(X, zero_complex(X.window), {})
    C = cone(f)
    assert C.window == (X.lo - 1, X.hi)
    for n in C.degrees():
        assert C.dim(n) == X.dim(n + 1), n
        assert C.diff(n) == [[-x for x in row] for row in X.diff(n + 1)], n
    assert C.diff(-1) == [[Fraction(-1)]]


def test_v_to_zero_is_surjective_quasi_iso():
    X = V()
    f = ChainMap(X, zero_complex(X.window), {})
    assert is_quasi_iso(f)
    rep = surj_quas_criteria(f)
    assert rep.all_equal() and rep.c1


def test_identity_criteria_all_true():
    rep = surj_quas_criteria(identity_chain_map(V()))
    assert rep.c1 and rep.c2 and rep.c3


def test_cocycle_stalk_into_v_not_quasi_iso():
    # K[1] -> V sending the generator to dt: a chain map, not a quasi-iso
    X1 = stalk(1, window=(-1, 1))
    Y = V()
    g = ChainMap(X1, Y, {1: [[1]]})
    assert g.validate()[0]
    assert not is_quasi_iso(g)
    rep = surj_quas_criteria(g)
    assert rep.all_equal() and not rep.c1


# -- randomized agreement of the three criteria ---------------------------


def random_complex(rng, window=(-3, 3), max_dim=4) -> Complex:
    """Valid random complex: each d^{n+1} is built from the left-annihilator
    of d^n, so d^2 = 0 holds exactly."""
    lo, hi = window
    dims = {n: rng.randrange(max_dim + 1) for n in range(lo, hi + 1)}
    d = {}
    prev = None     # d^{n-1}
    for n in range(lo, hi):
        rows, cols = dims.get(n + 1, 0), dims.get(n, 0)
        if rows == 0 or cols == 0:
            prev = zeros(rows, cols)
            d[n] = prev
            continue
        if prev is None or not any(any(r) for r in prev):
            m = [[Fraction(rng.randrange(-2, 3)) for _ in range(cols)]
                 for _ in range(rows)]
        else:
            # rows must kill the image of prev: pick them in ker(prev^T)
            ann = nullspace(transpose(prev))
            m = []
            for _ in range(rows):
                row = [Fraction(0)] * cols
                for v in ann:
                    c = Fraction(rng.randrange(-2, 3))
                    row = [x + c * y for x, y in zip(row, v)]
                m.append(row)
        d[n] = m
        prev = m
    return Complex(window, dims, d)


def random_degree_minus_one(rng, X: Complex, Y: Complex):
    """Arbitrary degree -1 maps h^n: X^n -> Y^{n-1}."""
    return {n: [[Fraction(rng.randrange(-2, 3)) for _ in range(X.dim(n))]
                for _ in range(Y.dim(n - 1))] for n in X.degrees()}


def null_homotopic_map(rng, X: Complex, Y: Complex) -> ChainMap:
    """f = d_Y h + h d_X is always a chain map."""
    h = random_degree_minus_one(rng, X, Y)
    comps = {}
    for n in X.degrees():
        m = zeros(Y.dim(n), X.dim(n))
        if Y.dim(n - 1) and Y.dim(n) and X.dim(n):
            for i, row in enumerate(mat_mul(Y.diff(n - 1), h[n])):
                m[i] = [a + b for a, b in zip(m[i], row)]
        hn1 = h.get(n + 1, zeros(Y.dim(n), X.dim(n + 1)))
        if X.dim(n + 1) and Y.dim(n) and X.dim(n):
            for i, row in enumerate(mat_mul(hn1, X.diff(n))):
                m[i] = [a + b for a, b in zip(m[i], row)]
        comps[n] = m
    return ChainMap(X, Y, comps)


def direct_sum(A: Complex, B: Complex) -> Complex:
    dims = {n: A.dim(n) + B.dim(n) for n in A.degrees()}
    d = {}
    for n in range(A.lo, A.hi):
        m = zeros(dims.get(n + 1, 0), dims.get(n, 0))
        for i in range(A.dim(n + 1)):
            for j in range(A.dim(n)):
                m[i][j] = A.diff(n)[i][j]
        for i in range(B.dim(n + 1)):
            for j in range(B.dim(n)):
                m[A.dim(n + 1) + i][A.dim(n) + j] = B.diff(n)[i][j]
        d[n] = m
    return Complex(A.window, dims, d)


def projection_map(A: Complex, B: Complex) -> ChainMap:
    """A + B -> A."""
    S = direct_sum(A, B)
    comps = {}
    for n in S.degrees():
        m = zeros(A.dim(n), S.dim(n))
        for i in range(A.dim(n)):
            m[i][i] = Fraction(1)
        comps[n] = m
    return ChainMap(S, A, comps)


def random_bounded_chain_map(rng) -> ChainMap:
    kind = rng.randrange(3)
    if kind == 0:
        X = random_complex(rng)
        Y = random_complex(rng)
        return null_homotopic_map(rng, X, Y)
    if kind == 1:
        A = random_complex(rng, max_dim=2)
        B = random_complex(rng, max_dim=2)
        return projection_map(A, B)
    A = random_complex(rng, max_dim=2)
    B = random_complex(rng, max_dim=2)
    p = projection_map(A, B)
    h = null_homotopic_map(rng, p.source, A)
    comps = {n: [[a + b for a, b in zip(r1, r2)]
                 for r1, r2 in zip(p.component(n), h.component(n))]
             for n in p.source.degrees()}
    return ChainMap(p.source, A, comps)


def h_rank(f: ChainMap, n: int) -> int:
    """rank H^n(f) = rank[f Z^n(X) | d_Y^(n-1)] - rank d_Y^(n-1), the
    dimension of f(Z^n(X)) + B^n(Y) less that of B^n(Y)."""
    Y = f.target
    cols = [mat_vec(f.component(n), z) for z in cocycles(f.source, n)] + transpose(Y.diff(n - 1))
    return rank([[c[i] for c in cols] for i in range(Y.dim(n))]) - rank(Y.diff(n - 1))


def ref_c2(f: ChainMap):
    """c2 and its first failure, deciding H-injectivity at every degree by
    the general formula dim Z^n(X) - rank H^n(f) = rank d_X^(n-1), which
    does not assume that Z^n(f) is onto."""
    X, Y = f.source, f.target
    for n in X.degrees():
        zx, zy = cocycles(X, n), cocycles(Y, n)
        imgs = [mat_vec(f.component(n), z) for z in zx]
        if rank([[v[i] for v in imgs] for i in range(Y.dim(n))]) < len(zy):
            return False, ("Z-surjectivity", n)
        if len(zx) - h_rank(f, n) != rank(X.diff(n - 1)):
            return False, ("H-injectivity", n)
    return True, None


def assert_same_complex(C, R):
    assert (C.window, C.dims) == (R.window, R.dims)
    for n in range(C.lo - 1, C.hi + 1):
        assert C.diff(n) == R.diff(n), n
        assert all(type(x) is Fraction for row in C.diff(n) for x in row), n


def test_200_random_maps_three_criteria_agree():
    rng = random.Random(90127)
    seen_true = seen_false = 0
    for trial in range(200):
        f = random_bounded_chain_map(rng)
        ok, fails = f.validate()
        assert ok, (trial, fails)
        rep = surj_quas_criteria(f)
        assert rep.all_equal(), (trial, rep)
        assert (rep.c2, rep.details["c2_failure"]) == ref_c2(f), trial
        assert is_quasi_iso(f) == ref_is_quasi_iso(f), trial
        assert_same_complex(cone(f), ref_cone(f))
        if rep.c1:
            seen_true += 1
        else:
            seen_false += 1
    assert seen_true > 0 and seen_false > 0


def test_surjective_map_that_is_not_a_chain_map_is_refused():
    # onto in both degrees, but d f^0 = 1 and f^1 d = 2
    f = ChainMap(V(), V(), {0: [[1]], 1: [[2]]})
    assert f.validate() == (False, ["does not commute with d at degree 0"])
    with pytest.raises(AssertionError, match="d\\^2 = 0"):
        surj_quas_criteria(f)
    with pytest.raises(AssertionError, match="d\\^2 = 0"):
        cone(f)


def test_long_exact_sequence_rank_identity():
    rng = random.Random(4711)
    for trial in range(40):
        f = random_bounded_chain_map(rng)
        X, Y = f.source, f.target
        C = cone(f)
        for n in range(X.lo, X.hi):
            coker = cohomology(Y, n).h_dim - h_rank(f, n)
            ker = cohomology(X, n + 1).h_dim - h_rank(f, n + 1)
            assert cohomology(C, n).h_dim == coker + ker, (trial, n)


def test_chain_map_window_mismatch_rejected():
    with pytest.raises(ValueError):
        ChainMap(stalk(0, window=(0, 1)), stalk(0, window=(0, 2)), {})


def test_complex_rejects_data_outside_its_window():
    # nonzero data there escapes validate() and makes cohomology negative
    with pytest.raises(ValueError, match="X\\^2"):
        Complex((0, 1), {0: 1, 1: 1, 2: 1}, {0: [[1]]})
    with pytest.raises(ValueError, match="d\\^1"):
        Complex((0, 1), {0: 1, 1: 1}, {0: [[1]], 1: [[1]]})
    with pytest.raises(ValueError, match="d\\^-1"):
        Complex((0, 1), {0: 1, 1: 1}, {-1: [[1]]})
    with pytest.raises(ValueError):
        stalk(2, window=(0, 1))
    # zero data outside the window is the convention, not an error
    X = Complex((0, 1), {0: 1, 1: 1, 2: 0}, {0: [[1]], 1: [[0]]})
    assert X.validate() == (True, []) and h_dims(X) == {0: 0, 1: 0}


def test_complex_rejects_a_negative_dimension():
    # such a complex used to validate, and a chain map from it to the zero
    # complex got c1 = c2 = False but c3 = True
    with pytest.raises(ValueError, match="negative dimension of X\\^0"):
        Complex((0, 0), {0: -1}, {})


def test_validate_returns_one_verdict_type():
    X = V()
    f = identity_chain_map(X)
    for report in (X.validate(), f.validate(), interval_category().validate()):
        assert isinstance(report, ValidationReport) and report and report.failures == []
    bad = ChainMap(X, X, {0: [[1]]}).validate()
    assert isinstance(bad, ValidationReport) and not bad
    assert bad == (False, ["does not commute with d at degree 0"])


def test_chain_map_reports_a_wrong_shaped_component():
    # the products at degrees -1 and 0 read component 0, so they are skipped
    assert ChainMap(V(), V(), {0: [[1, 1]]}).validate() == (
        False, ["component 0 has wrong shape"])
    assert ChainMap(V(), V(), {0: [[1]], 1: [[1], [1]]}).validate() == (
        False, ["component 1 has wrong shape"])


def test_section_condition_ranges():
    from modelbench.complexes import section_condition
    X = V()
    f = identity_chain_map(X)
    for n in range(X.lo - 1, X.hi + 1):
        ok, info = section_condition(f, n)
        assert ok
