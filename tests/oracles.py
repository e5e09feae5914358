"""Reference constructions that tests check the decision procedures against.

No decision procedure in `modelbench` calls these, and the benchmark does
not name them, so they live with the tests: the constructive lifts that
mirror the existence proofs of the natural model structure, the brute-force
isomorphism and quasi-inverse searches, object isomorphism classes, small
complexes and chain maps, a matrix-vector product, the Fraction routes of
the matrix product and of the cone that the integer ones replaced, the
pushout diagram, the Jordan quiver, and the opposite of a category or
functor.
"""

from __future__ import annotations

from fractions import Fraction

from modelbench.catmodel import classify
from modelbench.complexes import ChainMap, Complex
from modelbench.fincat import FinCat, Functor, enumerate_functors, free_category, natural_isos
from modelbench.fincat.core import identity_functor
from modelbench.fincat.diagrams import CatDiagram
from modelbench.fincat.quivers import Quiver
from modelbench.lifting import LiftWitness, Square
from modelbench.linalg import Mat, Vec, rank, shape


# -- constructive lifts ---------------------------------------------------
#
# Both constructions mirror the existence proofs: the first normalizes the
# choices on image objects (H(X) = i(C) and identity comparison isos whenever
# X = F(C)), the second uses unique preimages under a fully faithful functor.
# The produced functor is always validated and the two triangles re-checked.


class LiftPreconditionError(ValueError):
    pass


def _verify(square: Square, H: Functor) -> LiftWitness:
    if not H.validate().ok:
        raise AssertionError("constructed lift is not a functor")
    w = LiftWitness(square, H)
    if not w.verify():
        raise AssertionError("constructed lift does not close the triangles")
    return w


def lift_acyclic_injection_vs_isofibration(square: Square) -> LiftWitness:
    """Diagonal for (acyclic injection F) vs (isofibration G).

    For X outside the image, pick C_X and an iso u_X: X -> F(C_X), transport
    j(u_X) through the isofibration to a comparison iso h_X, and send
    f: X -> Y to h_Y^{-1} o i(C_f) o h_X with C_f the unique morphism whose
    F-image is u_Y o f o u_X^{-1}."""
    F, G, i, j = square.left, square.right, square.top, square.bottom
    if not classify(F).acyclic_injection:
        raise LiftPreconditionError("left leg is not an acyclic injection")
    if not classify(G).isofibration:
        raise LiftPreconditionError("right leg is not an isofibration")
    C, D = F.source, F.target
    M = G.source

    f_obj_inverse = {F.obj_map[c]: c for c in C.objects}
    cx = {}          # X -> C_X
    ux = {}          # X -> iso u_X: X -> F(C_X)
    hx = {}          # X -> iso h_X: H(X) -> i(C_X)
    h_obj = {}
    for X in D.objects:
        if X in f_obj_inverse:
            Cc = f_obj_inverse[X]
            cx[X] = Cc
            ux[X] = D.identity[X]
            h_obj[X] = i.obj_map[Cc]
            hx[X] = M.identity[i.obj_map[Cc]]
            continue
        found = False
        for Cc in C.objects:
            for u in D.hom(X, F.obj_map[Cc]):
                if D.is_iso(u):
                    cx[X], ux[X] = Cc, u
                    found = True
                    break
            if found:
                break
        if not found:
            raise LiftPreconditionError(f"no image object isomorphic to {X}")
        # j(u_X)^{-1} starts at an image object of G; lift it and invert
        ju = j.mor_map[ux[X]]
        ju_inv = j.target.inverse_of(ju)
        anchor = i.obj_map[cx[X]]
        lifted = None
        for m2 in M.objects:
            for h in M.hom(anchor, m2):
                if M.is_iso(h) and G.mor_map[h] == ju_inv:
                    lifted = h
                    break
            if lifted:
                break
        if lifted is None:
            raise LiftPreconditionError("isofibration failed to lift a comparison iso")
        h_obj[X] = M.cod[lifted]
        hx[X] = M.inverse_of(lifted)

    h_mor = {}
    for (f, X, Y) in D.morphisms:
        # unique C_f with F(C_f) = u_Y o f o u_X^{-1}
        target_img = D.compose(D.compose(ux[Y], f), D.inverse_of(ux[X]))
        cf = None
        for m in C.hom(cx[X], cx[Y]):
            if F.mor_map[m] == target_img:
                cf = m
                break
        if cf is None:
            raise LiftPreconditionError("fully-faithfulness failed to provide C_f")
        h_mor[f] = M.compose(M.inverse_of(hx[Y]),
                             M.compose(i.mor_map[cf], hx[X]))
    H = Functor("H", D, M, h_obj, h_mor)
    return _verify(square, H)


def lift_injection_vs_acyclic_isofibration(square: Square) -> LiftWitness:
    """Diagonal for (injection F) vs (acyclic isofibration G): objects lift
    through surjectivity (normalized to i(C) on the image of F), morphisms
    through unique G-preimages."""
    F, G, i, j = square.left, square.right, square.top, square.bottom
    if not classify(F).injection:
        raise LiftPreconditionError("left leg is not an injection")
    if not classify(G).acyclic_isofibration:
        raise LiftPreconditionError("right leg is not an acyclic isofibration")
    C, D = F.source, F.target
    M = G.source

    f_obj_inverse = {F.obj_map[c]: c for c in C.objects}
    h_obj = {}
    for X in D.objects:
        if X in f_obj_inverse:
            h_obj[X] = i.obj_map[f_obj_inverse[X]]
        else:
            jX = j.obj_map[X]
            pre = next((m for m in M.objects if G.obj_map[m] == jX), None)
            if pre is None:
                raise LiftPreconditionError("acyclic isofibration not surjective on objects")
            h_obj[X] = pre
    h_mor = {}
    for (f, X, Y) in D.morphisms:
        want = j.mor_map[f]
        pre = [m for m in M.hom(h_obj[X], h_obj[Y]) if G.mor_map[m] == want]
        if len(pre) != 1:
            raise LiftPreconditionError(
                f"G is not fully faithful on hom({h_obj[X]}, {h_obj[Y]})")
        h_mor[f] = pre[0]
    H = Functor("H", D, M, h_obj, h_mor)
    return _verify(square, H)


# -- brute-force searches on categories -----------------------------------


def find_category_isomorphism(C: FinCat, D: FinCat):
    """An isomorphism of categories C ~= D (bijective on objects and
    morphisms), or None: the first such functor of `enumerate_functors`.
    Categories with different object or morphism counts, or different hom
    profiles, are told apart before any enumeration."""
    if len(C.objects) != len(D.objects) or len(C.morphisms) != len(D.morphisms):
        return None
    homprofile = lambda E: sorted(
        len(E.hom(x, y)) for x in E.objects for y in E.objects)
    if homprofile(C) != homprofile(D):
        return None
    return next((F for F in enumerate_functors(C, D)
                 if len(set(F.obj_map.values())) == len(D.objects)
                 and len(set(F.mor_map.values())) == len(D.morphisms)), None)


def find_quasi_inverse(F: Functor):
    """A quasi-inverse (G, eta: GF => Id_C iso, eps: FG => Id_D iso), by
    brute force.  Returns None when no candidate works."""
    C, D = F.source, F.target
    for G in enumerate_functors(D, C):
        eps = natural_isos(G.then(F), identity_functor(D))
        if eps is None:
            continue
        eta = natural_isos(F.then(G), identity_functor(C))
        if eta is not None:
            return G, eta, eps
    return None


def isomorphic_objects(C: FinCat, x, y) -> bool:
    return any(C.is_iso(f) for f in C.hom(x, y))


def iso_classes_of_objects(C: FinCat):
    classes = []
    seen = set()
    for x in C.objects:
        if x in seen:
            continue
        cls = [y for y in C.objects
               if isomorphic_objects(C, x, y) and isomorphic_objects(C, y, x)]
        seen.update(cls)
        classes.append(cls)
    return classes


# -- complexes ------------------------------------------------------------


def zero_complex(window) -> Complex:
    return Complex(window, {}, {})


def stalk(n: int, window=None) -> Complex:
    return Complex(window or (n, n), {n: 1}, {})


def identity_chain_map(X: Complex) -> ChainMap:
    comps = {n: [[Fraction(1 if i == j else 0) for j in range(X.dim(n))]
                 for i in range(X.dim(n))] for n in X.degrees() if X.dim(n)}
    return ChainMap(X, X, comps)


def mat_vec(a: Mat, v: Vec) -> Vec:
    m, n = shape(a)
    if m == 0 or (n == 0 and len(v) == 0):
        return [Fraction(0)] * m
    if n != len(v):
        raise ValueError("shape mismatch in mat_vec")
    return [sum((a[i][k] * v[k] for k in range(n) if v[k]), Fraction(0)) for i in range(m)]


def ref_mat_mul(a: Mat, b: Mat) -> Mat:
    """The Fraction product that the integer `mat_mul` replaced: every
    product entry is accumulated in Fraction arithmetic."""
    ma, na = shape(a)
    mb, nb = shape(b)
    if ma == 0 or (na == 0 and mb == 0):
        return [[Fraction(0)] * nb for _ in range(ma)]
    if na != mb:
        raise ValueError(f"shape mismatch {ma}x{na} * {mb}x{nb}")
    out = [[Fraction(0)] * nb for _ in range(ma)]
    for i in range(ma):
        for k in range(na):
            if a[i][k]:
                for j in range(nb):
                    if b[k][j]:
                        out[i][j] += a[i][k] * b[k][j]
    return out


def ref_cone(f: ChainMap) -> Complex:
    """Cone(f) built in Fractions from padded blocks [[d_Y^n, f^(n+1)],
    [0, -d_X^(n+1)]], with d^2 = 0 checked by `ref_mat_mul`: the
    construction that the integer cone differential replaced."""
    X, Y = f.source, f.target
    lo, hi = Y.lo - 1, Y.hi
    d = {}
    for n in range(lo, hi):
        dy, fc, dx = Y.diff(n), f.component(n + 1), X.diff(n + 1)
        pad = [Fraction(0)] * Y.dim(n)
        d[n] = ([dy[i] + fc[i] for i in range(Y.dim(n + 1))]
                + [pad + [-x for x in dx[i]] for i in range(X.dim(n + 2))])
    C = Complex((lo, hi), {n: Y.dim(n) + X.dim(n + 1) for n in range(lo, hi + 1)}, d)
    for n in range(lo, hi - 1):
        if any(any(row) for row in ref_mat_mul(C.diff(n + 1), C.diff(n))):
            raise AssertionError(f"cone differential fails d^2 = 0 at degree {n}")
    return C


def ref_is_quasi_iso(f: ChainMap) -> bool:
    """Acyclicity of `ref_cone(f)`, each differential ranked as a Fraction
    matrix: h^n = dim C^n - rank d^n - rank d^(n-1) = 0 in every degree."""
    C = ref_cone(f)
    ranks = {n: rank(C.diff(n)) for n in range(C.lo - 1, C.hi + 1)}
    return all(C.dim(n) == ranks[n] + ranks[n - 1] for n in C.degrees())


# -- diagrams and quivers -------------------------------------------------


def span_shape() -> FinCat:
    return free_category("span", ["s", "l", "r"], [("f", "s", "l"), ("g", "s", "r")])


def pushout_diagram(F: Functor, G: Functor) -> CatDiagram:
    """Diagram for the pushout of B <-F- A -G-> C."""
    if F.source != G.source:
        raise ValueError("pushout legs must share their source")
    return CatDiagram("pushout", span_shape(),
                      {"s": F.source, "l": F.target, "r": G.target},
                      {"f": F, "g": G})


def jordan_quiver() -> Quiver:
    return Quiver("Jordan", ["v"], [("alpha", "v", "v")])


# -- duality --------------------------------------------------------------


def op(x):
    """The opposite of a category or functor.  C^op swaps each morphism's
    ends and transposes the composition table, keeping the order of objects
    and morphisms; F^op: C^op -> D^op keeps F's maps."""
    if isinstance(x, Functor):
        return Functor(f"{x.name}^op", op(x.source), op(x.target), x.obj_map, x.mor_map)
    return FinCat(f"{x.name}^op", x.objects, [(m, c, d) for (m, d, c) in x.morphisms],
                  x.identity, {(f, g): h for (g, f), h in x.compose_table.items()})
