"""The two explicit factorizations of a functor through its cylinder and
cocylinder, plus the pushout/pullback descriptions relating them to C x I
and Hom(I, D)."""

from __future__ import annotations

from ..fincat import FinCat, Functor, NatTransf, enumerate_functors
from ..fincat.build import induced_category, induced_mor
from ..fincat.core import Record
from ..fincat.enumfun import functors_with
from .classify import classify
from .homotopy import eta_to_cylinder_homotopy, eta_to_path_homotopy
from .interval import cylinder, path_object, _iso_triples


class CylinderFactorization(Record):
    """F = p o j through the functor cylinder D' (objects src/C + tgt/D)."""

    __slots__ = ("F", "dprime", "j", "p", "inc")

    def __init__(self, F: Functor, dprime: FinCat, j: Functor, p: Functor, inc: Functor):
        self.F = F
        self.dprime = dprime
        self.j = j              # C -> D', an injection
        self.p = p              # D' -> D, an acyclic isofibration
        self.inc = inc          # D -> D', the full inclusion of the target copy


def functor_cylinder_factorization(F: Functor) -> CylinderFactorization:
    C, D = F.source, F.target
    src = {x: f"src/{x}" for x in C.objects}
    tgt = {y: f"tgt/{y}" for y in D.objects}
    objs = [src[x] for x in C.objects] + [tgt[y] for y in D.objects]

    def lower(o):
        """The D-object underlying a D' object."""
        return F.obj_map[o[4:]] if o.startswith("src/") else o[4:]

    dprime, under = induced_category(f"cyl({F.name})", objs, lower, D)

    j = Functor("j", C, dprime,
                {x: src[x] for x in C.objects},
                {m: induced_mor(src[C.dom[m]], src[C.cod[m]], F.mor_map[m])
                 for m in C.morphism_ids})
    p = Functor("p", dprime, D, {o: lower(o) for o in objs}, dict(under))
    inc = Functor("inc", D, dprime,
                  {y: tgt[y] for y in D.objects},
                  {m: induced_mor(tgt[D.dom[m]], tgt[D.cod[m]], m) for m in D.morphism_ids})
    if j.then(p) != F:
        raise AssertionError("cylinder factorization does not recompose to F")
    if not classify(j).injection:
        raise AssertionError("j is not an injection")
    if not classify(p).acyclic_isofibration:
        raise AssertionError("p is not an acyclic isofibration")
    return CylinderFactorization(F, dprime, j, p, inc)


class CocylinderFactorization(Record):
    """F = q o iota through the functor cocylinder C' of triples
    (C, alpha, D) with alpha: F(C) -> D an isomorphism."""

    __slots__ = ("F", "cprime", "iota", "q", "pr1", "triple_data")

    def __init__(self, F: Functor, cprime: FinCat, iota: Functor, q: Functor, pr1: Functor,
                 triple_data: dict):
        self.F = F
        self.cprime = cprime
        self.iota = iota        # C -> C', an acyclic injection
        self.q = q              # C' -> D, an isofibration
        self.pr1 = pr1          # C' -> C
        self.triple_data = triple_data


def functor_cocylinder_factorization(F: Functor) -> CocylinderFactorization:
    """An identity of D reads Hom(I, D) from the path object kept on D, which
    checked that const = iota is an acyclic injection; any other F builds C'."""
    D = F.target
    if F.key == tuple(D.morphism_ids) and F.source == D:
        path = path_object(D)
        fac = CocylinderFactorization(F, path.path_cat, path.const, path.p1, path.p0,
                                      path.triple_data)
    else:
        cprime, data, iota, pr1, q = _iso_triples(F, f"cocyl({F.name})")
        if not classify(iota).acyclic_injection:
            raise AssertionError("iota is not an acyclic injection")
        fac = CocylinderFactorization(F, cprime, iota, q, pr1, data)
    if fac.iota.then(fac.q) != F:
        raise AssertionError("cocylinder factorization does not recompose to F")
    if not classify(fac.q).isofibration:
        raise AssertionError("q is not an isofibration")
    return fac


class UniversalCheck(Record):
    __slots__ = ("ok", "cocones_checked", "detail")

    def __init__(self, ok: bool, cocones_checked: int, detail: str = ""):
        self.ok = ok
        self.cocones_checked = cocones_checked
        self.detail = detail


def _pushout_homotopy(F: Functor, fac: CylinderFactorization) -> Functor:
    """The remark homotopy H: C x I -> D' of the pushout square: the
    cylinder homotopy of eta: inc o F => j with eta_x the morphism
    tgt/F(x) -> src/x over id_F(x); checked to close the square."""
    incF = F.then(fac.inc)
    ident = F.target.identity
    H = eta_to_cylinder_homotopy(NatTransf(incF, fac.j, {
        x: induced_mor(incF.obj_map[x], fac.j.obj_map[x], ident[F.obj_map[x]])
        for x in F.source.objects}))
    cyl = cylinder(F.source)
    if incF != cyl.iota0.then(H):
        raise AssertionError("pushout square does not commute")
    # the equational chain recovers F = p o j
    if fac.j.then(fac.p) != F or cyl.iota1.then(H).then(fac.p) != F:
        raise AssertionError("equational chain fails to recover F = p j")
    return H


def cylinder_pushout_check(F: Functor, test_categories) -> UniversalCheck:
    """The square  C --F--> D,  iota0 v  v inc,  C x I --H--> D'  is a
    pushout: against each test category, every compatible cocone factors
    uniquely through D'."""
    C, D = F.source, F.target
    fac = functor_cylinder_factorization(F)
    H = _pushout_homotopy(F, fac)
    iota0 = cylinder(C).iota0
    checked = 0
    for T in test_categories:
        for u in enumerate_functors(H.source, T):
            for v in functors_with(D, T, [(F, iota0.then(u))], []):
                checked += 1
                mediating = list(functors_with(fac.dprime, T, [(H, u), (fac.inc, v)], []))
                if len(mediating) != 1:
                    return UniversalCheck(False, checked,
                                          f"{len(mediating)} mediating maps")
    return UniversalCheck(True, checked)


def _pullback_homotopy(F: Functor, fac: CocylinderFactorization, path) -> Functor:
    """The remark homotopy K: C' -> Hom(I, D) of the pullback square: the
    path homotopy of eta: F o pr1 => q with eta_t the alpha of the triple
    t = (c, alpha, d), so K(t) = (F(c), alpha, d); checked to close the
    square."""
    Fpr1 = fac.pr1.then(F)
    K = eta_to_path_homotopy(NatTransf(Fpr1, fac.q, {
        t: a for t, (_, a, _) in fac.triple_data.items()}))
    # square p0 o K = F o pr1
    if K.then(path.p0) != Fpr1:
        raise AssertionError("pullback square does not commute")
    # equational chain: q = p1 K recovers F = q iota
    if K.then(path.p1) != fac.q:
        raise AssertionError("p1 K differs from q")
    if fac.iota.then(fac.q) != F:
        raise AssertionError("equational chain fails to recover F = q iota")
    return K


def cocylinder_pullback_check(F: Functor, test_categories) -> UniversalCheck:
    """The square  C' --K--> Hom(I, D),  pr1 v  v p0,  C --F--> D  is a
    pullback: cones from each test category factor uniquely through C'."""
    fac = functor_cocylinder_factorization(F)
    path = path_object(F.target)
    K = _pullback_homotopy(F, fac, path)
    checked = 0
    for T in test_categories:
        for u in enumerate_functors(T, F.source):
            for v in functors_with(T, path.path_cat, [], [(path.p0, u.then(F))]):
                checked += 1
                mediating = list(functors_with(T, fac.cprime, [], [(fac.pr1, u), (K, v)]))
                if len(mediating) != 1:
                    return UniversalCheck(False, checked,
                                          f"{len(mediating)} mediating maps")
    return UniversalCheck(True, checked)
