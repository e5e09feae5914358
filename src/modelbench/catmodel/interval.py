"""Cylinder C x I and path object Hom(I, D) with their structure functors."""

from __future__ import annotations

from ..fincat import FinCat, Functor, coproduct, interval_category, product
from ..fincat.build import _pair, induced_category, induced_mor
from ..fincat.core import Record, identity_functor
from .classify import classify


class CylinderDiagram(Record):
    __slots__ = ("base", "cyl", "iota0", "iota1", "fold", "pr")

    def __init__(self, base: FinCat, cyl: FinCat, iota0: Functor, iota1: Functor,
                 fold: Functor, pr: Functor):
        self.base = base
        self.cyl = cyl              # C x I
        self.iota0 = iota0
        self.iota1 = iota1
        self.fold = fold            # iota0 + iota1 : C + C -> C x I
        self.pr = pr                # C x I -> C


def cylinder(C: FinCat) -> CylinderDiagram:
    """C + C --(iota0 + iota1)--> C x I --pr--> C, a very good cylinder:
    the fold leg is an injection, pr an acyclic isofibration.  Built and
    checked on the first call, then kept on the (immutable) category."""
    cached = getattr(C, "_cylinder", None)
    if cached is not None:
        return cached
    I = interval_category()
    cyl = product(C, I)
    iotas = []
    for k in ("0", "1"):
        omap = {x: _pair(x, k) for x in C.objects}
        mmap = {m: _pair(m, f"id_{k}") for m in C.morphism_ids}
        iotas.append(Functor(f"iota{k}", C, cyl, omap, mmap))
    iota0, iota1 = iotas
    fold = Functor(
        "iota0+iota1", coproduct(C, C), cyl,
        {f"left/{x}": iota0.obj_map[x] for x in C.objects}
        | {f"right/{x}": iota1.obj_map[x] for x in C.objects},
        {f"left/{m}": iota0.mor_map[m] for m in C.morphism_ids}
        | {f"right/{m}": iota1.mor_map[m] for m in C.morphism_ids},
    )
    pr = Functor("pr", cyl, C,
                 {_pair(x, k): x for x in C.objects for k in ("0", "1")},
                 {_pair(m, n): m for m in C.morphism_ids for n in I.morphism_ids})
    if not classify(fold).injection:
        raise AssertionError("cylinder fold leg is not an injection")
    # pr is classified (and invariant-checked) even when C is empty
    if not classify(pr).acyclic_isofibration and C.objects:
        raise AssertionError("cylinder projection is not an acyclic isofibration")
    C._cylinder = CylinderDiagram(C, cyl, iota0, iota1, fold, pr)
    return C._cylinder


def _triple(d0, a, d1):
    return f"({d0},{a},{d1})"


def _iso_triples(F: Functor, name: str) -> tuple[FinCat, dict, Functor, Functor, Functor]:
    """The functor cocylinder of F: the category C' of triples (c, alpha, d)
    with c in F.source and alpha: F(c) -> d an isomorphism of F.target,
    listed for each iso alpha in the target's order, then each c with
    F(c) = dom alpha.  An arrow (c1, a1, d1) -> (c2, a2, d2) is a morphism
    f: c1 -> c2, named by induced_mor over f.  Returns C', the (c, alpha, d)
    of each triple, and the legs iota: c -> (c, id, F(c)), pr1, reading c and
    f, and q, reading d and a2 o F(f) o a1^-1."""
    C, D = F.source, F.target
    fibre = {}
    for c in C.objects:
        fibre.setdefault(F.obj_map[c], []).append(c)
    data = {}
    for a in D.morphism_ids:
        if D.is_iso(a):
            for c in fibre.get(D.dom[a], ()):
                data[_triple(c, a, D.cod[a])] = (c, a, D.cod[a])
    cat, under = induced_category(name, list(data), lambda t: data[t][0], C)
    image = {m: D.compose(D.compose(data[t2][1], F.mor_map[under[m]]),
                          D.inverse_of(data[t1][1]))
             for (m, t1, t2) in cat.morphisms}
    iota_obj = {c: _triple(c, D.identity[F.obj_map[c]], F.obj_map[c]) for c in C.objects}
    iota = Functor("iota", C, cat, iota_obj,
                   {m: induced_mor(iota_obj[C.dom[m]], iota_obj[C.cod[m]], m)
                    for m in C.morphism_ids})
    pr1 = Functor("pr1", cat, C, {t: data[t][0] for t in data}, under)
    q = Functor("q", cat, D, {t: data[t][2] for t in data}, image)
    return cat, data, iota, pr1, q


class PathDiagram(Record):
    """Hom(I, D) as the category of triples (d0, alpha, d1) with alpha an
    isomorphism of D.  An arrow lies over a morphism f0: d0 -> e0 of D;
    its other leg is f1 = beta o f0 o alpha^-1, so p0 reads f0 and p1 f1."""

    __slots__ = ("base", "path_cat", "const", "p0", "p1", "pairing", "triple_data")

    def __init__(self, base: FinCat, path_cat: FinCat, const: Functor, p0: Functor,
                 p1: Functor, pairing: Functor, triple_data: dict):
        self.base = base
        self.path_cat = path_cat    # Hom(I, D)
        self.const = const          # D -> Hom(I, D)
        self.p0 = p0
        self.p1 = p1
        self.pairing = pairing      # Hom(I, D) -> D x D
        self.triple_data = triple_data  # object -> (d0, alpha, d1)


def path_object(D: FinCat) -> PathDiagram:
    """D --const--> Hom(I, D) --(p0, p1)--> D x D, a very good path object:
    const is an acyclic injection, the pairing an isofibration.  Hom(I, D)
    is the functor cocylinder of the identity of D, whose legs iota, pr1
    and q are const, p0 and p1.  Built and checked on the first call, then
    kept on the (immutable) category."""
    cached = getattr(D, "_path_object", None)
    if cached is not None:
        return cached
    path_cat, data, const, p0, p1 = _iso_triples(identity_functor(D), f"Hom(I,{D.name})")
    pairing = Functor(
        "(p0,p1)", path_cat, product(D, D),
        {t: _pair(p0.obj_map[t], p1.obj_map[t]) for t in path_cat.objects},
        {m: _pair(p0.mor_map[m], p1.mor_map[m]) for m in path_cat.morphism_ids},
    )
    # const is classified (and invariant-checked) even when D is empty
    if not classify(const).acyclic_injection and D.objects:
        raise AssertionError("path constant leg is not an acyclic injection")
    if not classify(pairing).isofibration:
        raise AssertionError("path pairing is not an isofibration")
    D._path_object = PathDiagram(D, path_cat, const, p0, p1, pairing, data)
    return D._path_object
