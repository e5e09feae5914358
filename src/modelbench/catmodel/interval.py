"""Cylinder C x I and path object Hom(I, D) with their structure functors."""

from __future__ import annotations

from dataclasses import dataclass

from ..fincat import FinCat, Functor, coproduct, interval_category, product
from ..fincat.build import _pair
from .classify import FunctorClassification, classify


@dataclass
class CylinderDiagram:
    base: FinCat
    double: FinCat          # C + C
    cyl: FinCat             # C x I
    iota0: Functor
    iota1: Functor
    fold: Functor           # iota0 + iota1 : C + C -> C x I
    pr: Functor             # C x I -> C
    fold_class: FunctorClassification
    pr_class: FunctorClassification


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
    double = coproduct(C, C)
    fold = Functor(
        "iota0+iota1", double, cyl,
        {f"left/{x}": iota0.obj_map[x] for x in C.objects}
        | {f"right/{x}": iota1.obj_map[x] for x in C.objects},
        {f"left/{m}": iota0.mor_map[m] for m in C.morphism_ids}
        | {f"right/{m}": iota1.mor_map[m] for m in C.morphism_ids},
    )
    pr = Functor("pr", cyl, C,
                 {_pair(x, k): x for x in C.objects for k in ("0", "1")},
                 {_pair(m, n): m for m in C.morphism_ids for n in I.morphism_ids})
    diagram = CylinderDiagram(C, double, cyl, iota0, iota1, fold, pr,
                              classify(fold), classify(pr))
    if not diagram.fold_class.injection:
        raise AssertionError("cylinder fold leg is not an injection")
    if C.objects and not diagram.pr_class.acyclic_isofibration:
        raise AssertionError("cylinder projection is not an acyclic isofibration")
    C._cylinder = diagram
    return diagram


def _triple(d0, a, d1):
    return f"({d0},{a},{d1})"


def _hom_from_interval(D: FinCat) -> tuple[FinCat, dict, dict]:
    """The functor category Hom(I, D), realized as the category of triples
    (D0, alpha, D1) with alpha an isomorphism; morphisms are commuting
    squares (f0, f1).  Triples are ordered by the target's iso list.
    Returns the category and the (D0, alpha, D1) and (f0, f1) of each of
    its objects and morphisms."""
    objs = []
    data = {}
    for a in D.morphism_ids:
        if D.is_iso(a):
            t = _triple(D.dom[a], a, D.cod[a])
            objs.append(t)
            data[t] = (D.dom[a], a, D.cod[a])
    mors = []
    mor_data = {}
    for t1 in objs:
        (d0, a, d1) = data[t1]
        for t2 in objs:
            (e0, b, e1) = data[t2]
            for f0 in D.hom(d0, e0):
                for f1 in D.hom(d1, e1):
                    if D.compose(f1, a) == D.compose(b, f0):
                        m = f"({f0},{f1})"
                        mors.append((f"{t1}>{t2}:{m}", t1, t2))
                        mor_data[f"{t1}>{t2}:{m}"] = (f0, f1)
    ident = {t: f"{t}>{t}:({D.identity[data[t][0]]},{D.identity[data[t][2]]})"
             for t in objs}
    comp = {}
    for (g, gd, gc) in mors:
        for (f, fd, fc) in mors:
            if fc != gd:
                continue
            (g0, g1) = mor_data[g]
            (f0, f1) = mor_data[f]
            comp[(g, f)] = f"{fd}>{gc}:({D.compose(g0, f0)},{D.compose(g1, f1)})"
    cat = FinCat(f"Hom(I,{D.name})", objs, mors, ident, comp)
    return cat, data, mor_data


@dataclass
class PathDiagram:
    base: FinCat
    path_cat: FinCat        # Hom(I, D)
    square: FinCat          # D x D
    const: Functor          # D -> Hom(I, D)
    p0: Functor
    p1: Functor
    pairing: Functor        # Hom(I, D) -> D x D
    const_class: FunctorClassification
    pairing_class: FunctorClassification


def path_object(D: FinCat) -> PathDiagram:
    """D --const--> Hom(I, D) --(p0, p1)--> D x D, a very good path object:
    const is an acyclic injection, the pairing an isofibration.  Built and
    checked on the first call, then kept on the (immutable) category."""
    cached = getattr(D, "_path_object", None)
    if cached is not None:
        return cached
    path_cat, obj_data, mor_data = _hom_from_interval(D)
    const = Functor(
        "const", D, path_cat,
        {x: _triple(x, D.identity[x], x) for x in D.objects},
        {m: (f"{_triple(D.dom[m], D.identity[D.dom[m]], D.dom[m])}"
             f">{_triple(D.cod[m], D.identity[D.cod[m]], D.cod[m])}:({m},{m})")
         for m in D.morphism_ids},
    )
    p0 = Functor("p0", path_cat, D,
                 {t: obj_data[t][0] for t in path_cat.objects},
                 {m: mor_data[m][0] for m in path_cat.morphism_ids})
    p1 = Functor("p1", path_cat, D,
                 {t: obj_data[t][2] for t in path_cat.objects},
                 {m: mor_data[m][1] for m in path_cat.morphism_ids})
    square = product(D, D)
    pairing = Functor(
        "(p0,p1)", path_cat, square,
        {t: _pair(obj_data[t][0], obj_data[t][2]) for t in path_cat.objects},
        {m: _pair(mor_data[m][0], mor_data[m][1]) for m in path_cat.morphism_ids},
    )
    diagram = PathDiagram(D, path_cat, square, const, p0, p1, pairing,
                          classify(const), classify(pairing))
    if D.objects and not diagram.const_class.acyclic_injection:
        raise AssertionError("path constant leg is not an acyclic injection")
    if not diagram.pairing_class.isofibration:
        raise AssertionError("path pairing is not an isofibration")
    D._path_object = diagram
    return diagram
